"""Time-frame expansion ATPG for non-scan sequential logic.

Unrolls a sequential netlist into *k* combinational frames — frame *f*'s
flop values are frame *f-1*'s next-state functions, PIs and POs replicate
per frame — and runs the combinational PODEM on the result.  Frame-0 state
comes from a known reset (``initial_state="zero"``) or is treated as fully
controllable (``"controllable"``, the full-scan-like bound).

Approximation (documented, validated): the target fault is injected in the
**last frame only**, so earlier frames justify state through the *good*
machine.  A real defect is present in every frame; the generated sequence
is therefore validated with the sequential fault simulator (fault active
everywhere, state effects included) and only sequences that *survive
validation* count as detected — the standard conservative single-fault-
at-launch flow for prototype sequential ATPG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.collapse import collapse_faults
from ..faults.model import OUTPUT_PIN, StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.seqfaultsim import SequentialFaultSimulator
from .podem import Podem
from .random_gen import random_patterns


@dataclass
class UnrolledModel:
    """The expanded netlist plus coordinate maps back to the original."""

    netlist: Netlist
    n_frames: int
    #: gate index in original -> gate index in frame f: ``frame_map[f][g]``.
    frame_map: List[Dict[int, int]]
    #: PI positions in the unrolled view, per frame, in original PI order.
    pi_positions: List[List[int]]
    #: Positions of frame-0 state inputs in the view (empty for reset mode).
    state_positions: List[int]


def unroll(
    netlist: Netlist, n_frames: int, initial_state: str = "zero"
) -> UnrolledModel:
    """Expand ``netlist`` into ``n_frames`` combinational frames."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if initial_state not in ("zero", "controllable"):
        raise ValueError("initial_state must be 'zero' or 'controllable'")
    netlist.finalize()
    expanded = Netlist(f"{netlist.name}_x{n_frames}f")
    frame_map: List[Dict[int, int]] = []

    # Frame-0 state sources.
    state_sources: Dict[int, int] = {}
    for flop in netlist.flops:
        name = f"state0/{netlist.gates[flop].name}"
        if initial_state == "controllable":
            state_sources[flop] = expanded.add(GateType.INPUT, name)
        else:
            state_sources[flop] = expanded.add(GateType.CONST0, name)

    previous_d: Dict[int, int] = {}
    for frame in range(n_frames):
        mapping: Dict[int, int] = {}
        for gate in netlist.gates:
            if gate.type == GateType.INPUT:
                mapping[gate.index] = expanded.add(
                    GateType.INPUT, f"{gate.name}@{frame}"
                )
            elif gate.is_sequential:
                if frame == 0:
                    mapping[gate.index] = state_sources[gate.index]
                else:
                    # This frame's flop output is last frame's D value.
                    mapping[gate.index] = previous_d[gate.index]
        for index in netlist.topo_order:
            gate = netlist.gates[index]
            if gate.type == GateType.INPUT or gate.is_sequential:
                continue
            name = f"{gate.name}@{frame}"
            expanded.add(
                gate.type, name, [mapping[d] for d in gate.fanin]
            )
            mapping[index] = expanded.index_of(name)
        previous_d = {
            flop: mapping[netlist.gates[flop].fanin[0]]
            for flop in netlist.flops
        }
        frame_map.append(mapping)

    expanded.finalize()

    # View coordinates: INPUT gates appear in creation order — state0 first
    # (if controllable), then frame-by-frame PIs.
    view_inputs = expanded.inputs
    position_of = {gate: pos for pos, gate in enumerate(view_inputs)}
    state_positions = [
        position_of[state_sources[flop]]
        for flop in netlist.flops
        if initial_state == "controllable"
    ]
    pi_positions = [
        [position_of[frame_map[f][pi]] for pi in netlist.inputs]
        for f in range(n_frames)
    ]
    return UnrolledModel(
        netlist=expanded,
        n_frames=n_frames,
        frame_map=frame_map,
        pi_positions=pi_positions,
        state_positions=state_positions,
    )


def map_fault_to_frame(
    model: UnrolledModel,
    original: Netlist,
    fault: StuckAtFault,
    frame: int,
) -> Optional[StuckAtFault]:
    """The fault's image inside one frame of the unrolled netlist.

    Flop *output* stems map onto the wire that stands in for the flop in
    that frame (the previous frame's D function or the frame-0 source).
    Branch faults into a flop's D pin have no same-frame observation in
    the unrolled model (their effect is next-frame state) and return None
    — the caller counts them as untestable-in-window.
    """
    mapping = model.frame_map[frame]
    if fault.gate not in mapping:
        return None
    new_gate = mapping[fault.gate]
    if fault.pin == OUTPUT_PIN:
        return StuckAtFault(new_gate, OUTPUT_PIN, fault.value)
    if original.gates[fault.gate].is_sequential:
        return None
    return StuckAtFault(new_gate, fault.pin, fault.value)


@dataclass
class SequentialAtpgResult:
    """Outcome of the time-frame flow."""

    sequences: List[List[List[int]]] = field(default_factory=list)
    total_faults: int = 0
    detected_random: int = 0
    detected_deterministic: int = 0
    unvalidated: int = 0
    untestable_in_window: int = 0
    aborted: int = 0
    cpu_seconds: float = 0.0

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    def summary(self) -> dict:
        return {
            "sequences": len(self.sequences),
            "faults": self.total_faults,
            "coverage": round(self.coverage, 4),
            "random": self.detected_random,
            "deterministic": self.detected_deterministic,
            "unvalidated": self.unvalidated,
            "untestable_window": self.untestable_in_window,
            "aborted": self.aborted,
            "cpu_s": round(self.cpu_seconds, 3),
        }


def run_sequential_atpg(
    netlist: Netlist,
    n_frames: int = 4,
    n_random_sequences: int = 64,
    seed: int = 0,
) -> SequentialAtpgResult:
    """Random sequences of 8 cycles + time-frame PODEM top-off (backtrack
    limit 64) over the collapsed fault list, all from reset.

    Every deterministic sequence is validated with the fault active in all
    cycles; failures count as ``unvalidated`` rather than detected.
    """
    start = time.perf_counter()
    netlist.finalize()
    if not netlist.flops:
        raise ValueError("use run_atpg for purely combinational circuits")
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = SequentialFaultSimulator(netlist)
    result = SequentialAtpgResult(total_faults=len(faults))
    n_pi = len(netlist.inputs)

    # Phase 1: random sequences from reset.
    remaining = list(faults)
    for index in range(n_random_sequences):
        if not remaining:
            break
        sequence = random_patterns(n_pi, 8, seed=seed * 977 + index)
        graded = simulator.simulate(sequence, remaining, drop=True)
        if graded.detected:
            result.sequences.append(sequence)
            result.detected_random += len(graded.detected)
            remaining = graded.undetected

    # Phase 2: last-frame PODEM on the unrolled model, validated.
    model = unroll(netlist, n_frames, initial_state="zero")
    podem = Podem(model.netlist)
    import random as _random

    rng = _random.Random(seed)
    for fault in list(remaining):
        image = map_fault_to_frame(model, netlist, fault, n_frames - 1)
        if image is None:
            result.untestable_in_window += 1
            continue
        outcome = podem.generate(image)
        if outcome.status == "aborted":
            result.aborted += 1
            continue
        if outcome.status == "untestable":
            result.untestable_in_window += 1
            continue
        cube = outcome.cube
        assert cube is not None
        sequence: List[List[int]] = []
        for frame in range(n_frames):
            vector = [
                cube[pos] if cube[pos] != X else rng.randint(0, 1)
                for pos in model.pi_positions[frame]
            ]
            sequence.append(vector)
        graded = simulator.simulate(sequence, [fault], drop=True)
        if fault in graded.detected:
            result.sequences.append(sequence)
            result.detected_deterministic += 1
        else:
            # The single-frame-injection approximation broke: the real
            # (always-active) fault corrupted the justification frames.
            result.unvalidated += 1

    result.cpu_seconds = time.perf_counter() - start
    return result
