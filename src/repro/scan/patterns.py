"""Cycle-accurate scan pattern application.

:class:`ScanScheduler` turns combinational test patterns (the ATPG view:
PIs + flop state in, POs + next state out) into the actual tester protocol —
shift in, force PIs, capture, shift out — and drives the 4-valued simulator
through it.  The scan-protocol oracle: tests use it to prove end to end
that scan delivers exactly the responses combinational ATPG predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..circuit.values import ZERO
from ..sim.logicsim import LogicSimulator
from .insertion import ScanDesign


@dataclass
class ScanOperation:
    """One applied pattern: what was shifted, forced, and unloaded."""

    pattern_index: int
    shift_cycles: int
    capture_cycles: int
    unloaded_state: List[int]
    observed_outputs: List[int]


class ScanScheduler:
    """Applies combinational patterns through the scan protocol."""

    def __init__(self, design: ScanDesign):
        self.design = design
        self.logic = LogicSimulator(design.netlist)
        netlist = design.netlist
        self._pi_positions = {gate: pos for pos, gate in enumerate(netlist.inputs)}
        # Functional PIs: everything except scan_in/scan_enable.
        special = set(design.scan_inputs) | {design.scan_enable}
        self.functional_inputs = [g for g in netlist.inputs if g not in special]

    def _base_inputs(self, scan_enable: int) -> List[int]:
        inputs = [0] * len(self.design.netlist.inputs)
        inputs[self._pi_positions[self.design.scan_enable]] = scan_enable
        return inputs

    def _shift(
        self,
        state: List[int],
        streams: Sequence[Sequence[int]],
        collect: bool = False,
    ) -> Tuple[List[int], List[List[int]]]:
        """Shift ``max_chain_length`` cycles, driving per-chain streams.

        Returns the new state and (when ``collect``) the per-chain unloaded
        bit streams, last-position bit first.
        """
        design = self.design
        netlist = design.netlist
        depth = design.max_chain_length
        unloaded: List[List[int]] = [[] for _ in design.chains]
        out_positions = [netlist.outputs.index(g) for g in design.scan_outputs]
        for cycle in range(depth):
            inputs = self._base_inputs(scan_enable=1)
            for chain_id, scan_in in enumerate(design.scan_inputs):
                stream = streams[chain_id]
                # Short chains start shifting late so the first bit lands
                # exactly when the load completes.
                offset = cycle - (depth - len(design.chains[chain_id]))
                bit = stream[offset] if 0 <= offset < len(stream) else 0
                inputs[self._pi_positions[scan_in]] = bit
            result = self.logic.step(inputs, state, scan_shift=True)
            state = result["state"]
            if collect:
                for chain_id, position in enumerate(out_positions):
                    if cycle < len(design.chains[chain_id]):
                        unloaded[chain_id].append(result["outputs"][position])
        return state, unloaded

    def apply_pattern(self, pattern: Sequence[int], pattern_index: int) -> ScanOperation:
        """Load, capture, and unload one combinational pattern from an
        all-zero scan state.

        ``pattern`` is in the combinational-view order of the *scan-inserted*
        netlist: functional PIs + scan ports + flop state.  Only the
        functional-PI and flop-state positions are honoured; scan ports are
        driven by the protocol.
        """
        design = self.design
        netlist = design.netlist
        n_pi = len(netlist.inputs)
        pi_part, state_part = pattern[:n_pi], pattern[n_pi:]
        state = [ZERO] * len(netlist.flops)

        # 1. Shift in the target state.
        load_state = [v if v in (0, 1) else 0 for v in state_part]
        streams = design.state_to_chain_bits(load_state)
        state, _ = self._shift(state, streams)

        # 2. Force functional PIs, capture one functional clock.
        inputs = self._base_inputs(scan_enable=0)
        for gate, value in zip(netlist.inputs, pi_part):
            if gate in (design.scan_enable, *design.scan_inputs):
                continue
            inputs[self._pi_positions[gate]] = value if value in (0, 1) else 0
        capture = self.logic.step(inputs, state, scan_shift=False)
        observed = capture["outputs"]
        state = capture["state"]

        # 3. Shift out the captured response (next pattern's load would
        #    normally overlap; kept separate here for clarity).
        zeros = [[0] * len(chain) for chain in design.chains]
        # The unload stream emerges last-chain-position first, which is
        # exactly the "first-shifted-in first" stream format.
        _, unloaded = self._shift(state, zeros, collect=True)
        return ScanOperation(
            pattern_index=pattern_index,
            shift_cycles=2 * design.max_chain_length,
            capture_cycles=1,
            unloaded_state=design.chain_bits_to_state(unloaded),
            observed_outputs=observed,
        )
