"""Sequential (non-scan) fault simulation — parallel-fault style.

Scan converts sequential test into combinational test, but AI chips still
carry non-scan islands (and LBIST runs capture sequences), so a sequential
grader matters.  The engine here is classic **parallel fault simulation**
turned sideways from PPSFP: one machine word carries *word_width − 1 faulty
machines plus the good machine* (lane 0, 63+1 lanes at the default width),
all stepping through the same input sequence cycle by cycle.  Each lane's flop state evolves independently, so
fault effects latched in cycle *t* propagate into cycle *t+1* — the part
combinational engines cannot see.

Detection: a lane differs from lane 0 at any primary output on any cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.compiled import compiled
from ..circuit.gates import evaluate_parallel
from ..circuit.netlist import Netlist
from ..faults.model import OUTPUT_PIN, StuckAtFault
from .faultsim import FaultSimResult, unique_faults
from .parallel import WORD_WIDTH

#: Faulty machines per word (lane 0 is the fault-free reference).  Derived
#: from the shared word-width constant so this engine and
#: :mod:`repro.sim.parallel` cannot silently diverge.
LANES_PER_WORD = WORD_WIDTH - 1


class SequentialFaultSimulator:
    """Cycle-accurate multi-lane fault simulation over one netlist.

    ``word_width`` sets the machine word size: ``word_width - 1`` faulty
    lanes batch per word alongside the good-machine reference in lane 0.
    Results are identical for any width (lanes are independent).
    """

    def __init__(self, netlist: Netlist, word_width: int = WORD_WIDTH):
        if word_width < 2:
            raise ValueError(
                f"word_width must fit the reference lane plus at least one "
                f"faulty lane, got {word_width}"
            )
        self.netlist = netlist
        self.word_width = word_width
        self.lanes_per_word = word_width - 1
        self._compiled = compiled(netlist)

    # ------------------------------------------------------------------

    def _prepare_batch(
        self, faults: Sequence[StuckAtFault]
    ) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, List[Tuple[int, int, int]]]]:
        """Injection tables for one batch (≤ 63 faults, lanes 1..n).

        Returns ``(stem_forces, pin_forces)``:
        ``stem_forces[gate] = (lane_mask, value_bits)`` and
        ``pin_forces[gate] = [(pin, lane_mask, value_bits), ...]``.
        """
        stem: Dict[int, Tuple[int, int]] = {}
        pins: Dict[int, List[Tuple[int, int, int]]] = {}
        for lane, fault in enumerate(faults, start=1):
            bit = 1 << lane
            if fault.pin == OUTPUT_PIN:
                mask, value = stem.get(fault.gate, (0, 0))
                mask |= bit
                if fault.value:
                    value |= bit
                stem[fault.gate] = (mask, value)
            else:
                entry = pins.setdefault(fault.gate, [])
                merged = False
                for i, (pin, mask, value) in enumerate(entry):
                    if pin == fault.pin:
                        mask |= bit
                        if fault.value:
                            value |= bit
                        entry[i] = (pin, mask, value)
                        merged = True
                        break
                if not merged:
                    entry.append(
                        (fault.pin, bit, bit if fault.value else 0)
                    )
        return stem, pins

    def _step_batch(
        self,
        pi_bits: Sequence[int],
        state_words: List[int],
        stem: Dict[int, Tuple[int, int]],
        pins: Dict[int, List[Tuple[int, int, int]]],
        mask: int,
    ) -> Tuple[List[int], List[int], List[int]]:
        """One clocked cycle for the whole word of machines.

        Returns ``(po_words, next_state_words, gate_words)``.
        """
        netlist = self.netlist
        gates = netlist.gates
        words: List[int] = [0] * len(gates)
        # PIs: the same bit broadcast to every lane.
        for position, pi in enumerate(netlist.inputs):
            words[pi] = mask if pi_bits[position] else 0
            if pi in stem:
                force_mask, value = stem[pi]
                words[pi] = (words[pi] & ~force_mask) | value
        for position, flop in enumerate(netlist.flops):
            word = state_words[position]
            if flop in stem:
                force_mask, value = stem[flop]
                word = (word & ~force_mask) | value
            words[flop] = word

        fanins = self._compiled.fanins
        for gate_index in self._compiled.schedule:
            inputs = [words[driver] for driver in fanins[gate_index]]
            pin_list = pins.get(gate_index)
            if pin_list:
                for pin, force_mask, value in pin_list:
                    inputs[pin] = (inputs[pin] & ~force_mask) | value
            word = evaluate_parallel(gates[gate_index].type, inputs, mask)
            if gate_index in stem:
                force_mask, value = stem[gate_index]
                word = (word & ~force_mask) | value
            words[gate_index] = word

        # Read the PO markers themselves, so faults injected on them show.
        po_words = [words[po] for po in netlist.outputs]
        next_state: List[int] = []
        for flop in netlist.flops:
            data = words[fanins[flop][0]]
            # Pin-0 branch faults on the flop corrupt what gets latched.
            pin_list = pins.get(flop)
            if pin_list:
                for pin, force_mask, value in pin_list:
                    if pin == 0:
                        data = (data & ~force_mask) | value
            next_state.append(data)
        return po_words, next_state, words

    # ------------------------------------------------------------------

    def simulate(
        self,
        input_vectors: Sequence[Sequence[int]],
        faults: Sequence[StuckAtFault],
        initial_state: Optional[Sequence[int]] = None,
        drop: bool = True,
    ) -> FaultSimResult:
        """Grade a test sequence against sequential stuck-at faults.

        ``detected[fault]`` records the first *cycle* index at which the
        faulty machine's POs diverge from the good machine's.  All machines
        start from ``initial_state`` (default all-zero reset).
        """
        faults = unique_faults(faults)
        result = FaultSimResult(total_faults=len(faults))
        remaining = list(faults)
        base_state = list(initial_state or [0] * len(self.netlist.flops))
        if len(base_state) != len(self.netlist.flops):
            raise ValueError("initial state length mismatch")

        while remaining:
            batch = remaining[: self.lanes_per_word]
            remaining = remaining[self.lanes_per_word :]
            stem, pins = self._prepare_batch(batch)
            n_lanes = len(batch) + 1
            mask = (1 << n_lanes) - 1
            state_words = [
                (mask if bit else 0) for bit in base_state
            ]
            alive = (1 << (len(batch) + 1)) - 2  # lanes 1..n still undetected
            for cycle, vector in enumerate(input_vectors):
                po_words, state_words, _ = self._step_batch(
                    vector, state_words, stem, pins, mask
                )
                diff = 0
                for word in po_words:
                    reference = mask if (word & 1) else 0
                    diff |= (word ^ reference)
                diff &= alive
                if diff:
                    for lane, fault in enumerate(batch, start=1):
                        bit = 1 << lane
                        if diff & bit:
                            if fault not in result.detected:
                                result.detected[fault] = cycle
                            if drop:
                                alive &= ~bit
                    if drop and not alive:
                        break
            result.patterns_simulated = len(input_vectors)
        result.undetected = [
            fault for fault in faults if fault not in result.detected
        ]
        return result
