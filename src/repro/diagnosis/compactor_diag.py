"""Diagnosis through a response compactor.

With EDT-style compression the tester never sees raw chain bits — only the
XOR-compacted channels.  Diagnosis must therefore compare *compacted*
candidate signatures against *compacted* observations.  Resolution drops
(several chains alias into one channel) but usually stays useful; the E10
experiment quantifies exactly that loss against raw-response diagnosis.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..compression.compactor import XorCompactor
from ..faults.model import StuckAtFault
from ..scan.insertion import ScanDesign
from ..sim.faultsim import FaultSimulator
from ..sim.parallel import ParallelSimulator

#: Compacted observation: {(pattern, channel, cycle)} that miscompared.
CompactedFailures = Set[Tuple[int, int, int]]


class CompactedDiagnoser:
    """Effect-cause-style diagnosis with only compacted responses."""

    def __init__(
        self,
        design: ScanDesign,
        compactor: XorCompactor,
        faults: Sequence[StuckAtFault],
    ):
        self.design = design
        self.compactor = compactor
        self.simulator = FaultSimulator(design.netlist)
        self.parallel = ParallelSimulator(design.netlist)
        self.faults = list(faults)
        self._n_po = len(design.netlist.outputs)

    # ------------------------------------------------------------------

    def _compact_state(self, state_bits: Sequence[int]) -> List[List[int]]:
        streams = self.design.state_to_chain_bits(list(state_bits))
        return self.compactor.compact_unload(streams)

    def compacted_signature(
        self, patterns: Sequence[Sequence[int]], fault: StuckAtFault
    ) -> CompactedFailures:
        """Where the compacted faulty response differs from good.

        Only the flop (chain) part goes through the compactor; PO failures
        are folded in as pseudo-channels beyond the compactor's channels.
        """
        raw = self.simulator.failure_signature(patterns, fault)
        failures: CompactedFailures = set()
        if not raw:
            return failures
        good_responses = self.parallel.responses(list(patterns))
        n_channels = self.compactor.n_channels
        for pattern_index, outputs in raw.items():
            good = good_responses[pattern_index]
            faulty = list(good)
            for output in outputs:
                faulty[output] ^= 1
            good_compact = self._compact_state(good[self._n_po :])
            faulty_compact = self._compact_state(faulty[self._n_po :])
            for cycle, (gc, fc) in enumerate(zip(good_compact, faulty_compact)):
                for channel in range(n_channels):
                    if gc[channel] != fc[channel]:
                        failures.add((pattern_index, channel, cycle))
            # POs bypass the compactor; report them as extra channels.
            for output in outputs:
                if output < self._n_po:
                    failures.add((pattern_index, n_channels + output, 0))
        return failures

    def diagnose(
        self,
        patterns: Sequence[Sequence[int]],
        observed: CompactedFailures,
    ) -> List[Tuple[StuckAtFault, float]]:
        """The ten faults whose compacted signatures best match ``observed``
        (Jaccard similarity)."""
        scored: List[Tuple[StuckAtFault, float]] = []
        for fault in self.faults:
            predicted = self.compacted_signature(patterns, fault)
            union = predicted | observed
            if not union:
                continue
            score = len(predicted & observed) / len(union)
            if score > 0.0:
                scored.append((fault, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:10]
