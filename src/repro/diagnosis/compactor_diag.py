"""Diagnosis through a response compactor.

With EDT-style compression the tester never sees raw chain bits — only the
XOR-compacted channels.  Diagnosis must therefore compare *compacted*
candidate signatures against *compacted* observations.  Resolution drops
(several chains alias into one channel) but usually stays useful; the E10
experiment quantifies exactly that loss against raw-response diagnosis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

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
        top: int = 10,
    ) -> List[Tuple[StuckAtFault, float]]:
        """Rank faults by Jaccard similarity of compacted signatures."""
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
        return scored[:top]

    def resolution_versus_raw(
        self,
        patterns: Sequence[Sequence[int]],
        sample_faults: Sequence[StuckAtFault],
    ) -> Dict[str, float]:
        """E10 row: suspect-count with and without the compactor.

        For each sampled defect, injects it, diagnoses from raw and from
        compacted observations, and averages the top-score suspect count.
        """
        raw_sizes: List[int] = []
        compact_sizes: List[int] = []
        hits_raw = 0
        hits_compact = 0
        for defect in sample_faults:
            raw_observed = self.simulator.failure_signature(patterns, defect)
            if not raw_observed:
                continue
            # Raw diagnosis: exact signature match count.
            from .dictionary import signature_to_failures

            observed_set = signature_to_failures(raw_observed)
            raw_matches = [
                fault
                for fault in self.faults
                if signature_to_failures(
                    self.simulator.failure_signature(patterns, fault)
                )
                == observed_set
            ]
            raw_sizes.append(len(raw_matches))
            if defect in raw_matches:
                hits_raw += 1

            compact_observed = self.compacted_signature(patterns, defect)
            ranked = self.diagnose(patterns, compact_observed)
            if ranked:
                best = ranked[0][1]
                top_set = [fault for fault, score in ranked if score == best]
                compact_sizes.append(len(top_set))
                if defect in top_set:
                    hits_compact += 1
            else:
                compact_sizes.append(0)
        count = len(raw_sizes) or 1
        return {
            "defects_diagnosed": float(len(raw_sizes)),
            "avg_suspects_raw": sum(raw_sizes) / count,
            "avg_suspects_compacted": sum(compact_sizes) / count,
            "hit_rate_raw": hits_raw / count,
            "hit_rate_compacted": hits_compact / count,
        }
