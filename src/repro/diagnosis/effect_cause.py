"""Effect-cause diagnosis: trace failures back, simulate forward to confirm.

The scalable alternative to full dictionaries: start from the observed
failing outputs, restrict candidates to lines in the structural fanin
cones of those outputs, then fault-simulate each candidate against the
failing *and a sample of passing* patterns, keeping candidates whose
behaviour matches exactly (or best, under a ranking).

This is the per-failing-pattern flow commercial diagnosis runs, minus the
layout-aware refinements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..faults.collapse import collapse_faults
from ..faults.model import OUTPUT_PIN, StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.faultsim import FaultSimulator
from .dictionary import Failures, signature_to_failures


@dataclass
class DiagnosisResult:
    """Ranked suspects for one failing die."""

    suspects: List[Tuple[StuckAtFault, float]] = field(default_factory=list)
    candidates_considered: int = 0
    exact: bool = False

    @property
    def top_suspects(self) -> List[StuckAtFault]:
        if not self.suspects:
            return []
        best = self.suspects[0][1]
        return [fault for fault, score in self.suspects if score == best]


class EffectCauseDiagnoser:
    """Single-stuck-at effect-cause diagnosis over one netlist."""

    def __init__(self, netlist, faults: Optional[Sequence[StuckAtFault]] = None):
        self.simulator = FaultSimulator(netlist)
        self.netlist = netlist
        if faults is None:
            faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        self.faults = list(faults)

    # ------------------------------------------------------------------

    def _structural_candidates(
        self, failing_outputs: Set[int]
    ) -> List[StuckAtFault]:
        """Faults whose site lies in the fanin cone of every failing output.

        A single defect must reach *all* failing outputs, so intersecting
        the cones prunes aggressively (the effect-cause backtrace step).
        """
        readers = self.simulator.view.output_readers
        cones: List[Set[int]] = []
        for output in failing_outputs:
            cone = self.netlist.fanin_cone([readers[output]])
            # A branch fault directly at a PO/flop pin lives one step past
            # the reader; include the observation gate itself.
            cones.append(cone)
        if not cones:
            return []
        common = set.intersection(*cones)
        candidates = [
            fault
            for fault in self.faults
            if fault.gate in common
            or (
                fault.pin != OUTPUT_PIN
                and self.netlist.gates[fault.gate].fanin[fault.pin] in common
            )
        ]
        return candidates

    def diagnose(
        self,
        patterns: Sequence[Sequence[int]],
        observed: Failures,
    ) -> DiagnosisResult:
        """Rank single-stuck-at suspects for an observed failure set.

        ``observed`` is the tester log: {(pattern index, output position)}.
        Candidates must reproduce every observed failure and stay silent on
        the first 32 passing patterns; scoring is exact-match first, then
        Jaccard similarity.
        """
        result = DiagnosisResult()
        failing_patterns = sorted({pattern for pattern, _ in observed})
        failing_outputs = {output for _, output in observed}
        if not observed:
            return result
        candidates = self._structural_candidates(failing_outputs)
        result.candidates_considered = len(candidates)

        # Include a sample of passing patterns so over-eager faults that
        # would have failed elsewhere get rejected.
        passing = [
            index for index in range(len(patterns)) if index not in set(failing_patterns)
        ][:32]
        probe_indices = failing_patterns + passing
        probe_patterns = [patterns[index] for index in probe_indices]
        remap = {local: original for local, original in enumerate(probe_indices)}

        scored: List[Tuple[StuckAtFault, float]] = []
        for fault in candidates:
            signature = self.simulator.failure_signature(probe_patterns, fault)
            predicted = {
                (remap[pattern], output)
                for pattern, output in signature_to_failures(signature)
            }
            union = predicted | observed
            if not union:
                continue
            score = len(predicted & observed) / len(union)
            if score > 0.0:
                scored.append((fault, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        result.suspects = scored[:10]
        result.exact = bool(scored) and scored[0][1] == 1.0
        return result


def inject_and_observe(
    simulator: FaultSimulator,
    patterns: Sequence[Sequence[int]],
    defect: StuckAtFault,
) -> Failures:
    """Produce the tester's failure log for a known injected defect."""
    signature = simulator.failure_signature(patterns, defect)
    return signature_to_failures(signature)
