"""Integrated compressed-pattern generation (EDT-ATPG co-generation).

Encoding test cubes *after* ATPG loses the incidental detections that the
ATPG's own pattern fill earned, because the decompressor fills don't-care
bits with its own pseudo-random data.  Production EDT therefore integrates
the two: every PODEM cube is encoded immediately, the *decompressed*
pattern (with the ring generator's fill) is what gets fault-simulated, and
fault dropping proceeds on exactly what the tester will apply.

:func:`run_compressed_atpg` implements that loop, with a bypass bucket for
the rare cube the channel capacity cannot encode (real flows apply those
few patterns through an uncompressed bypass mode).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..atpg.engine import ImageVerdicts, x_fill
from ..atpg.podem import Podem
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.faultsim import FaultSimulator, unique_faults
from .edt import EdtSystem, EncodedPattern


@dataclass
class CompressedAtpgResult:
    """Outcome of the integrated EDT-ATPG loop."""

    encoded: List[EncodedPattern] = field(default_factory=list)
    bypass_patterns: List[List[int]] = field(default_factory=list)
    applied_patterns: List[List[int]] = field(default_factory=list)  # as on silicon
    total_faults: int = 0
    detected: int = 0
    untestable: int = 0
    aborted: int = 0
    unencodable: int = 0
    #: Target faults the applied pattern of their own cube missed: an
    #: engine or encoder inconsistency, counted in no other bucket.
    consistency_errors: List[StuckAtFault] = field(default_factory=list)
    cpu_seconds: float = 0.0
    #: Independent re-grade of ``applied_patterns`` over the full universe
    #: (set when the flow runs with ``grade=True``): coverage as a tester
    #: would measure it, plus the grading engine's instrumentation.
    graded_coverage: Optional[float] = None
    grading_stats: dict = field(default_factory=dict)

    @property
    def fault_coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    @property
    def test_coverage(self) -> float:
        testable = self.total_faults - self.untestable
        if testable <= 0:
            return 1.0
        return self.detected / testable

    def summary(self) -> dict:
        summary = {
            "encoded_patterns": len(self.encoded),
            "bypass_patterns": len(self.bypass_patterns),
            "faults": self.total_faults,
            "fault_coverage": round(self.fault_coverage, 4),
            "test_coverage": round(self.test_coverage, 4),
            "untestable": self.untestable,
            "aborted": self.aborted,
            "unencodable": self.unencodable,
            "cpu_s": round(self.cpu_seconds, 3),
        }
        if self.graded_coverage is not None:
            summary["graded_coverage"] = round(self.graded_coverage, 4)
        if self.consistency_errors:
            summary["consistency_errors"] = len(self.consistency_errors)
        return summary


def run_compressed_atpg(
    edt: EdtSystem,
    faults: Optional[Sequence[StuckAtFault]] = None,
    random_pattern_budget: int = 128,
    seed: int = 0,
    grade: bool = False,
) -> CompressedAtpgResult:
    """Generate compressed patterns with fault dropping on decompressed data.

    Phase 1 applies PRPG-style random *encoded* patterns (random channel
    data expanded through the decompressor — free on a real tester).
    Phase 2 runs PODEM per surviving fault, encodes the cube, expands it,
    and fault-simulates the expansion; unencodable cubes fall back to an
    X-filled bypass pattern.  Untestable and aborted verdicts are searched
    once per identical-core image (:class:`~repro.atpg.engine.ImageVerdicts`).
    An applied pattern that misses its own target fault is recorded in
    ``consistency_errors``, never retried or credited.

    With ``grade`` set, the finished pattern set is re-graded from scratch
    against the full fault universe — the cross-check a tester sign-off
    would run — filling ``graded_coverage`` and ``grading_stats``.
    Every fault-simulation pass runs in process on one
    :class:`FaultSimulator` at its default word width.
    """
    start = time.perf_counter()
    design = edt.design
    netlist = design.netlist
    if faults is None:
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    faults = unique_faults(faults)
    simulator = FaultSimulator(netlist)
    rng = random.Random(seed)
    result = CompressedAtpgResult(total_faults=len(faults))
    n_pi = len(netlist.inputs)

    # ------------------------------------------------------------------
    # Phase 1: random channel data -> decompressed pseudo-random patterns.
    # ------------------------------------------------------------------
    n_vars = edt.config.variables_per_pattern
    with obs.span("compression_random"):
        candidates = []
        for _ in range(random_pattern_budget):
            variables = [rng.randint(0, 1) for _ in range(n_vars)]
            pi_bits = [rng.randint(0, 1) for _ in range(n_pi)]
            candidates.append(edt.encoded_pattern(variables, pi_bits))
        patterns = [candidate.pattern for candidate in candidates]
        # Grade once; keep each first detection's pattern.  Candidates drawn
        # after the last fault falls shift no later draw: phase 2 has none.
        sim = simulator.simulate(patterns, faults, drop=True)
        for index in sorted(set(sim.detected.values())):
            result.applied_patterns.append(patterns[index])
            result.encoded.append(candidates[index])
        result.detected = len(sim.detected)
        remaining = sim.undetected

    # ------------------------------------------------------------------
    # Phase 2: deterministic cubes, encoded one at a time.
    # ------------------------------------------------------------------
    generator = ImageVerdicts(Podem(netlist), netlist, remaining)
    undetected = set(remaining)
    with obs.span("compression_encode"):
        for fault in remaining:
            if fault not in undetected:
                continue
            outcome = generator.generate(fault)
            if outcome.status == "untestable":
                result.untestable += 1
                undetected.discard(fault)
                continue
            if outcome.status == "aborted":
                result.aborted += 1
                undetected.discard(fault)
                continue
            cube = outcome.cube
            assert cube is not None
            pi_part, care = edt.cube_to_care_bits(cube)
            variables = edt.decompressor.solve_cube(care)
            if variables is None:
                # Channel capacity exceeded: apply through bypass scan.
                result.unencodable += 1
                pattern = x_fill(cube, rng, "random")
                result.bypass_patterns.append(pattern)
            else:
                pi_bits = [v if v in (0, 1) else rng.randint(0, 1) for v in pi_part]
                encoded = edt.encoded_pattern(variables, pi_bits)
                result.encoded.append(encoded)
                pattern = encoded.pattern
            result.applied_patterns.append(pattern)
            sim = simulator.simulate([pattern], list(undetected), drop=True)
            result.detected += len(sim.detected)
            for detected_fault in sim.detected:
                undetected.discard(detected_fault)
            if fault in undetected:
                # The encoder solved every care bit (or the bypass pattern
                # holds the cube), so the applied pattern detects the
                # target under any fill.  A miss is an engine or encoder
                # inconsistency: surface it, never absorb it.
                undetected.discard(fault)
                result.consistency_errors.append(fault)

    if grade and result.applied_patterns:
        with obs.span("grade"):
            graded = simulator.simulate(result.applied_patterns, faults, drop=True)
            result.graded_coverage = graded.coverage
            result.grading_stats = dict(graded.stats)

    result.cpu_seconds = time.perf_counter() - start
    _publish_compression(result)
    return result


def _publish_compression(result: CompressedAtpgResult) -> None:
    """Mirror a :class:`CompressedAtpgResult` into the active observation."""
    observation = obs.current()
    if observation is None:
        return
    observation.add_counters(
        "compression",
        {
            "faults": result.total_faults,
            "detected": result.detected,
            "encoded_patterns": len(result.encoded),
            "bypass_patterns": len(result.bypass_patterns),
            "applied_patterns": len(result.applied_patterns),
            "unencodable": result.unencodable,
            "untestable": result.untestable,
            "aborted": result.aborted,
        },
    )
    obs.set_gauge("compression.fault_coverage", result.fault_coverage)
    obs.set_gauge("compression.test_coverage", result.test_coverage)
    if result.graded_coverage is not None:
        obs.set_gauge("compression.graded_coverage", result.graded_coverage)
