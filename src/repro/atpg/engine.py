"""Top-level ATPG flow: random phase + deterministic PODEM top-off.

The production recipe the tutorial describes:

1. collapse the stuck-at universe,
2. burn down easy faults with random patterns (cheap, massively effective
   early — each 64-pattern word is one PPSFP pass),
3. run PODEM on every survivor, fault-simulating each new test against the
   remaining list so one deterministic pattern usually kills several faults
   (dynamic compaction through fault dropping); on identical cores, an
   untestable or aborted verdict is searched once per core class and
   copied to the fault's other images (:class:`ImageVerdicts`),
4. optionally statically compact the deterministic cubes and X-fill them,
   then re-grade what compaction can change: the faults credited during
   step 3, against the deterministic patterns only, topping off from the
   step-3 fills any credit the re-filled cubes lost.  Step-2 credits need
   no re-grade — each one's first detecting random pattern is kept
   verbatim.  Without compaction the step-3 fills are the final patterns,
   so every credit stands as earned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .. import obs
from ..circuit.compiled import core_classes
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.faultsim import FaultSimulator, unique_faults
from ..sim.parallel import WORD_WIDTH
from .compaction import care_bit_stats, static_compact
from .podem import PodemResult
from .portfolio import make_engine
from .random_gen import packed_random_patterns


def x_fill(cube: Sequence[int], rng: random.Random, mode: str = "random") -> List[int]:
    """Fill a cube's X positions: ``random``, ``zero``, ``one``, ``repeat``.

    ``repeat`` copies the previous specified bit (reduces shift power in
    scan chains — the fill commercial tools call "adjacent fill").
    """
    if mode not in ("random", "zero", "one", "repeat"):
        raise ValueError(f"unknown fill mode {mode!r}")
    filled: List[int] = []
    for value in cube:
        if value == X:
            if mode == "random":
                value = rng.randint(0, 1)
            elif mode == "repeat":
                value = filled[-1] if filled else 0
            else:
                value = 0 if mode == "zero" else 1
        filled.append(value)
    return filled


class ImageVerdicts:
    """A deterministic engine that searches each fault's core images once
    for a verdict other than ``detected``.

    The faults of one image key (:meth:`CoreClasses.images
    <repro.circuit.compiled.CoreClasses.images>`) are the same fault on
    identical cores.  The first of them the flow asks about is searched;
    an ``untestable`` or ``aborted`` outcome then stands for every later
    one, which gets the same outcome object with no search.  Untestable
    carries over because the copies are isomorphic; aborted is the first
    image's search within the budget.  A ``detected`` outcome is never
    reused: each image gets its own cube, confirmed by its own fault
    simulation.  A fault with no image key is always searched.
    """

    def __init__(self, engine, netlist: Netlist, faults: Sequence[StuckAtFault]):
        self._engine = engine
        self._keys = {
            fault: key
            for key, images in core_classes(netlist).images(faults).items()
            for fault in images
        }
        self._verdicts: Dict[tuple, PodemResult] = {}

    def generate(self, fault: StuckAtFault) -> PodemResult:
        key = self._keys.get(fault)
        outcome = self._verdicts.get(key)
        if outcome is None:
            outcome = self._engine.generate(fault)
            if key is not None and outcome.status != "detected":
                self._verdicts[key] = outcome
        return outcome


@dataclass
class AtpgResult:
    """Everything the flow produced, plus bookkeeping for the E1 table."""

    patterns: List[List[int]] = field(default_factory=list)
    cubes: List[List[int]] = field(default_factory=list)
    total_faults: int = 0
    detected_random: int = 0
    detected_deterministic: int = 0
    untestable: List[StuckAtFault] = field(default_factory=list)
    aborted: List[StuckAtFault] = field(default_factory=list)
    consistency_errors: List[StuckAtFault] = field(default_factory=list)
    random_pattern_count: int = 0
    cpu_seconds: float = 0.0
    #: Deterministic engine used for phase 2 ("podem", "dalg", "guided",
    #: or "portfolio").
    engine: str = "podem"
    #: Engine that settled each deterministic fault (detected or proved
    #: untestable), keyed by engine name.  For single engines the only
    #: key is the engine itself; the portfolio attributes per member.
    winner_engines: Dict[str, int] = field(default_factory=dict)
    #: Per-engine abort reasons ("backtracks" or "work") for faults no
    #: engine settled — the audit trail that makes every abort explained,
    #: never silent.  Aborted faults are unresolved within budget, NOT
    #: proven untestable, so they stay in the fault-coverage denominator.
    engine_abort_reasons: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def fault_coverage(self) -> float:
        """Detected / all faults."""
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    @property
    def test_coverage(self) -> float:
        """Detected / (all faults − proven untestable)."""
        testable = self.total_faults - len(self.untestable)
        if testable <= 0:
            return 1.0
        return self.detected / testable

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "patterns": len(self.patterns),
            "faults": self.total_faults,
            "fault_coverage": round(self.fault_coverage, 4),
            "test_coverage": round(self.test_coverage, 4),
            "untestable": len(self.untestable),
            "aborted": len(self.aborted),
            "random_patterns": self.random_pattern_count,
            "cpu_s": round(self.cpu_seconds, 3),
        }
        summary["proved_untestable"] = len(self.untestable)
        summary["engine"] = self.engine
        if self.winner_engines:
            summary["winner_engine"] = dict(sorted(self.winner_engines.items()))
        if self.engine_abort_reasons:
            summary["engine_abort_reasons"] = {
                name: dict(sorted(reasons.items()))
                for name, reasons in sorted(self.engine_abort_reasons.items())
            }
        if self.consistency_errors:
            summary["consistency_errors"] = len(self.consistency_errors)
        return summary


def run_atpg(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    random_batches: int = 8,
    min_batch_yield: int = 1,
    backtrack_limit: int = 64,
    compact: bool = True,
    seed: int = 0,
    work_budget: Optional[int] = None,
    engine: str = "podem",
) -> AtpgResult:
    """Run the full stuck-at ATPG flow on ``netlist``.

    ``random_batches`` bounds the random phase (:data:`WORD_WIDTH` patterns
    per batch); the phase also stops early when a batch detects fewer than
    ``min_batch_yield`` new faults.  With ``compact`` set, deterministic
    cubes are statically compacted and randomly X-filled again; without
    it, the fills phase 2 graded are the deterministic patterns.

    ``work_budget`` caps the gates each deterministic search re-implies,
    so one pathological fault aborts with reason ``"work"`` (aborted is
    not untestable) instead of stalling the campaign; it counts work, not
    the clock, so verdicts repeat on any host, and each portfolio member
    gets all of it.
    ``engine`` picks the deterministic generator — ``"podem"`` (default),
    ``"dalg"`` (D-algorithm, proves untestability), ``"guided"``
    (SCOAP-guided restarts), or ``"portfolio"`` (all three raced per
    fault; see :mod:`repro.atpg.portfolio`).

    Every fault-simulation pass runs in process on one
    :class:`FaultSimulator`.  To grade the final patterns over worker
    processes or a resumable shard store, write them out and grade the
    file (``repro atpg C -o F``, then ``repro fsim C F --store DIR``).
    """
    start = time.perf_counter()
    netlist.finalize()
    if faults is None:
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    faults = unique_faults(faults)
    simulator = FaultSimulator(netlist)
    # Built before phase 1, so a bad engine name fails before any grading.
    generator = make_engine(
        engine, netlist, backtrack_limit=backtrack_limit, work_budget=work_budget
    )
    rng = random.Random(seed)
    result = AtpgResult(total_faults=len(faults), engine=engine)
    remaining = list(faults)
    n_inputs = simulator.view.num_inputs

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping.
    # ------------------------------------------------------------------
    # Each batch is graded as packed words; only the patterns kept are
    # unpacked into rows.
    kept_patterns: List[List[int]] = []
    with obs.span("random_fill"):
        for batch in range(random_batches):
            if not remaining:
                break
            batch_patterns = packed_random_patterns(
                n_inputs, WORD_WIDTH, seed=seed * 1000 + batch
            )
            sim = simulator.simulate(batch_patterns, remaining)
            if sim.detected:
                words = batch_patterns.words
                kept_patterns.extend(
                    [(word >> index) & 1 for word in words]
                    for index in sorted(set(sim.detected.values()))
                )
                result.detected_random += len(sim.detected)
                remaining = sim.undetected
            result.random_pattern_count += len(batch_patterns)
            if len(sim.detected) < min_batch_yield:
                break

    # ------------------------------------------------------------------
    # Phase 2: deterministic generation with dynamic fault dropping.
    # ------------------------------------------------------------------
    cubes: List[List[int]] = []
    phase2_fills: List[List[int]] = []
    phase2_credits: Set[StuckAtFault] = set()
    queue = list(remaining)
    undetected = set(remaining)
    search = ImageVerdicts(generator, netlist, queue)
    with obs.span("podem"):
        for fault in queue:
            if fault not in undetected:
                continue
            outcome = search.generate(fault)
            winner = getattr(outcome, "winner", None)
            if outcome.status != "aborted":
                settled_by = winner or engine
                result.winner_engines[settled_by] = (
                    result.winner_engines.get(settled_by, 0) + 1
                )
            if outcome.status == "untestable":
                result.untestable.append(fault)
                undetected.discard(fault)
                continue
            if outcome.status == "aborted":
                result.aborted.append(fault)
                per_engine = getattr(outcome, "engine_reasons", None) or {
                    engine: outcome.reason
                }
                for member, member_reason in per_engine.items():
                    member_counts = result.engine_abort_reasons.setdefault(
                        member, {}
                    )
                    member_counts[member_reason] = (
                        member_counts.get(member_reason, 0) + 1
                    )
                undetected.discard(fault)
                continue
            cube = outcome.cube
            assert cube is not None
            cubes.append(cube)
            # Dynamic compaction: the filled test usually detects extra
            # faults.
            filled = x_fill(cube, rng)
            phase2_fills.append(filled)
            sim = simulator.simulate([filled], list(undetected), drop=True)
            result.detected_deterministic += len(sim.detected)
            phase2_credits.update(sim.detected)
            undetected.difference_update(sim.detected)
            if fault in undetected:
                # A correct PODEM cube detects its target under *any* X fill
                # (implication already proved a D at an observation point),
                # so fault simulation must confirm it.  Anything else is an
                # engine inconsistency worth surfacing, not silently
                # absorbing.
                undetected.discard(fault)
                result.consistency_errors.append(fault)

    with obs.span("compact"):
        if compact and cubes:
            cubes = static_compact(cubes)
            deterministic_patterns = [x_fill(cube, rng) for cube in cubes]
        else:
            # The fills the phase-2 credits were earned on, verbatim.
            deterministic_patterns = list(phase2_fills)
    result.cubes = cubes
    result.patterns = kept_patterns + deterministic_patterns

    # Compaction merges and re-fills cubes, so a phase-2 credit earned by a
    # *particular* fill can be lost.  Only those credits are at stake: every
    # random-phase credit's first detecting pattern is kept verbatim, and no
    # kept random pattern detects a phase-2 fault (each survived the whole
    # random phase).  So grade the phase-2 credits against the deterministic
    # patterns alone, then top off from the phase-2 fills.
    if compact and phase2_fills:
        with obs.span("top_off"):
            # ``queue`` holds the random-phase survivors in ``faults`` order.
            credited = [f for f in queue if f in phase2_credits]
            check = simulator.simulate(deterministic_patterns, credited)
            missing = [f for f in credited if f not in check.detected]
            # Each fill was already simulated as a single-pattern block
            # during phase 2, so its good-machine block comes straight from
            # the response cache.
            for fill in phase2_fills:
                if not missing:
                    break
                topoff = simulator.simulate([fill], missing, drop=True)
                if topoff.detected:
                    result.patterns.append(fill)
                    missing = [f for f in missing if f not in topoff.detected]
            # Every credit's own fill is among those tried, so a credit still
            # missing is a simulator inconsistency: report it, never count it.
            result.consistency_errors.extend(missing)
            result.detected_deterministic -= len(missing)

    result.cpu_seconds = time.perf_counter() - start
    _publish_atpg(result)
    return result


def _publish_atpg(result: AtpgResult) -> None:
    """Mirror an :class:`AtpgResult` into the active observation."""
    observation = obs.current()
    if observation is None:
        return
    observation.add_counters(
        "atpg",
        {
            "faults": result.total_faults,
            "random_patterns": result.random_pattern_count,
            "detected_random": result.detected_random,
            "detected_deterministic": result.detected_deterministic,
            "untestable": len(result.untestable),
            "aborted": len(result.aborted),
            "consistency_errors": len(result.consistency_errors),
            "patterns": len(result.patterns),
            "cubes": len(result.cubes),
        },
    )
    if result.winner_engines:
        observation.add_counters(
            "atpg.winner",
            {name: count for name, count in sorted(result.winner_engines.items())},
        )
    obs.set_gauge("atpg.fault_coverage", result.fault_coverage)
    obs.set_gauge("atpg.test_coverage", result.test_coverage)


def atpg_table_row(netlist: Netlist, result: AtpgResult) -> Dict[str, object]:
    """One row of the E1 summary table for a finished run."""
    row: Dict[str, object] = {"circuit": netlist.name}
    row.update(netlist.stats())
    row.update(result.summary())
    if result.cubes:
        care, total, density = care_bit_stats(result.cubes)
        row["care_bit_density"] = round(density, 4)
    return row
