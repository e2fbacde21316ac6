"""Cross-engine ATPG equivalence oracle.

The ATPG analogue of the backend × kernel conformance matrix: every
deterministic engine (``podem``, ``dalg``, ``guided``, ``portfolio``)
is audited over the seven conformance circuits plus hypothesis-generated
netlists.

Contract, per fault:

1. **Vectors are real** — every cube any engine returns detects its
   target fault under the fault simulator, for multiple X-fills.
2. **Verdicts agree** — no fault is ``detected`` by one engine and
   ``untestable`` by another (aborts are allowed to differ: they are
   budget artifacts, not verdicts).
3. **Untestability claims are proofs** — every ``proved_untestable`` is
   validated by exhaustive simulation of the complete input space
   (all circuits here have ≤ 16 view inputs).
4. **No unexplained aborts** — a portfolio abort carries a reason from
   *every* member engine, and campaign accounting partitions the fault
   universe exactly.
5. **Credits are real** — a serial-engine re-grade of ``run_atpg``'s
   final patterns detects every fault the flow credits and no fault it
   proved untestable, with and without static compaction.  The flow
   itself re-grades only its phase-2 credits, so this is the whole-set
   check it leaves to the oracle.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.dalg import DAlgorithm
from repro.atpg.engine import run_atpg, x_fill
from repro.atpg.portfolio import ENGINE_NAMES, PORTFOLIO_MEMBERS, make_engine
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import exhaustive_truth, small_netlists
from tests.test_conformance import CIRCUIT_NAMES, _circuit, _universe

#: Generous budget: on these circuits every engine should settle nearly
#: everything, making the cross-checks maximally binding.
BACKTRACK_LIMIT = 1024

#: Ground-truth redundancy counts for the conformance circuits, from
#: exhaustive enumeration — a regression pin on both the circuit
#: generators and the D-algorithm's proof machinery.
KNOWN_REDUNDANT = {
    "c17": 0,
    "rand5": 29,
    "rand8": 24,
    "adder4": 4,
    "mac2": 24,
    "seq4": 16,
    "seq6": 20,
}


@functools.lru_cache(maxsize=None)
def _verdicts(name, engine_name):
    netlist = _circuit(name)
    engine = make_engine(
        engine_name, netlist, backtrack_limit=BACKTRACK_LIMIT
    )
    return {fault: engine.generate(fault) for fault in _universe(name)}


@functools.lru_cache(maxsize=None)
def _truth(name):
    return exhaustive_truth(_circuit(name), _universe(name))


class TestVectorsAreReal:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_every_vector_detects_its_fault(self, name, engine_name):
        netlist = _circuit(name)
        simulator = FaultSimulator(netlist, cache=None)
        rng = random.Random(17)
        for fault, outcome in _verdicts(name, engine_name).items():
            if not outcome.detected:
                continue
            for mode in ("zero", "random"):
                pattern = x_fill(outcome.cube, rng, mode)
                result = simulator.simulate([pattern], [fault], drop=True)
                assert fault in result.detected, (
                    f"{engine_name} cube ({mode}-fill) missed "
                    f"{fault.describe(netlist)}"
                )


class TestVerdictsAgree:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_no_detected_vs_untestable_split(self, name):
        for fault in _universe(name):
            statuses = {
                engine_name: _verdicts(name, engine_name)[fault].status
                for engine_name in ENGINE_NAMES
            }
            verdicts = set(statuses.values()) - {"aborted"}
            assert verdicts != {"detected", "untestable"}, (
                f"{fault.describe(_circuit(name))}: {statuses}"
            )


class TestUntestableClaimsAreProofs:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_claims_hold_exhaustively(self, name, engine_name):
        _, truly_untestable = _truth(name)
        for fault, outcome in _verdicts(name, engine_name).items():
            if outcome.status == "untestable":
                assert fault in truly_untestable, (
                    f"{engine_name} falsely proved "
                    f"{fault.describe(_circuit(name))} untestable"
                )

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_dalg_settles_everything_and_matches_truth(self, name):
        """With budget to spare the D-algorithm is *complete* on these
        circuits: zero aborts, and verdicts equal ground truth exactly."""
        truly_testable, truly_untestable = _truth(name)
        netlist = _circuit(name)
        dalg = DAlgorithm(netlist, backtrack_limit=4096)
        claimed_untestable = set()
        for fault in _universe(name):
            outcome = dalg.generate(fault)
            assert outcome.status != "aborted", fault.describe(netlist)
            if outcome.status == "untestable":
                claimed_untestable.add(fault)
        assert claimed_untestable == truly_untestable

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_known_redundant_counts_pinned(self, name):
        _, truly_untestable = _truth(name)
        assert len(truly_untestable) == KNOWN_REDUNDANT[name]


class TestPortfolioAccounting:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_no_unexplained_aborts(self, name):
        """Every fault ends detected / proved-untestable / aborted, and
        an abort names a reason from *every* portfolio member."""
        for fault, outcome in _verdicts(name, "portfolio").items():
            assert outcome.status in ("detected", "untestable", "aborted")
            if outcome.status == "aborted":
                assert outcome.reason in ("backtracks", "work")
                assert set(outcome.engine_reasons) == set(PORTFOLIO_MEMBERS)
            else:
                assert outcome.winner in PORTFOLIO_MEMBERS

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_coverage_at_least_podem(self, name):
        """Acceptance criterion: the portfolio detects a superset-sized
        fault count and proves at least as many untestable as PODEM."""
        podem = _verdicts(name, "podem")
        portfolio = _verdicts(name, "portfolio")
        podem_detected = sum(1 for o in podem.values() if o.detected)
        portfolio_detected = sum(1 for o in portfolio.values() if o.detected)
        assert portfolio_detected >= podem_detected
        podem_proved = sum(
            1 for o in podem.values() if o.status == "untestable"
        )
        portfolio_proved = sum(
            1 for o in portfolio.values() if o.status == "untestable"
        )
        assert portfolio_proved >= podem_proved

    def test_run_atpg_partitions_and_repeats_bit_identical(self):
        """Campaign-level accounting: buckets partition the universe,
        proved-untestable claims hold exhaustively, and a re-run with the
        same seed is bit-identical."""
        name = "rand8"
        netlist = _circuit(name)
        first = run_atpg(
            netlist, engine="portfolio", seed=3, backtrack_limit=256
        )
        second = run_atpg(
            netlist, engine="portfolio", seed=3, backtrack_limit=256
        )
        assert first.patterns == second.patterns
        summary_a, summary_b = first.summary(), second.summary()
        summary_a.pop("cpu_s"), summary_b.pop("cpu_s")
        assert summary_a == summary_b
        assert (
            first.detected
            + len(first.untestable)
            + len(first.aborted)
            + len(first.consistency_errors)
            == first.total_faults
        )
        _, truly_untestable = _truth(name)
        assert set(first.untestable) <= truly_untestable
        assert summary_a["proved_untestable"] == len(first.untestable)
        # Winners attribute every fault phase 2 settled (proofs plus
        # generated cubes; collateral dynamic-drop detections are credited
        # to the cube's target, not counted separately).
        assert set(first.winner_engines) <= set(PORTFOLIO_MEMBERS)
        assert sum(first.winner_engines.values()) >= len(first.untestable)

    def test_portfolio_coverage_at_least_podem_in_flow(self):
        """End-to-end run_atpg comparison on the whole conformance set."""
        for name in CIRCUIT_NAMES:
            netlist = _circuit(name)
            podem = run_atpg(netlist, engine="podem", seed=1, random_batches=2)
            portfolio = run_atpg(
                netlist, engine="portfolio", seed=1, random_batches=2
            )
            assert portfolio.fault_coverage >= podem.fault_coverage, name
            assert len(portfolio.untestable) >= len(podem.untestable), name


class TestHypothesisNetlists:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(netlist=small_netlists())
    def test_engines_agree_and_claims_hold(self, netlist):
        netlist.finalize()
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        truly_testable, truly_untestable = exhaustive_truth(netlist, faults)
        verdicts = {}
        for engine_name in ENGINE_NAMES:
            engine = make_engine(engine_name, netlist, backtrack_limit=512)
            for fault in faults:
                outcome = engine.generate(fault)
                verdicts.setdefault(fault, {})[engine_name] = outcome.status
                if outcome.status == "untestable":
                    assert fault in truly_untestable
                elif outcome.status == "detected":
                    assert fault in truly_testable
        for fault, statuses in verdicts.items():
            assert set(statuses.values()) - {"aborted"} != {
                "detected",
                "untestable",
            }


def _assert_credits_regrade(netlist, faults, result):
    """A serial re-grade of ``result.patterns`` detects every credited
    fault and no proved-untestable one."""
    regrade = FaultSimulator(netlist, cache=None).simulate(
        result.patterns, faults, engine="serial"
    )
    excluded = {*result.untestable, *result.aborted, *result.consistency_errors}
    credited = [fault for fault in faults if fault not in excluded]
    assert len(credited) == result.detected
    lost = [f.describe(netlist) for f in credited if f not in regrade.detected]
    assert not lost, f"credited but not detected by the final patterns: {lost}"
    proved = [f.describe(netlist) for f in result.untestable if f in regrade.detected]
    assert not proved, f"proved untestable but detected: {proved}"


class TestFinalPatternsEarnTheirCredits:
    """Contract 5: the whole-set re-grade ``run_atpg`` does not run."""

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    @pytest.mark.parametrize("engine_name", ["podem", "portfolio"])
    @pytest.mark.parametrize("compact", [True, False])
    @pytest.mark.parametrize("random_batches", [0, 1])
    def test_regrade_detects_every_credit(
        self, name, engine_name, compact, random_batches
    ):
        netlist = _circuit(name)
        faults = list(_universe(name))
        result = run_atpg(
            netlist,
            faults=faults,
            engine=engine_name,
            compact=compact,
            random_batches=random_batches,
            seed=2,
        )
        assert not result.consistency_errors
        _assert_credits_regrade(netlist, faults, result)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        netlist=small_netlists(),
        engine_name=st.sampled_from(["podem", "portfolio"]),
        compact=st.booleans(),
        random_batches=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_regrade_detects_every_credit_on_random_netlists(
        self, netlist, engine_name, compact, random_batches, seed
    ):
        netlist.finalize()
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        result = run_atpg(
            netlist,
            faults=faults,
            engine=engine_name,
            compact=compact,
            random_batches=random_batches,
            seed=seed,
        )
        assert not result.consistency_errors
        _assert_credits_regrade(netlist, faults, result)
