"""D-algorithm engine: detection parity with PODEM, real untestability
proofs, frontier/mux propagation paths, and budget accounting."""

import random

import pytest

from repro.atpg.dalg import DAlgorithm
from repro.atpg.guided import GuidedPodem
from repro.atpg.podem import Podem
from repro.atpg.engine import x_fill
from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.faults.collapse import collapse_faults
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import exhaustive_truth


def _confirm(netlist, fault, cube, seed=0):
    simulator = FaultSimulator(netlist)
    rng = random.Random(seed)
    for mode in ("zero", "one", "random"):
        pattern = x_fill(cube, rng, mode)
        result = simulator.simulate([pattern], [fault], drop=True)
        assert fault in result.detected, f"{mode}-fill missed {fault}"


class TestDetection:
    def test_c17_all_faults(self, c17):
        dalg = DAlgorithm(c17)
        for fault in full_fault_list(c17):
            outcome = dalg.generate(fault)
            assert outcome.detected, fault.describe(c17)
            _confirm(c17, fault, outcome.cube)

    def test_mux_paths(self, tiny_mux):
        dalg = DAlgorithm(tiny_mux)
        for fault in full_fault_list(tiny_mux):
            outcome = dalg.generate(fault)
            if outcome.detected:
                _confirm(tiny_mux, fault, outcome.cube)
            else:
                assert outcome.status == "untestable"

    def test_sequential_full_scan_view(self, mac4):
        dalg = DAlgorithm(mac4, backtrack_limit=512)
        faults, _ = collapse_faults(mac4, full_fault_list(mac4))
        sample = faults[:: max(1, len(faults) // 40)]
        for fault in sample:
            outcome = dalg.generate(fault)
            if outcome.detected:
                _confirm(mac4, fault, outcome.cube, seed=5)

    def test_branch_into_output_detected(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        builder.output("y1", a)
        builder.output("y2", a)
        netlist = builder.build()
        dalg = DAlgorithm(netlist)
        y1 = netlist.index_of("y1")
        fault = StuckAtFault(y1, 0, 1)
        outcome = dalg.generate(fault)
        assert outcome.detected
        _confirm(netlist, fault, outcome.cube)


class TestUntestabilityProofs:
    def test_redundant_fault_proved(self):
        """y = OR(a, NOT(a)) is constant 1: s-a-1 on y is untestable."""
        builder = NetlistBuilder()
        a = builder.input("a")
        g = builder.or_(a, builder.not_(a))
        builder.output("y", g)
        netlist = builder.build()
        dalg = DAlgorithm(netlist)
        outcome = dalg.generate(StuckAtFault(g, OUTPUT_PIN, 1))
        assert outcome.status == "untestable"
        outcome = dalg.generate(StuckAtFault(g, OUTPUT_PIN, 0))
        assert outcome.detected

    def test_unobservable_fault_proved(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        dangling = builder.not_(a)
        builder.output("y", builder.buf(a))
        netlist = builder.build()
        dalg = DAlgorithm(netlist)
        outcome = dalg.generate(StuckAtFault(dangling, OUTPUT_PIN, 0))
        assert outcome.status == "untestable"
        assert outcome.backtracks == 0  # rejected by the cone check

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: generators.random_circuit(5, 25, seed=101),
            lambda: generators.random_circuit(8, 60, seed=202),
            lambda: generators.adder(4),
            lambda: generators.mac_unit(2),
        ],
    )
    def test_verdicts_match_exhaustive_truth(self, factory):
        """Every fault settles, and every verdict matches ground truth —
        the property PODEM's budgeted search cannot offer."""
        netlist = factory()
        netlist.finalize()
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        testable, untestable = exhaustive_truth(netlist, faults)
        dalg = DAlgorithm(netlist, backtrack_limit=4096)
        for fault in faults:
            outcome = dalg.generate(fault)
            if outcome.status == "untestable":
                assert fault in untestable, fault.describe(netlist)
            else:
                assert outcome.detected, fault.describe(netlist)
                assert fault in testable, fault.describe(netlist)

    def test_settles_faults_podem_aborts(self):
        """On the random-resistant circuit the D-algorithm concludes
        (detects or proves) faults PODEM aborts on at the same budget."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=8)
        dalg = DAlgorithm(netlist, backtrack_limit=8 * 4)
        podem_aborts = [
            f for f in faults if podem.generate(f).status == "aborted"
        ]
        assert podem_aborts, "fixture no longer stresses PODEM"
        settled = [
            f for f in podem_aborts if dalg.generate(f).status != "aborted"
        ]
        assert settled, "D-algorithm settled none of PODEM's aborts"


class TestBudgets:
    def test_backtrack_limit_aborts_with_reason(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        dalg = DAlgorithm(netlist, backtrack_limit=0)
        outcomes = [dalg.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "backtracks" for o in aborted)

    def test_work_budget_reports_work(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        dalg = DAlgorithm(netlist, backtrack_limit=10**6, work_budget=200)
        outcomes = [dalg.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "work" for o in aborted)
        fault, outcome = next(
            (f, o) for f, o in zip(faults, outcomes) if o.detected
        )
        _confirm(netlist, fault, outcome.cube)

    def test_first_tripped_budget_is_work(self):
        """Both budgets at zero: the work check comes first in each search
        step, so "work" must win (same contract as PODEM's)."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        dalg = DAlgorithm(netlist, backtrack_limit=0, work_budget=0)
        outcomes = [dalg.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "work" for o in aborted)

    def test_deterministic(self, adder4):
        first = DAlgorithm(adder4)
        second = DAlgorithm(adder4)
        for fault in full_fault_list(adder4):
            a = first.generate(fault)
            b = second.generate(fault)
            assert (a.status, a.cube, a.backtracks) == (
                b.status,
                b.cube,
                b.backtracks,
            )


class TestGuidedPodem:
    def test_c17_all_faults(self, c17):
        guided = GuidedPodem(c17)
        for fault in full_fault_list(c17):
            outcome = guided.generate(fault)
            assert outcome.detected, fault.describe(c17)
            _confirm(c17, fault, outcome.cube)

    def test_untestable_from_slice_is_final(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        g = builder.or_(a, builder.not_(a))
        builder.output("y", g)
        netlist = builder.build()
        guided = GuidedPodem(netlist)
        outcome = guided.generate(StuckAtFault(g, OUTPUT_PIN, 1))
        assert outcome.status == "untestable"

    def test_restart_slices_accumulate_backtracks(self):
        from repro.atpg.guided import _budget_slices

        assert sum(_budget_slices(64)) == 64
        assert all(s >= 1 for s in _budget_slices(2))

    def test_deterministic(self, adder4):
        first = GuidedPodem(adder4)
        second = GuidedPodem(adder4)
        for fault in full_fault_list(adder4):
            a = first.generate(fault)
            b = second.generate(fault)
            assert (a.status, a.cube) == (b.status, b.cube)
