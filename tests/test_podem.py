"""PODEM test generation: every cube must be confirmed by fault simulation."""

import random

import pytest

from repro.atpg.engine import x_fill
from repro.atpg.podem import Podem
from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.values import X
from repro.faults import OUTPUT_PIN, StuckAtFault, collapse_faults, full_fault_list
from repro.sim.faultsim import FaultSimulator


def _confirm(netlist, fault, cube, seed=0):
    """X-fill the cube several ways; each fill must detect the fault."""
    simulator = FaultSimulator(netlist)
    rng = random.Random(seed)
    for mode in ("zero", "one", "random"):
        pattern = x_fill(cube, rng, mode)
        result = simulator.simulate([pattern], [fault], drop=True)
        assert fault in result.detected, f"{mode}-fill missed {fault}"


class TestDetection:
    def test_c17_all_faults(self, c17):
        podem = Podem(c17)
        for fault in full_fault_list(c17):
            outcome = podem.generate(fault)
            assert outcome.detected, fault.describe(c17)
            _confirm(c17, fault, outcome.cube)

    def test_adder_collapsed_universe(self, adder4):
        podem = Podem(adder4)
        faults, _ = collapse_faults(adder4, full_fault_list(adder4))
        detected = 0
        for fault in faults:
            outcome = podem.generate(fault)
            if outcome.detected:
                detected += 1
                _confirm(adder4, fault, outcome.cube, seed=11)
            else:
                assert outcome.status in ("untestable", "aborted")
        assert detected / len(faults) > 0.9

    def test_sequential_full_scan_view(self, mac4):
        podem = Podem(mac4)
        faults, _ = collapse_faults(mac4, full_fault_list(mac4))
        sample = faults[:: max(1, len(faults) // 40)]
        for fault in sample:
            outcome = podem.generate(fault)
            if outcome.detected:
                _confirm(mac4, fault, outcome.cube, seed=5)

    def test_mux_paths(self, tiny_mux):
        podem = Podem(tiny_mux)
        for fault in full_fault_list(tiny_mux):
            outcome = podem.generate(fault)
            if outcome.detected:
                _confirm(tiny_mux, fault, outcome.cube)

    def test_cube_leaves_dont_cares(self, c17):
        """PODEM cubes should not be fully specified on easy faults."""
        podem = Podem(c17)
        cubes = [
            podem.generate(fault).cube
            for fault in full_fault_list(c17)
        ]
        x_counts = [sum(1 for v in cube if v == X) for cube in cubes if cube]
        assert any(count > 0 for count in x_counts)


class TestUntestable:
    def test_redundant_fault_proved(self):
        """y = OR(a, NOT(a)) is constant 1: s-a-1 on y is untestable."""
        builder = NetlistBuilder()
        a = builder.input("a")
        g = builder.or_(a, builder.not_(a))
        builder.output("y", g)
        netlist = builder.build()
        podem = Podem(netlist)
        outcome = podem.generate(StuckAtFault(g, OUTPUT_PIN, 1))
        assert outcome.status == "untestable"
        # The complementary fault is trivially testable.
        outcome = podem.generate(StuckAtFault(g, OUTPUT_PIN, 0))
        assert outcome.detected

    def test_unobservable_fault_proved(self):
        """A gate with no path to any output is untestable immediately."""
        builder = NetlistBuilder()
        a = builder.input("a")
        dangling = builder.not_(a)
        builder.output("y", builder.buf(a))
        netlist = builder.build()
        podem = Podem(netlist)
        outcome = podem.generate(StuckAtFault(dangling, OUTPUT_PIN, 0))
        assert outcome.status == "untestable"
        assert outcome.backtracks == 0  # rejected by the cone check

    def test_backtrack_limit_aborts(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=1)
        outcomes = [podem.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "backtracks" for o in aborted)


class TestTimeBudget:
    def test_time_budget_aborts_with_reason(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=10**6, time_budget_s=1e-7)
        outcomes = [podem.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "time" for o in aborted)
        # A detected cube from a budgeted search is still a real test.
        for fault, outcome in zip(faults, outcomes):
            if outcome.detected:
                _confirm(netlist, fault, outcome.cube)
                break

    def test_first_tripped_budget_wins(self):
        """Both budgets exhausted in the same search step: the abort must
        name the budget that tripped *first*.  An expired wall clock beats
        the backtrack counter; with wall clock to spare, the backtrack
        limit is the tripped budget."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        both_zero = Podem(netlist, backtrack_limit=0, time_budget_s=0.0)
        outcomes = [both_zero.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "time" for o in aborted)
        clock_to_spare = Podem(
            netlist, backtrack_limit=0, time_budget_s=3600.0
        )
        outcomes = [clock_to_spare.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "backtracks" for o in aborted)

    def test_abort_reason_unit(self, c17):
        import time

        podem = Podem(c17)
        assert podem._abort_reason(None) == "backtracks"
        assert podem._abort_reason(time.perf_counter() - 1.0) == "time"
        assert podem._abort_reason(time.perf_counter() + 60.0) == "backtracks"

    def test_no_budget_is_unchanged(self, c17):
        with_budget = Podem(c17, time_budget_s=3600.0)
        without = Podem(c17)
        for fault in full_fault_list(c17):
            assert with_budget.generate(fault).cube == without.generate(fault).cube

    def test_negative_budget_rejected(self, c17):
        with pytest.raises(ValueError, match="time_budget_s"):
            Podem(c17, time_budget_s=-1.0)
        # A NaN budget would make every deadline comparison false.
        with pytest.raises(ValueError, match="time_budget_s"):
            Podem(c17, time_budget_s=float("nan"))

    def test_run_atpg_counts_timeouts_separately(self):
        from repro.atpg.engine import run_atpg

        netlist = generators.random_resistant(14, cones=3)
        result = run_atpg(
            netlist, random_batches=2, podem_time_budget_s=1e-7, compact=False
        )
        summary = result.summary()
        if result.abort_reasons.get("time"):
            assert summary["aborted_timeout"] == result.abort_reasons["time"]
            assert summary["aborted"] >= summary["aborted_timeout"]
        # Aborted faults stay in the coverage denominator: not untestable.
        assert result.total_faults >= len(result.untestable) + result.detected


class TestBranchFaults:
    def test_branch_into_output_detected(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        builder.output("y1", a)
        builder.output("y2", a)
        netlist = builder.build()
        podem = Podem(netlist)
        # Branch fault on y1's input pin (a fans out to two outputs).
        y1 = netlist.index_of("y1")
        fault = StuckAtFault(y1, 0, 1)
        outcome = podem.generate(fault)
        assert outcome.detected
        _confirm(netlist, fault, outcome.cube)

    def test_branch_into_flop_detected(self, mac4):
        podem = Podem(mac4)
        branch_faults = [
            f
            for f in full_fault_list(mac4)
            if f.pin != OUTPUT_PIN and mac4.gates[f.gate].is_sequential
        ]
        for fault in branch_faults[:6]:
            outcome = podem.generate(fault)
            if outcome.detected:
                _confirm(mac4, fault, outcome.cube)
