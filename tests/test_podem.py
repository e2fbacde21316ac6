"""PODEM test generation: every cube must be confirmed by fault simulation."""

import random
import time

import pytest

from repro.atpg.dalg import DAlgorithm
from repro.atpg.guided import GuidedPodem
from repro.atpg.portfolio import PortfolioAtpg, make_engine
from repro.atpg.engine import x_fill
from repro.atpg.podem import Podem
from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.values import X
from repro.faults.collapse import collapse_faults
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.stuck_at import full_fault_list
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


class TestWorkBudget:
    """``work_budget`` caps the gates one ``generate`` call re-implies."""

    @pytest.mark.parametrize("engine_class", [Podem, GuidedPodem, DAlgorithm])
    def test_zero_budget_aborts_every_search(self, engine_class):
        """Each search past the cone check re-implies at least one gate,
        so a zero budget aborts it before the first decision."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        engine = engine_class(netlist, backtrack_limit=10**6, work_budget=0)
        for fault in faults:
            outcome = engine.generate(fault)
            if outcome.backtracks == 0 and outcome.status == "untestable":
                continue  # rejected by the cone check, before any work
            assert (outcome.status, outcome.reason) == ("aborted", "work")

    def test_work_budget_aborts_with_reason(self):
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=10**6, work_budget=200)
        outcomes = [podem.generate(f) for f in faults]
        aborted = [o for o in outcomes if o.status == "aborted"]
        assert aborted and all(o.reason == "work" for o in aborted)
        # A detected cube from a budgeted search is still a real test.
        detected = [(f, o) for f, o in zip(faults, outcomes) if o.detected]
        assert detected
        for fault, outcome in detected[:5]:
            _confirm(netlist, fault, outcome.cube)

    def test_first_tripped_budget_wins(self):
        """The work check comes first in each search step, so with both
        budgets at zero it names the abort; with work to spare, the
        backtrack limit does."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        for work_budget, reason in ((0, "work"), (10**9, "backtracks")):
            podem = Podem(netlist, backtrack_limit=0, work_budget=work_budget)
            outcomes = [podem.generate(f) for f in faults]
            aborted = [o for o in outcomes if o.status == "aborted"]
            assert aborted and all(o.reason == reason for o in aborted)

    def test_guided_tally_spans_restart_slices(self):
        """A guided search's budget covers all its restart slices together:
        a budget that fits every slice alone still trips on their sum."""
        from repro.atpg.guided import _budget_slices

        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        unlimited = GuidedPodem(netlist, backtrack_limit=1)
        for fault in faults:
            if unlimited.generate(fault).status == "aborted":
                break
        else:
            pytest.fail("no fault ran every restart slice")
        per_slice = []
        for rotation, slice_limit in enumerate(_budget_slices(1)):
            unlimited._rotation, unlimited._implications = rotation, 0
            unlimited._search(fault, slice_limit)
            per_slice.append(unlimited._implications)
        budgeted = GuidedPodem(netlist, backtrack_limit=1, work_budget=max(per_slice))
        outcome = budgeted.generate(fault)
        assert (outcome.status, outcome.reason) == ("aborted", "work")

    @pytest.mark.parametrize("capped", [False, True])
    def test_no_binding_budget_is_unchanged(self, capped):
        """None, or a budget no search's tally exceeds, changes nothing."""
        netlist = generators.random_resistant(14, cones=3)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        free = PortfolioAtpg(netlist, backtrack_limit=4)
        expected, largest = [], 0
        for fault in faults:
            expected.append(free.generate(fault))
            largest = max(largest, *(e._implications for _, e in free.engines))
        assert any(o.status == "aborted" for o in expected)
        budgeted = PortfolioAtpg(
            netlist, backtrack_limit=4, work_budget=largest if capped else None
        )
        assert [budgeted.generate(f) for f in faults] == expected

    @pytest.mark.parametrize("bad", [-1, 1.5, 10.0, True, float("nan")])
    def test_bad_budget_rejected(self, c17, bad):
        with pytest.raises(ValueError, match="work_budget"):
            Podem(c17, work_budget=bad)
        with pytest.raises(ValueError, match="work_budget"):
            make_engine("portfolio", c17, work_budget=bad)

    def test_verdicts_ignore_a_slow_clock(self, monkeypatch):
        """The same budget gives the same verdicts, cubes and reasons on a
        host 100x slower: nothing in a search reads the clock."""
        netlist = benchmarks.get_benchmark("rres12")
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))

        def verdicts():
            portfolio = PortfolioAtpg(netlist, work_budget=2000)
            return [portfolio.generate(fault) for fault in faults]

        fast = verdicts()
        real = time.perf_counter
        origin = real()
        monkeypatch.setattr(
            time, "perf_counter", lambda: origin + 100 * (real() - origin)
        )
        slow = verdicts()
        assert slow == fast
        reasons = {o.reason for o in fast if o.status == "aborted"}
        assert reasons == {"work"}
        assert any(o.detected for o in fast)

    def test_run_atpg_counts_work_aborts(self):
        from repro.atpg.engine import run_atpg

        netlist = generators.random_resistant(14, cones=3)
        result = run_atpg(
            netlist, random_batches=2, work_budget=0, compact=False
        )
        summary = result.summary()
        assert result.aborted
        assert result.engine_abort_reasons == {
            "podem": {"work": len(result.aborted)}
        }
        assert summary["engine_abort_reasons"] == result.engine_abort_reasons
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
