"""The full ATPG flow: coverage, compaction, fill modes, bookkeeping."""

import random

import pytest

from repro.atpg import engine as engine_module
from repro.atpg.engine import atpg_table_row, run_atpg, x_fill
from repro.circuit import benchmarks, generators
from repro.circuit.values import X
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator


class TestFlowCoverage:
    @pytest.mark.parametrize("name", ["c17", "s27", "add8", "mul4", "par16"])
    def test_full_test_coverage(self, name):
        netlist = benchmarks.get_benchmark(name)
        result = run_atpg(netlist, seed=1)
        assert result.test_coverage == 1.0
        assert not result.consistency_errors

    def test_final_patterns_reach_reported_coverage(self, alu4):
        """Re-simulating the emitted pattern set must reproduce coverage."""
        result = run_atpg(alu4, seed=2)
        faults, _ = collapse_faults(alu4, full_fault_list(alu4))
        simulator = FaultSimulator(alu4)
        check = simulator.simulate(result.patterns, faults, drop=True)
        assert len(check.detected) >= result.detected

    def test_deterministic_given_seed(self, c17):
        a = run_atpg(c17, seed=7)
        b = run_atpg(c17, seed=7)
        assert a.patterns == b.patterns

    def test_zero_random_batches_forces_deterministic(self, c17):
        result = run_atpg(c17, random_batches=0, seed=1)
        assert result.random_pattern_count == 0
        assert result.detected_deterministic > 0
        assert result.test_coverage == 1.0
        assert len(result.cubes) > 0

    def test_compaction_preserves_coverage(self, alu4):
        compacted = run_atpg(alu4, random_batches=0, compact=True, seed=3)
        loose = run_atpg(alu4, random_batches=0, compact=False, seed=3)
        assert compacted.test_coverage == loose.test_coverage == 1.0
        assert len(compacted.patterns) <= len(loose.patterns)
        # Compacted patterns still reach full coverage when re-simulated.
        faults, _ = collapse_faults(alu4, full_fault_list(alu4))
        simulator = FaultSimulator(alu4)
        check = simulator.simulate(compacted.patterns, faults, drop=True)
        undetected_testable = [
            f for f in check.undetected if f not in set(compacted.untestable)
        ]
        assert not undetected_testable

    def test_table_row_fields(self, c17):
        result = run_atpg(c17, seed=1)
        row = atpg_table_row(c17, result)
        for key in ("circuit", "gates", "patterns", "fault_coverage"):
            assert key in row


class TestXFill:
    def test_modes(self):
        rng = random.Random(0)
        cube = [1, X, 0, X, X]
        assert x_fill(cube, rng, "zero") == [1, 0, 0, 0, 0]
        assert x_fill(cube, rng, "one") == [1, 1, 0, 1, 1]
        repeat = x_fill(cube, rng, "repeat")
        assert repeat == [1, 1, 0, 0, 0]

    def test_random_fill_specified_bits_fixed(self):
        rng = random.Random(1)
        cube = [1, X, 0]
        for _ in range(10):
            filled = x_fill(cube, rng, "random")
            assert filled[0] == 1 and filled[2] == 0
            assert filled[1] in (0, 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            x_fill([X], random.Random(0), "diagonal")

    def test_unknown_mode_rejected_without_an_x(self):
        """A bad mode is an error even when the cube has nothing to fill."""
        with pytest.raises(ValueError, match="bogus"):
            x_fill([0, 1, 1], random.Random(0), "bogus")


class TestFaultAccounting:
    def test_partition_is_exact(self, alu4):
        result = run_atpg(alu4, seed=5)
        total = (
            result.detected
            + len(result.untestable)
            + len(result.aborted)
            + len(result.consistency_errors)
        )
        assert total == result.total_faults

    def test_fault_coverage_le_test_coverage(self, alu4):
        result = run_atpg(alu4, seed=5)
        assert result.fault_coverage <= result.test_coverage

    def test_unknown_engine_fails_before_grading(self, monkeypatch):
        calls = []
        real = FaultSimulator.simulate

        def spy(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FaultSimulator, "simulate", spy)
        with pytest.raises(ValueError, match="podme"):
            run_atpg(benchmarks.get_benchmark("mac4_x4"), engine="podme")
        assert calls == []

    def test_custom_fault_list(self, c17):
        faults = full_fault_list(c17)[:8]
        result = run_atpg(c17, faults=faults, seed=1)
        assert result.total_faults == 8
        assert result.test_coverage == 1.0

    def test_verdict_lists_iterated_constant_times(self, monkeypatch):
        """The flow walks untestable/aborted/consistency_errors a fixed
        number of times, however many faults it grades — a per-fault
        rebuild of these sets once made top_off quadratic."""

        class CountingList(list):
            def __init__(self):
                super().__init__()
                self.iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        class CountingResult(engine_module.AtpgResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.untestable = CountingList()
                self.aborted = CountingList()
                self.consistency_errors = CountingList()

        monkeypatch.setattr(engine_module, "AtpgResult", CountingResult)
        netlist = benchmarks.get_benchmark("mac4_x8")
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        for count in (len(faults) // 4, len(faults)):
            result = engine_module.run_atpg(netlist, faults=faults[:count], seed=0)
            assert result.untestable  # mac4 cores carry redundant faults
            for verdicts in (
                result.untestable, result.aborted, result.consistency_errors
            ):
                assert verdicts.iterations <= 2


def _spy_after_compaction(monkeypatch, hide=None):
    """Record ``(patterns, faults)`` of every ``FaultSimulator.simulate``
    call ``run_atpg`` makes after its latest compaction; from the first
    compaction on, no call reports ``hide`` as detected."""
    calls = []
    compacted = []
    real_compact = engine_module.static_compact
    real_simulate = FaultSimulator.simulate

    def compact(cubes):
        calls.clear()
        compacted.append(True)
        return real_compact(cubes)

    def simulate(self, patterns, faults, *args, **kwargs):
        result = real_simulate(self, patterns, faults, *args, **kwargs)
        if compacted:
            calls.append((list(patterns), list(faults)))
            if hide in result.detected:
                del result.detected[hide]
                result.undetected.append(hide)
        return result

    monkeypatch.setattr(engine_module, "static_compact", compact)
    monkeypatch.setattr(FaultSimulator, "simulate", simulate)
    return calls


class TestTopOff:
    """After compaction the flow re-grades only its phase-2 credits."""

    def test_check_scales_with_phase2_credits_only(self, monkeypatch):
        calls = _spy_after_compaction(monkeypatch)
        netlist = generators.random_resistant(14, cones=3)
        random_credits = set()
        for random_batches in (0, 1, 2, 8):
            result = run_atpg(netlist, seed=2, random_batches=random_batches)
            assert not result.consistency_errors
            check_patterns, check_faults = calls[0]
            assert len(check_faults) == result.detected_deterministic
            assert len(check_patterns) == len(result.cubes)
            random_credits.add(result.detected_random)
        assert len(random_credits) == 4

    def test_lost_credit_is_reported_not_counted(self, monkeypatch):
        """A phase-2 credit no pattern detects after compaction — not even
        the fill that earned it — becomes a consistency error."""
        netlist = generators.alu(4)
        honest = run_atpg(netlist, seed=3, random_batches=0)
        assert honest.detected_random == 0 and not honest.consistency_errors
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        settled = {*honest.untestable, *honest.aborted}
        lost = next(f for f in faults if f not in settled)
        _spy_after_compaction(monkeypatch, hide=lost)
        result = run_atpg(netlist, seed=3, random_batches=0)
        assert result.consistency_errors == [lost]
        assert result.detected == honest.detected - 1
        assert result.summary()["consistency_errors"] == 1
        assert (
            result.detected + len(result.untestable) + len(result.aborted) + 1
            == result.total_faults
        )


class TestEngineFlow:
    """The --engine axis through the full campaign flow."""

    @pytest.mark.parametrize("engine", ["podem", "dalg", "guided", "portfolio"])
    def test_full_test_coverage_any_engine(self, alu4, engine):
        result = run_atpg(alu4, seed=1, engine=engine)
        assert result.test_coverage == 1.0
        summary = result.summary()
        assert summary["engine"] == engine
        assert summary["proved_untestable"] == len(result.untestable)

    def test_portfolio_summary_records_winners(self, alu4):
        result = run_atpg(alu4, seed=1, engine="portfolio")
        summary = result.summary()
        assert "winner_engine" in summary
        assert set(summary["winner_engine"]) <= {"podem", "guided", "dalg"}
        assert sum(summary["winner_engine"].values()) >= len(result.untestable)

    def test_unknown_engine_rejected(self, c17):
        with pytest.raises(ValueError, match="engine"):
            run_atpg(c17, engine="quantum")
