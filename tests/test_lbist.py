"""Logic BIST (STUMPS) behaviour."""

import pytest

from repro.bist.lbist import LbistConfig, StumpsController, coverage_curve
from repro.circuit import benchmarks, generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list


class TestPatternGeneration:
    def test_deterministic_stream(self, alu4):
        a = StumpsController(alu4).generate_patterns(10)
        b = StumpsController(alu4).generate_patterns(10)
        assert a == b

    def test_pattern_width(self, alu4):
        controller = StumpsController(alu4)
        patterns = controller.generate_patterns(5)
        assert all(len(p) == controller.simulator.view.num_inputs for p in patterns)

    def test_streams_advance(self, alu4):
        controller = StumpsController(alu4)
        first = controller.generate_patterns(5)
        second = controller.generate_patterns(5)
        assert first != second


class TestConfigValidation:
    """Bad geometry is refused before any pattern is graded."""

    @pytest.mark.parametrize("length", [3, 10, 64])
    def test_prpg_length_without_primitive_polynomial(self, alu4, length):
        with pytest.raises(ValueError, match="prpg_length"):
            StumpsController(alu4, LbistConfig(prpg_length=length))

    @pytest.mark.parametrize("length", [3, 10, 64])
    def test_misr_length_without_primitive_polynomial(self, alu4, length):
        with pytest.raises(ValueError, match="misr_length"):
            StumpsController(alu4, LbistConfig(misr_length=length))

    @pytest.mark.parametrize("taps", [0, -1])
    def test_phase_taps_below_one(self, alu4, taps):
        with pytest.raises(ValueError, match="phase_taps"):
            StumpsController(alu4, LbistConfig(phase_taps=taps))


class TestCoverage:
    def test_curve_is_monotone(self, alu4):
        points = coverage_curve(alu4, 256, checkpoint_every=64)
        coverages = [p["coverage"] for p in points]
        assert coverages == sorted(coverages)
        assert coverages[-1] > 0.85

    def test_random_resistant_circuit_saturates_low(self):
        netlist = generators.random_resistant(14, cones=3)
        result = StumpsController(netlist).run(512)
        # The wide-AND cones stay undetected by pure pseudo-random patterns.
        assert result.final_coverage < 0.999
        assert result.undetected

    def test_easy_circuit_saturates_high(self):
        netlist = generators.parity_tree(12)
        result = StumpsController(netlist).run(256)
        assert result.final_coverage == 1.0


class TestSignature:
    def test_signature_reproducible(self, alu4):
        a = StumpsController(alu4).run(128)
        b = StumpsController(alu4).run(128)
        assert a.signature == b.signature

    def test_signature_depends_on_seed(self, alu4):
        a = StumpsController(alu4, LbistConfig(seed=1)).run(128)
        b = StumpsController(alu4, LbistConfig(seed=2)).run(128)
        assert a.signature != b.signature

    def test_custom_fault_list(self, alu4):
        faults, _ = collapse_faults(alu4, full_fault_list(alu4))
        result = StumpsController(alu4).run(64, faults=faults[:20])
        assert result.total_faults == 20
