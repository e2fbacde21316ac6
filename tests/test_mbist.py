"""Memory BIST: March runs and the coverage matrix."""

import pytest

from repro.bist.march import (
    ALL_MARCH_TESTS,
    MARCH_C_MINUS,
    MATS,
    MATS_PLUS,
)
from repro.bist.mbist import (
    coverage_matrix,
    detects_fault,
    format_matrix,
    run_march,
)
from repro.bist.memory import Memory, MemoryFault, sample_faults


class TestRunMarch:
    @pytest.mark.parametrize("test", ALL_MARCH_TESTS, ids=lambda t: t.name)
    def test_fault_free_memory_passes(self, test):
        result = run_march(Memory(64), test)
        assert result.passed
        assert result.operations == test.complexity * 64

    def test_saf_always_detected(self):
        for value in (0, 1):
            memory = Memory(32, faults=[MemoryFault("SAF", 7, value=value)])
            result = run_march(memory, MATS_PLUS, stop_on_first=True)
            assert not result.passed
            assert result.first_failure is not None

    def test_failure_location_reported(self):
        memory = Memory(32, faults=[MemoryFault("SAF", 7, value=1)])
        result = run_march(memory, MARCH_C_MINUS, stop_on_first=True)
        assert result.first_failure["address"] == 7

    def test_failure_count_without_stop(self):
        memory = Memory(32, faults=[MemoryFault("SAF", 7, value=1)])
        result = run_march(memory, MARCH_C_MINUS, stop_on_first=False)
        assert result.failures >= 1


class TestCoverageExpectations:
    """The textbook detection claims, verified by simulation."""

    def test_march_c_minus_covers_everything(self):
        matrix = coverage_matrix(n_cells=48, samples_per_kind=30, seed=2)
        row = matrix["March C-"]
        for kind, cell in row.items():
            assert cell.rate == 1.0, f"March C- missed {kind}"

    def test_mats_misses_coupling_faults(self):
        matrix = coverage_matrix(n_cells=48, samples_per_kind=30)
        assert matrix["MATS"]["CFid"].rate < 0.5

    def test_coverage_improves_with_stronger_tests(self):
        matrix = coverage_matrix(n_cells=48, samples_per_kind=25, seed=1)

        def total(name):
            return sum(cell.detected for cell in matrix[name].values())

        assert total("MATS") <= total("MATS+") <= total("March C-")

    def test_af_detected_by_mats_plus(self):
        matrix = coverage_matrix(n_cells=48, samples_per_kind=30)
        assert matrix["MATS+"]["AF"].rate == 1.0


class TestReporting:
    def test_format_matrix(self):
        matrix = coverage_matrix(n_cells=32, samples_per_kind=10)
        text = format_matrix(matrix)
        assert "MATS" in text and "March C-" in text
        assert "SAF" in text and "TF" in text

    def test_detects_fault_helper(self):
        fault = MemoryFault("SAF", 3, value=1)
        assert detects_fault(MARCH_C_MINUS, fault, n_cells=16)
