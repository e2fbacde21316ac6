"""Scan shift-power metrics and fill-policy comparison."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.scan.insertion import insert_scan
from repro.scan.power import (
    fill_policy_comparison,
    pattern_set_power,
    pattern_shift_power,
    weighted_transition_metric,
)


class TestWtm:
    def test_constant_load_is_free(self):
        assert weighted_transition_metric([0, 0, 0, 0]) == 0
        assert weighted_transition_metric([1, 1, 1]) == 0

    def test_alternating_is_worst(self):
        length = 6
        worst = weighted_transition_metric([0, 1] * 3)
        assert worst == sum(length - p - 1 for p in range(length - 1))

    def test_early_transition_weighs_more(self):
        early = weighted_transition_metric([0, 1, 1, 1])
        late = weighted_transition_metric([0, 0, 0, 1])
        assert early > late

    def test_single_bit(self):
        assert weighted_transition_metric([1]) == 0


class TestPatternSetPower:
    @pytest.fixture(scope="class")
    def design(self):
        netlist = generators.random_sequential(6, 100, 24, seed=4)
        return insert_scan(netlist, n_chains=3)

    def test_report_fields(self, design):
        n_inputs = len(design.netlist.inputs) + len(design.netlist.flops)
        patterns = [[0] * n_inputs, [1] * n_inputs]
        report = pattern_set_power(design, patterns)
        assert report.patterns == 2
        assert report.total_wtm == 0  # constant loads

    def test_alternating_state_costs(self, design):
        n_pi = len(design.netlist.inputs)
        state = [i % 2 for i in range(len(design.netlist.flops))]
        pattern = [0] * n_pi + state
        report = pattern_set_power(design, [pattern])
        assert report.total_wtm > 0
        assert report.peak_wtm == report.total_wtm

    def test_adjacent_fill_cuts_power(self, design):
        """The classic low-power-fill result: repeat-fill WTM is a
        fraction of random-fill WTM at identical coverage."""
        from repro.faults.collapse import collapse_faults
        from repro.faults.stuck_at import full_fault_list
        from repro.scan.insertion import partition_faults

        faults, _ = collapse_faults(
            design.netlist, full_fault_list(design.netlist)
        )
        capture, _ = partition_faults(design, faults)
        atpg = run_atpg(
            design.netlist, faults=capture, random_batches=0, compact=False, seed=2
        )
        reports = fill_policy_comparison(design, atpg.cubes, seed=1)
        assert reports["repeat"].total_wtm < reports["random"].total_wtm
        # Zero-fill also beats random (all-X runs become constants).
        assert reports["zero"].total_wtm < reports["random"].total_wtm
        # Chain-aware adjacent fill wins overall.
        assert (
            reports["adjacent_chain"].total_wtm
            <= min(r.total_wtm for m, r in reports.items() if m != "adjacent_chain")
        )
