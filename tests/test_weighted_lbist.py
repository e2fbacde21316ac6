"""COP-derived weighted-random LBIST."""

import pytest

from repro.bist.lbist import StumpsController, derive_input_weights, run_weighted_lbist
from repro.circuit import generators
from repro.circuit.builder import NetlistBuilder


class TestWeightDerivation:
    def test_wide_and_biases_inputs_high(self):
        """Detecting the wide-AND's output s-a-0 needs all-1 inputs, so
        the derived weights should pull the literals toward 1."""
        builder = NetlistBuilder()
        inputs = [builder.input(f"i{k}") for k in range(10)]
        builder.output("y", builder.and_tree(inputs))
        netlist = builder.build()
        weights = derive_input_weights(netlist)
        assert all(w > 0.5 for w in weights)

    def test_balanced_circuit_keeps_half(self):
        netlist = generators.parity_tree(8)
        weights = derive_input_weights(netlist)
        assert all(w == 0.5 for w in weights)

    def test_weight_count_matches_view(self):
        netlist = generators.mac_unit(2)
        weights = derive_input_weights(netlist)
        assert len(weights) == len(netlist.inputs) + len(netlist.flops)


class TestWeightedCoverage:
    def test_beats_uniform_on_resistant_logic(self):
        netlist = generators.wide_comparator(14)
        uniform = StumpsController(netlist).run(256).final_coverage
        weighted = run_weighted_lbist(netlist, 256, seed=2).final_coverage
        assert weighted > uniform

    def test_curve_monotone(self):
        netlist = generators.random_resistant(12, cones=2)
        result = run_weighted_lbist(netlist, 256, seed=1)
        coverages = [p["coverage"] for p in result.coverage_points]
        assert coverages == sorted(coverages)
