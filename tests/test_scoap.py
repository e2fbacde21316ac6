"""SCOAP testability measures."""

from repro.atpg.scoap import INFINITY, compute_testability
from repro.circuit import generators
from repro.circuit.builder import NetlistBuilder


class TestControllability:
    def test_primary_inputs_cost_one(self, c17):
        measures = compute_testability(c17)
        for pi in c17.inputs:
            assert measures.cc0[pi] == 1
            assert measures.cc1[pi] == 1

    def test_and_asymmetry(self):
        """AND output: setting 1 needs all inputs, setting 0 needs one."""
        builder = NetlistBuilder()
        inputs = [builder.input(f"i{k}") for k in range(4)]
        g = builder.and_(*inputs)
        builder.output("y", g)
        netlist = builder.build()
        measures = compute_testability(netlist)
        assert measures.cc1[g] == 4 + 1
        assert measures.cc0[g] == 1 + 1

    def test_wide_and_is_hard_to_set(self):
        netlist = generators.wide_comparator(12)
        measures = compute_testability(netlist)
        eq = netlist.gates[netlist.outputs[0]].fanin[0]
        assert measures.cc1[eq] > 10

    def test_constants(self):
        builder = NetlistBuilder()
        c0 = builder.const0()
        c1 = builder.const1()
        builder.output("y", builder.or_(c0, c1))
        netlist = builder.build()
        measures = compute_testability(netlist)
        assert measures.cc0[c0] == 0
        assert measures.cc1[c0] >= INFINITY  # cannot make a const0 be 1
        assert measures.cc1[c1] == 0

    def test_xor_parity_dp(self):
        builder = NetlistBuilder()
        a, b = builder.input("a"), builder.input("b")
        g = builder.xor(a, b)
        builder.output("y", g)
        netlist = builder.build()
        measures = compute_testability(netlist)
        # Either parity of a 2-input XOR costs two input assignments + 1.
        assert measures.cc0[g] == 3
        assert measures.cc1[g] == 3

    def test_mux_controllability(self, tiny_mux):
        measures = compute_testability(tiny_mux)
        y = tiny_mux.gates[tiny_mux.outputs[0]].fanin[0]
        assert measures.cc0[y] < INFINITY
        assert measures.cc1[y] < INFINITY


class TestObservability:
    def test_po_driver_is_free(self, c17):
        measures = compute_testability(c17)
        for po in c17.outputs:
            assert measures.co[c17.gates[po].fanin[0]] == 0

    def test_flop_d_is_observable(self, mac4):
        measures = compute_testability(mac4)
        for flop in mac4.flops:
            d_driver = mac4.gates[flop].fanin[0]
            assert measures.co[d_driver] == 0

    def test_deep_lines_harder_to_observe(self):
        netlist = generators.chain_of_inverters(10)
        measures = compute_testability(netlist)
        pi = netlist.inputs[0]
        last = netlist.gates[netlist.outputs[0]].fanin[0]
        assert measures.co[pi] > measures.co[last]

