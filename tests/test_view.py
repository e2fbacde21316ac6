"""Backfill tests for the full-scan combinational view (``repro.sim.view``).

Every engine in the toolkit shares the vector ordering this class fixes:
patterns assign primary inputs then flop outputs (pseudo-PIs), responses
read PO drivers then flop D drivers (pseudo-POs).  These tests pin that
contract structurally and against the fault simulator that consumes it.
"""

from repro.circuit import benchmarks, generators
from repro.sim.faultsim import FaultSimulator
from repro.sim.view import CombinationalView


class TestCombinationalOrdering:
    def test_pure_combinational_inputs_are_pis(self):
        netlist = generators.adder(4)
        view = CombinationalView(netlist)
        assert view.input_gates == list(netlist.inputs)
        assert view.num_inputs == len(netlist.inputs)
        assert view.num_outputs == len(netlist.outputs)

    def test_output_readers_are_po_drivers(self):
        netlist = benchmarks.c17()
        view = CombinationalView(netlist)
        for reader, po in zip(view.output_readers, netlist.outputs):
            assert reader == netlist.gates[po].fanin[0]


class TestSequentialOrdering:
    def test_inputs_are_pis_then_flops(self):
        netlist = benchmarks.s27()
        view = CombinationalView(netlist)
        assert view.input_gates == list(netlist.inputs) + list(netlist.flops)
        assert view.num_inputs == len(netlist.inputs) + len(netlist.flops)

    def test_outputs_are_pos_then_flop_d_drivers(self):
        netlist = benchmarks.s27()
        view = CombinationalView(netlist)
        expected = [netlist.gates[po].fanin[0] for po in netlist.outputs]
        expected += [netlist.gates[ff].fanin[0] for ff in netlist.flops]
        assert view.output_readers == expected
        assert view.num_outputs == len(netlist.outputs) + len(netlist.flops)

    def test_names_follow_vector_order(self):
        netlist = benchmarks.s27()
        view = CombinationalView(netlist)
        gates = netlist.gates
        assert view.input_names() == [
            gates[i].name for i in view.input_gates
        ]

    def test_read_outputs_indexes_readers(self):
        netlist = benchmarks.s27()
        view = CombinationalView(netlist)
        values = list(range(len(netlist.gates)))
        assert view.read_outputs(values) == view.output_readers


class TestSimulatorConsistency:
    def test_faultsim_view_matches_standalone(self):
        for netlist in (benchmarks.s27(), generators.random_sequential(4, 40, 5, seed=1)):
            simulator = FaultSimulator(netlist)
            view = CombinationalView(netlist)
            assert simulator.view.input_gates == view.input_gates
            assert simulator.view.output_readers == view.output_readers

    def test_view_is_deterministic(self):
        netlist = generators.random_sequential(6, 50, 8, seed=404)
        first = CombinationalView(netlist)
        second = CombinationalView(netlist)
        assert first.input_gates == second.input_gates
        assert first.output_readers == second.output_readers
        assert first.input_names() == second.input_names()
