"""Fault enumeration, description, and equivalence collapsing."""

from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.faults.collapse import collapse_faults, line_fault
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.stuck_at import fault_sites, full_fault_list


class TestEnumeration:
    def test_c17_uncollapsed_count(self, c17):
        faults = full_fault_list(c17)
        # Every line twice; c17 has 11 stems (5 PI + 6 gates) and branch
        # sites where stems fan out.
        assert len(faults) % 2 == 0
        assert len(faults) >= 22

    def test_branch_sites_only_on_fanout_stems(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        g1 = builder.not_(a)
        builder.output("y", g1)
        netlist = builder.build()
        sites = fault_sites(netlist)
        # No fanout > 1 anywhere: only stems.
        assert all(pin == OUTPUT_PIN for _, pin in sites)

    def test_fanout_creates_branches(self):
        builder = NetlistBuilder()
        a = builder.input("a")
        g1 = builder.not_(a)
        g2 = builder.buf(a)
        builder.output("y1", g1)
        builder.output("y2", g2)
        netlist = builder.build()
        sites = fault_sites(netlist)
        branches = [(g, p) for g, p in sites if p != OUTPUT_PIN]
        assert len(branches) == 2  # a branches into NOT and BUF

    def test_describe(self, c17):
        fault = StuckAtFault(c17.index_of("10"), OUTPUT_PIN, 0)
        assert "s-a-0" in fault.describe(c17)


class TestFaultValue:
    """Reports and the e2e digests print faults, and every layer sorts and
    hashes them: the repr, order and hash stay the field tuple's."""

    def test_repr(self):
        assert repr(StuckAtFault(7, OUTPUT_PIN, 1)) == (
            "StuckAtFault(gate=7, pin=-1, value=1)"
        )
        assert repr([StuckAtFault(2, 0, 0)]) == "[StuckAtFault(gate=2, pin=0, value=0)]"

    def test_sorts_by_gate_pin_value(self):
        faults = [
            StuckAtFault(3, 0, 0),
            StuckAtFault(1, 2, 1),
            StuckAtFault(1, OUTPUT_PIN, 1),
            StuckAtFault(1, 2, 0),
        ]
        assert sorted(faults) == [
            StuckAtFault(1, OUTPUT_PIN, 1),
            StuckAtFault(1, 2, 0),
            StuckAtFault(1, 2, 1),
            StuckAtFault(3, 0, 0),
        ]

    def test_hashable_value(self):
        fault = StuckAtFault(4, 1, 0)
        assert fault == StuckAtFault(4, 1, 0)
        assert fault != StuckAtFault(4, 1, 1)
        assert hash(fault) == hash(StuckAtFault(4, 1, 0))
        assert {fault: 1}[StuckAtFault(4, 1, 0)] == 1
        assert len({fault, StuckAtFault(4, 1, 0), StuckAtFault(4, 0, 0)}) == 2
        assert (fault.gate, fault.pin, fault.value) == (4, 1, 0)


class TestCollapsing:
    def test_collapse_reduces(self, c17):
        faults = full_fault_list(c17)
        collapsed, mapping = collapse_faults(c17, faults)
        assert len(collapsed) < len(faults)
        assert 0.2 < 1 - len(collapsed) / len(faults) < 0.8

    def test_mapping_is_onto_representatives(self, c17):
        faults = full_fault_list(c17)
        collapsed, mapping = collapse_faults(c17, faults)
        reps = set(collapsed)
        assert set(mapping.values()) <= reps
        assert all(fault in mapping for fault in faults)

    def test_representative_maps_to_itself(self, c17):
        faults = full_fault_list(c17)
        collapsed, mapping = collapse_faults(c17, faults)
        for rep in collapsed:
            assert mapping[rep] == rep

    def test_not_gate_rule(self):
        # NOT: in s-a-0 == out s-a-1.
        builder = NetlistBuilder()
        a = builder.input("a")
        inv = builder.not_(a)
        builder.output("y", inv)
        netlist = builder.build()
        faults = full_fault_list(netlist)
        collapsed, mapping = collapse_faults(netlist, faults)
        in_sa0 = line_fault(netlist, inv, 0, 0)
        out_sa1 = StuckAtFault(inv, OUTPUT_PIN, 1)
        assert mapping[in_sa0] == mapping[out_sa1]

    def test_and_gate_rule(self):
        # AND: any input s-a-0 == output s-a-0.
        builder = NetlistBuilder()
        a, b = builder.input("a"), builder.input("b")
        g = builder.and_(a, b)
        builder.output("y", g)
        netlist = builder.build()
        faults = full_fault_list(netlist)
        _, mapping = collapse_faults(netlist, faults)
        out_sa0 = StuckAtFault(g, OUTPUT_PIN, 0)
        a_sa0 = line_fault(netlist, g, 0, 0)
        b_sa0 = line_fault(netlist, g, 1, 0)
        assert mapping[a_sa0] == mapping[out_sa0] == mapping[b_sa0]

    def test_collapsed_equivalence_is_semantic(self, c17):
        """Equivalent faults must be detected by identical pattern sets."""
        from repro.atpg.random_gen import exhaustive_patterns
        from repro.sim.faultsim import FaultSimulator

        faults = full_fault_list(c17)
        _, mapping = collapse_faults(c17, faults)
        simulator = FaultSimulator(c17)
        patterns = exhaustive_patterns(5)
        signatures = {}
        for fault in faults:
            result = simulator.simulate(patterns, [fault], drop=False)
            detecting = frozenset(
                index
                for index in range(len(patterns))
                if simulator.simulate([patterns[index]], [fault], drop=True).detected
            )
            signatures[fault] = detecting
        classes = {}
        for fault, rep in mapping.items():
            classes.setdefault(rep, []).append(fault)
        for rep, members in classes.items():
            reference = signatures[members[0]]
            for member in members[1:]:
                assert signatures[member] == reference, (
                    f"{member.describe(c17)} not equivalent to "
                    f"{members[0].describe(c17)}"
                )
