"""Fault enumeration, description, and equivalence collapsing."""

from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.faults import (
    OUTPUT_PIN,
    StuckAtFault,
    collapse_faults,
    fault_sites,
    full_fault_list,
    line_fault,
)


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
