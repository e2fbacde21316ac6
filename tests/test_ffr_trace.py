"""Critical-path tracing over fanout-free regions (``repro.sim.faultsim``).

PPSFP grades a stuck-at fault by evaluating its effect up the region's
tree path and ANDing it with ``obs(root)``, one shared cone propagation
per region root and chunk.  Three contracts:

* **Exactness** — the traced detection word equals the full-cone
  reference, the fault's own propagation read out at every reader, for
  every collapsed fault plus branch faults on every PO marker and flop D
  pin, at widths 1/7/64/100.
* **Determinism** — the ``obs(root)`` memo lives for one chunk of one
  grade, so grading the same patterns again reports the same work.
* **One table per netlist** — every simulator on a netlist shares its
  compiled region table, and an edit to the netlist rebuilds it.

Every traced netlist first passes the table oracle: the whole
:class:`~repro.circuit.compiled.CompiledNetlist` (schedule, readers,
successor keys, observation flags and fanout-free regions) is checked
against its definition.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.builder import NetlistBuilder
from repro.circuit.compiled import compiled
from repro.circuit.gates import GateType
from repro.faults import collapse_faults, full_fault_list
from repro.faults.model import StuckAtFault
from repro.scan.insertion import insert_scan
from repro.sim.faultsim import FaultSimulator
from repro.sim.view import CombinationalView

from tests.oracle_util import small_netlists
from tests.test_conformance import CIRCUIT_NAMES, _circuit, _universe

WIDTHS = (1, 7, 64, 100)


def _shapes():
    """MUX selects and XOR side inputs inside regions, drivers read on two
    pins, and regions rooted at a PO reader and at a flop D reader."""
    b = NetlistBuilder()
    x = [b.input(f"x{k}") for k in range(5)]
    state = b.dff(x[0], name="s0")
    twice = b.and_(x[1], x[1])
    select = b.not_(x[2])
    picked = b.mux(select, twice, b.xor(x[3], state))
    same_pins = b.mux(x[4], x[4], picked)
    parity = b.xnor(same_pins, b.xor(x[0], x[0]))
    b.output("y0", b.nand(parity, x[3]))
    b.output("y1", b.buf(twice))
    b.dff(b.or_(parity, b.nor(x[1], state)), name="s1")
    return b.build()


def _branch_faults(netlist):
    """Branch faults on every PO marker and flop D pin (observed directly)."""
    return [
        StuckAtFault(gate, 0, value)
        for gate in list(netlist.outputs) + list(netlist.flops)
        for value in (0, 1)
    ]


def _full_cone(simulator, fault, good, mask):
    seeds = simulator._stuck_at_seeds(fault, good, mask)
    faulty = simulator._propagate(seeds, good, mask) if seeds else {}
    return simulator._detection_word(fault, good, faulty, mask)


def _check_tables(netlist):
    """The compiled netlist matches its definition gate by gate."""
    gates = netlist.gates
    tables = compiled(netlist)
    assert tables.schedule == tuple(
        index
        for index in netlist.topo_order
        if gates[index].type != GateType.INPUT and not gates[index].is_sequential
    )
    assert tables.readers == CombinationalView(netlist).output_readers
    readers = set(tables.readers)
    position = {index: p for p, index in enumerate(netlist.topo_order)}
    for gate in gates:
        assert tables.successors[gate.index] == tuple(
            sorted(
                {
                    (position[consumer] << 32) | consumer
                    for consumer in gate.fanout
                    if not gates[consumer].is_sequential
                }
            )
        )
        assert tables.fanins[gate.index] == tuple(gate.fanin)
        assert tables.observes[gate.index] == (
            gate.type == GateType.OUTPUT or gate.is_sequential
        )
        consumers = set(gate.fanout)
        parent = tables.parent[gate.index]
        if parent < 0:
            assert tables.root[gate.index] == gate.index
            assert (
                len(consumers) != 1
                or gate.index in readers
                or gates[next(iter(consumers))].is_sequential
            )
            continue
        assert consumers == {parent} and gate.index not in readers
        assert not gates[parent].is_sequential
        assert tables.pins[gate.index] == tuple(
            pin for pin, driver in enumerate(gates[parent].fanin)
            if driver == gate.index
        )
        assert tables.root[gate.index] == tables.root[parent]


def _check_traced(netlist, faults, seed=0):
    _check_tables(netlist)
    for width in WIDTHS:
        simulator = FaultSimulator(netlist, word_width=width, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, width, seed=seed)
        good = simulator.parallel.good_words(patterns)
        mask = (1 << width) - 1
        detect = simulator._stuck_at_grader(good, mask)
        for fault in faults:
            assert detect(fault) == _full_cone(simulator, fault, good, mask), (
                width, fault,
            )


def _traced_faults(netlist):
    collapsed, _ = collapse_faults(netlist, full_fault_list(netlist))
    return list(collapsed) + _branch_faults(netlist)


class TestExactness:
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_conformance_circuits(self, name):
        netlist = _circuit(name)
        _check_traced(netlist, list(_universe(name)) + _branch_faults(netlist))

    def test_scan_flop_feeding_one_gate_roots_a_region(self):
        """A flop read by one gate and by the next SDFF's scan-in pin has
        two consumers, so it roots its own region."""
        netlist = insert_scan(_circuit("seq6"), n_chains=1).netlist
        tables = compiled(netlist)
        gates = netlist.gates
        rooted = [
            flop
            for flop in netlist.flops
            if len(set(tables.successors[flop])) == 1
            and any(gates[c].is_sequential for c in gates[flop].fanout)
        ]
        assert rooted
        assert all(tables.parent[flop] == -1 for flop in rooted)
        _check_traced(netlist, _traced_faults(netlist))

    def test_mux_xor_and_repeated_pins(self):
        netlist = _shapes()
        types = {gate.type for gate in netlist.gates}
        assert {GateType.MUX2, GateType.XOR, GateType.XNOR} <= types
        assert any(len(pins) == 2 for pins in compiled(netlist).pins)
        _check_traced(netlist, full_fault_list(netlist) + _branch_faults(netlist))

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(netlist=small_netlists(), seed=st.integers(min_value=0, max_value=99))
    def test_hypothesis_netlists(self, netlist, seed):
        _check_traced(netlist, _traced_faults(netlist), seed=seed)


def test_regrading_reports_identical_counters():
    """A cache-served regrade reads the same word lists; the obs(root)
    memo must not survive the chunk that built it."""
    netlist = _circuit("mac2")
    simulator = FaultSimulator(netlist)  # process-wide good cache
    patterns = random_patterns(simulator.view.num_inputs, 200, seed=31)
    faults = list(_universe("mac2"))
    cold = simulator.simulate(patterns, faults)
    served = [simulator.simulate(patterns, faults) for _ in range(2)]
    assert served[0].stats["good_passes"] == 0
    assert served[0].stats["good_cache_hits"] > 0
    assert cold.stats["events_propagated"] > 0
    for run in served:
        assert run.detected == cold.detected
        assert run.stats["events_propagated"] == cold.stats["events_propagated"]
    counters = ("events_propagated", "words_evaluated", "good_passes")
    assert [served[0].stats[c] for c in counters] == [
        served[1].stats[c] for c in counters
    ]


def test_one_region_table_per_netlist():
    b = NetlistBuilder()
    x, y = b.input("x"), b.input("y")
    b.output("z", b.and_(b.not_(x), y))
    netlist = b.build()
    first = FaultSimulator(netlist, cache=None)
    second = FaultSimulator(netlist, word_width=7, cache=None)
    assert first._compiled is second._compiled is compiled(netlist)
    before = compiled(netlist)
    netlist.add(GateType.OUTPUT, "w", [x])
    assert compiled(netlist) is not before
    _check_tables(netlist)
