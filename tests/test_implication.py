"""The compiled netlist under ATPG (``repro.circuit.compiled``).

Three contracts:

* **Exactness** — the cone-sized initial state (the netlist's fault-free
  all-X implication with only the fault's fanout cone re-implied) equals a
  full all-X topo pass with the fault injected, computed here rail by rail
  through the 4-valued gate evaluator, for every fault PODEM and the
  D-algorithm can be asked about.
* **Work follows the cone, not the chip** — a core-0 fault of the
  replicated MAC array costs the same ``atpg.implications``, verdict,
  backtracks and cube on 4, 8 and 16 cores.
* **One copy, built once, paid for by its users** — the ATPG engines and
  every simulator share one ``compiled(netlist)``, rebuilt after ``add``
  or ``invalidate``; only ATPG computes the fault-free all-X state.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.atpg.dalg import DAlgorithm
from repro.atpg.podem import Podem
from repro.atpg.portfolio import PortfolioAtpg
from repro.atpg.random_gen import random_patterns
from repro.bist.lbist import StumpsController
from repro.circuit import benchmarks
from repro.circuit.compiled import GATE_MASK, compiled
from repro.circuit.dcalc import from_fourvalued
from repro.circuit.gates import GateType, evaluate
from repro.circuit.values import X
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.parallel import ParallelSimulator
from repro.sim.supervisor import SupervisedPoolBackend

from tests.oracle_util import small_netlists
from tests.test_conformance import CIRCUIT_NAMES, _circuit, _universe

ENGINES = (Podem, DAlgorithm)

#: Sum of ``atpg.implications`` over every collapsed mac4 fault mapped to
#: core 0, per array size.
MAC4_CORE0_IMPLICATIONS = 123_179


def _reference_initial_values(netlist, fault):
    """Full all-X topo pass with ``fault`` injected, as packed D-values."""
    gates = netlist.gates
    good = [X] * len(gates)
    faulty = [X] * len(gates)
    for index in netlist.topo_order:
        gate = gates[index]
        at_site = index == fault.gate
        if gate.type == GateType.INPUT or gate.is_sequential:
            if at_site and fault.pin == OUTPUT_PIN:
                faulty[index] = fault.value
            continue
        faulty_inputs = [faulty[driver] for driver in gate.fanin]
        if at_site and fault.pin != OUTPUT_PIN:
            faulty_inputs[fault.pin] = fault.value
        good[index] = evaluate(gate.type, [good[driver] for driver in gate.fanin])
        faulty[index] = evaluate(gate.type, faulty_inputs)
        if at_site and fault.pin == OUTPUT_PIN:
            faulty[index] = fault.value
    return [from_fourvalued(g, f) for g, f in zip(good, faulty)]


def _edge_faults(netlist):
    """Sites the collapsed list may fold away: output faults on PIs and
    flops, branch faults on flop D pins and on PO markers."""
    faults = []
    for value in (0, 1):
        for gate in list(netlist.inputs) + list(netlist.flops):
            faults.append(StuckAtFault(gate, OUTPUT_PIN, value))
        for gate in list(netlist.flops) + list(netlist.outputs):
            faults.append(StuckAtFault(gate, 0, value))
    return faults


def _check_initial_values(engine_class, netlist, faults):
    """Every fault's initial state, on the search path and directly."""
    engine = engine_class(netlist, backtrack_limit=2)
    initial = engine._initial_values
    searched = []

    def checked(fault):
        # The search binds the cone (and the D-algorithm its cone set)
        # before it asks for the initial state.
        cone = netlist.fanout_cone([fault.gate])
        assert set(engine._cone_gates) == cone, fault
        if engine_class is DAlgorithm:
            assert engine._cone_set == cone, fault
        values = initial(fault)
        assert values == _reference_initial_values(netlist, fault), fault
        searched.append(fault)
        return values

    engine._initial_values = checked
    for fault in faults:
        engine.generate(fault)
        # Structurally unobservable faults return before the initial
        # state; check those directly.
        engine._cone_gates, engine._cone_readers = engine._fault_cone(fault)
        assert initial(fault) == _reference_initial_values(netlist, fault), fault
    return searched


@pytest.mark.parametrize("engine_class", ENGINES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", CIRCUIT_NAMES)
def test_cone_initial_state_is_exact(name, engine_class):
    netlist = _circuit(name)
    faults = list(_universe(name)) + _edge_faults(netlist)
    searched = _check_initial_values(engine_class, netlist, faults)
    assert searched, "no fault reached the search"


def test_edge_cases_reach_the_search():
    """Flop output faults, flop D-pin and PO-marker branch faults are all
    exercised through ``generate`` on the sequential conformance circuit."""
    netlist = _circuit("seq6")
    searched = set(_check_initial_values(Podem, netlist, _edge_faults(netlist)))
    flops, outputs = set(netlist.flops), set(netlist.outputs)
    assert any(f.gate in flops and f.pin == OUTPUT_PIN for f in searched)
    assert any(f.gate in flops and f.pin == 0 for f in searched)
    assert any(f.gate in outputs and f.pin == 0 for f in searched)
    assert any(f.gate in netlist.inputs for f in searched)


@pytest.mark.parametrize("engine_class", ENGINES, ids=lambda c: c.__name__)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(netlist=small_netlists())
def test_cone_initial_state_is_exact_on_generated_netlists(engine_class, netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    _check_initial_values(engine_class, netlist, faults + _edge_faults(netlist))


def test_engines_share_one_core_per_netlist():
    """ATPG and every simulator read one ``compiled(netlist)``; ``add``
    replaces it."""
    netlist = _circuit("seq6").clone()
    tables = compiled(netlist)
    engines = [
        Podem(netlist),
        DAlgorithm(netlist),
        FaultSimulator(netlist, cache=None),
        FaultSimulator(netlist, word_width=7, cache=None),
        LogicSimulator(netlist),
    ]
    engines += [engine for _, engine in PortfolioAtpg(netlist).engines]
    assert all(engine._compiled is tables for engine in engines)
    parallel = ParallelSimulator(netlist, cache=None)
    assert compiled(netlist) is tables
    assert parallel.num_scheduled == len(tables.schedule)
    netlist.add(GateType.OUTPUT, "late_po", [netlist.inputs[0]])
    after = compiled(netlist)
    assert after is not tables
    assert len(after.codes) == len(netlist.gates)
    assert FaultSimulator(netlist, cache=None)._compiled is after


def test_invalidate_drops_tables_and_signature():
    """Patching a fanin in place, then ``invalidate``, rebuilds the
    compiled tables and changes the structural signature."""
    netlist = _circuit("rand8").clone()
    before = compiled(netlist)
    signature = netlist.structural_signature()
    gate = next(
        g for g in netlist.gates
        if g.fanin and netlist.inputs[1] not in g.fanin
        and g.type not in (GateType.DFF, GateType.SDFF)
    )
    gate.fanin[0] = netlist.inputs[1]
    netlist.invalidate()
    after = compiled(netlist)
    assert after is not before
    assert after.fanins[gate.index][0] == netlist.inputs[1]
    assert gate.index in [key & GATE_MASK for key in after.successors[netlist.inputs[1]]]
    assert netlist.structural_signature() != signature


def test_grading_flows_never_imply_the_fault_free_state():
    """Only ATPG reads ``fault_free``: ppsfp, supervised and STUMPS runs
    on a fresh netlist leave it uncomputed; one PODEM call computes it."""
    netlist = _circuit("mac2").clone()
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist, cache=None)
    patterns = random_patterns(simulator.view.num_inputs, 128, seed=5)
    simulator.simulate(patterns, faults)
    simulator.simulate(patterns, faults, engine=SupervisedPoolBackend(jobs=2))
    StumpsController(netlist).run(64)
    assert compiled(netlist)._fault_free is None
    Podem(netlist).generate(faults[0])
    assert compiled(netlist)._fault_free is not None


def test_core0_fault_work_is_independent_of_array_size():
    """A core-0 fault costs the same on 4, 8 and 16 cores.

    Gate ``g`` of copy ``k`` is index ``k * core_size + g``, so every
    collapsed mac4 fault maps to core 0 unchanged.  An engine that
    re-implies the whole chip from all-X per call fails: its first fault
    alone costs 570 / 1,122 / 2,226 gate evaluations.
    """
    core = benchmarks.get_benchmark("mac4")
    faults, _ = collapse_faults(core, full_fault_list(core))
    core_inputs = set(core.inputs) | set(core.flops)
    runs = {}
    for copies in (4, 8, 16):
        chip = benchmarks.get_benchmark(f"mac4_x{copies}")
        podem = Podem(chip)
        positions = {gate: p for p, gate in enumerate(podem.view.input_gates)}
        rows = []
        for fault in faults:
            with obs.observe("test.scaling") as observation:
                outcome = podem.generate(fault)
            implications = observation.metrics.counter("atpg.implications").value
            cube = None
            if outcome.cube is not None:
                cube = {g: outcome.cube[positions[g]] for g in core_inputs}
                others = [
                    value
                    for gate, value in zip(podem.view.input_gates, outcome.cube)
                    if gate not in core_inputs
                ]
                assert set(others) <= {X}, (copies, fault)
            rows.append((outcome.status, outcome.backtracks, cube, implications))
        runs[copies] = rows
    assert runs[4] == runs[8] == runs[16]
    assert sum(row[3] for row in runs[4]) == MAC4_CORE0_IMPLICATIONS
