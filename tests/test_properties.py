"""Cross-engine invariants, property-checked over random circuits.

Each property draws a fresh random circuit per example and checks an
invariant that ties two independent engines together — the strongest kind
of correctness evidence this library has, since a bug would have to break
both sides identically to hide.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.engine import x_fill
from repro.atpg.podem import Podem
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.verilog import parse_verilog, write_verilog
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.parallel import ParallelSimulator
from repro.sim.supervisor import SupervisedPoolBackend

SMALL = dict(max_examples=12, deadline=None)
seeds = st.integers(0, 10**6)


def small_circuit(seed):
    rng = random.Random(seed)
    return generators.random_circuit(
        rng.randint(4, 8), rng.randint(15, 45), seed=seed
    )


def small_sequential(seed):
    rng = random.Random(seed ^ 0xABCD)
    return generators.random_sequential(
        rng.randint(3, 6), rng.randint(20, 50), rng.randint(3, 8), seed=seed
    )


class TestEngineAgreement:
    @settings(**SMALL)
    @given(seed=seeds)
    def test_parallel_matches_event_sim(self, seed):
        netlist = small_circuit(seed)
        parallel = ParallelSimulator(netlist)
        logic = LogicSimulator(netlist)
        patterns = random_patterns(parallel.view.num_inputs, 10, seed=seed)
        assert parallel.responses(patterns) == [
            logic.response(p) for p in patterns
        ]

    @settings(**SMALL)
    @given(seed=seeds)
    def test_serial_matches_ppsfp(self, seed):
        netlist = small_circuit(seed)
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 8, seed=seed)
        serial = simulator.simulate(patterns, faults, drop=False, engine="serial")
        ppsfp = simulator.simulate(patterns, faults, drop=False, engine="ppsfp")
        assert serial.detected == ppsfp.detected

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_supervised_matches_ppsfp(self, seed):
        """Supervised-backend coverage equals ppsfp coverage on any random
        circuit and pattern set, and its stats account for the whole
        collapsed universe."""
        netlist = small_circuit(seed)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        rng = random.Random(seed ^ 0x5A5A)
        patterns = random_patterns(
            simulator.view.num_inputs, rng.randint(1, 80), seed=seed
        )
        ppsfp = simulator.simulate(patterns, faults, engine="ppsfp")
        supervised = simulator.simulate(
            patterns, faults,
            engine=SupervisedPoolBackend(jobs=rng.choice([1, 2]), seed=seed),
        )
        assert supervised.coverage == ppsfp.coverage
        assert supervised.detected == ppsfp.detected
        assert supervised.stats["faults_simulated"] == len(faults)
        assert sum(
            p["faults"] for p in supervised.stats["partitions"]
        ) == len(faults)


class TestPodemSoundness:
    @settings(**SMALL)
    @given(seed=seeds)
    def test_every_cube_confirmed_by_fault_simulation(self, seed):
        """PODEM soundness: a detected cube's every completion detects."""
        netlist = small_circuit(seed)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=24)
        simulator = FaultSimulator(netlist)
        rng = random.Random(seed)
        checked = 0
        for fault in faults:
            if checked >= 10:
                break
            outcome = podem.generate(fault)
            if not outcome.detected:
                continue
            checked += 1
            for mode in ("zero", "one", "random"):
                pattern = x_fill(outcome.cube, rng, mode)
                graded = simulator.simulate([pattern], [fault], drop=True)
                assert fault in graded.detected

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_untestable_verdicts_hold_exhaustively(self, seed):
        """PODEM completeness spot-check: on circuits small enough to
        enumerate, 'untestable' must mean NO input vector detects."""
        rng = random.Random(seed)
        netlist = generators.random_circuit(rng.randint(4, 6), 18, seed=seed)
        n_inputs = len(netlist.inputs)
        if n_inputs > 6:
            return
        from repro.atpg.random_gen import exhaustive_patterns

        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        podem = Podem(netlist, backtrack_limit=4096)
        simulator = FaultSimulator(netlist)
        everything = exhaustive_patterns(n_inputs)
        for fault in faults[:20]:
            outcome = podem.generate(fault)
            if outcome.status == "untestable":
                graded = simulator.simulate(everything, [fault], drop=True)
                assert fault not in graded.detected, fault.describe(netlist)


class TestStructuralTransforms:
    @settings(**SMALL)
    @given(seed=seeds)
    def test_scan_insertion_preserves_capture_function(self, seed):
        netlist = small_sequential(seed)
        design = insert_scan(netlist, n_chains=2)
        original = LogicSimulator(netlist)
        scanned = LogicSimulator(design.netlist)
        rng = random.Random(seed)
        state = [0] * len(netlist.flops)
        for _ in range(4):
            inputs = [rng.randint(0, 1) for _ in range(len(netlist.inputs))]
            padded = inputs + [0] * (
                len(design.netlist.inputs) - len(inputs)
            )
            a = original.step(inputs, state)
            b = scanned.step(padded, state, scan_shift=False)
            assert a["state"] == b["state"]
            assert a["outputs"] == b["outputs"][: len(a["outputs"])]
            state = a["state"]

    @settings(**SMALL)
    @given(seed=seeds)
    def test_bench_roundtrip_preserves_function(self, seed):
        netlist = small_circuit(seed)
        rebuilt = parse_bench(write_bench(netlist))
        sim_a, sim_b = LogicSimulator(netlist), LogicSimulator(rebuilt)
        patterns = random_patterns(sim_a.view.num_inputs, 8, seed=seed)
        for pattern in patterns:
            assert sim_a.response(pattern) == sim_b.response(pattern)

    @settings(**SMALL)
    @given(seed=seeds)
    def test_verilog_roundtrip_preserves_function(self, seed):
        netlist = small_sequential(seed)
        rebuilt = parse_verilog(write_verilog(netlist))
        sim_a, sim_b = LogicSimulator(netlist), LogicSimulator(rebuilt)
        patterns = random_patterns(sim_a.view.num_inputs, 8, seed=seed)
        for pattern in patterns:
            assert sim_a.response(pattern) == sim_b.response(pattern)


class TestCollapseSemantics:
    @settings(max_examples=6, deadline=None)
    @given(seed=seeds)
    def test_equivalence_classes_share_detection_sets(self, seed):
        rng = random.Random(seed)
        netlist = generators.random_circuit(rng.randint(4, 5), 14, seed=seed)
        n_inputs = len(netlist.inputs)
        if n_inputs > 6:
            return
        from repro.atpg.random_gen import exhaustive_patterns

        faults = full_fault_list(netlist)
        _, mapping = collapse_faults(netlist, faults)
        simulator = FaultSimulator(netlist)
        everything = exhaustive_patterns(n_inputs)
        signature = {}
        for fault in faults:
            graded = simulator.simulate(everything, [fault], drop=False)
            detecting = frozenset(
                simulator.failure_signature(everything, fault)
            )
            signature[fault] = detecting
        classes = {}
        for fault, representative in mapping.items():
            classes.setdefault(representative, []).append(fault)
        for members in classes.values():
            reference = signature[members[0]]
            for member in members[1:]:
                assert signature[member] == reference
