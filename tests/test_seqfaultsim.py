"""Sequential parallel-fault simulation."""

import random

import pytest

from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import GateType
from repro.faults import OUTPUT_PIN, StuckAtFault, full_fault_list
from repro.sim.logicsim import LogicSimulator
from repro.sim.seqfaultsim import SequentialFaultSimulator


def _naive_sequential_detects(netlist, fault, vectors):
    """Reference: simulate the faulty machine explicitly, cycle by cycle."""
    from repro.circuit.gates import evaluate_parallel

    gates = netlist.gates
    good_state = [0] * len(netlist.flops)
    bad_state = [0] * len(netlist.flops)
    forced = 1 if fault.value else 0

    def step(state, faulty):
        words = [0] * len(gates)
        for position, pi in enumerate(netlist.inputs):
            words[pi] = vector[position]
            if faulty and fault.pin == OUTPUT_PIN and pi == fault.gate:
                words[pi] = forced
        for position, flop in enumerate(netlist.flops):
            words[flop] = state[position]
            if faulty and fault.pin == OUTPUT_PIN and flop == fault.gate:
                words[flop] = forced
        for index in netlist.topo_order:
            gate = gates[index]
            if gate.type == GateType.INPUT or gate.is_sequential:
                continue
            inputs = [words[d] for d in gate.fanin]
            if faulty and index == fault.gate and fault.pin != OUTPUT_PIN:
                inputs[fault.pin] = forced
            value = evaluate_parallel(gate.type, inputs, 1)
            if faulty and index == fault.gate and fault.pin == OUTPUT_PIN:
                value = forced
            words[index] = value
        outputs = [words[po] for po in netlist.outputs]
        nxt = []
        for flop in netlist.flops:
            data = words[gates[flop].fanin[0]]
            if faulty and fault.gate == flop and fault.pin == 0:
                data = forced
            nxt.append(data)
        return outputs, nxt

    for vector in vectors:
        good_out, good_state = step(good_state, faulty=False)
        bad_out, bad_state = step(bad_state, faulty=True)
        if good_out != bad_out:
            return True
    return False


@pytest.fixture(scope="module")
def seq_circuit():
    return generators.random_sequential(5, 60, 8, seed=7)


class TestAgainstNaiveReference:
    def test_matches_per_fault_simulation(self, seq_circuit):
        simulator = SequentialFaultSimulator(seq_circuit)
        faults = full_fault_list(seq_circuit)
        rng = random.Random(1)
        vectors = [
            [rng.randint(0, 1) for _ in range(len(seq_circuit.inputs))]
            for _ in range(12)
        ]
        graded = simulator.simulate(vectors, faults, drop=False)
        sample = faults[:: max(1, len(faults) // 30)]
        for fault in sample:
            expected = _naive_sequential_detects(seq_circuit, fault, vectors)
            assert (fault in graded.detected) == expected, fault

    def test_s27_coverage_grows_with_sequence_length(self):
        netlist = benchmarks.s27()
        simulator = SequentialFaultSimulator(netlist)
        faults = full_fault_list(netlist)
        rng = random.Random(3)
        long_vectors = [
            [rng.randint(0, 1) for _ in range(4)] for _ in range(64)
        ]
        short = simulator.simulate(long_vectors[:2], faults, drop=True)
        full = simulator.simulate(long_vectors, faults, drop=True)
        assert len(full.detected) > len(short.detected)


class TestOutputMarkerFaults:
    def test_detection_matches_good_machine_trace(self, mac4):
        """A fault on a PO marker pins that output to a constant, so it is
        detected exactly on the first cycle the good machine drives the
        other value there."""
        simulator = SequentialFaultSimulator(mac4)
        rng = random.Random(11)
        vectors = [
            [rng.randint(0, 1) for _ in range(len(mac4.inputs))]
            for _ in range(32)
        ]
        trace = LogicSimulator(mac4).run_sequence(vectors)
        outputs = {po: position for position, po in enumerate(mac4.outputs)}
        faults = [f for f in full_fault_list(mac4) if f.gate in outputs]
        assert faults
        graded = simulator.simulate(vectors, faults, drop=True)
        for fault in faults:
            position = outputs[fault.gate]
            expected = next(
                (cycle for cycle, values in enumerate(trace)
                 if values[position] != fault.value),
                None,
            )
            assert graded.detected.get(fault) == expected, fault


class TestStateMemory:
    def test_fault_effect_latched_across_cycles(self):
        """A fault excitable only in cycle 1 whose effect surfaces at the
        PO in cycle 2 — invisible to any combinational analysis."""
        builder = NetlistBuilder("latch_effect")
        a = builder.input("a")
        zero = builder.const0()
        ff = builder.dff(a, name="ff")
        builder.output("y", ff)
        netlist = builder.build()
        simulator = SequentialFaultSimulator(netlist)
        fault = StuckAtFault(netlist.index_of("a"), OUTPUT_PIN, 0)
        # Cycle 0 drives a=1 (excites); the corrupted state reads out on
        # cycle 1's PO.
        graded = simulator.simulate([[1], [0]], [fault], drop=True)
        assert graded.detected[fault] == 1

    def test_first_detecting_cycle_recorded(self, seq_circuit):
        simulator = SequentialFaultSimulator(seq_circuit)
        faults = full_fault_list(seq_circuit)
        rng = random.Random(5)
        vectors = [
            [rng.randint(0, 1) for _ in range(len(seq_circuit.inputs))]
            for _ in range(10)
        ]
        graded = simulator.simulate(vectors, faults, drop=True)
        assert all(0 <= cycle < 10 for cycle in graded.detected.values())

    def test_initial_state_honoured(self):
        builder = NetlistBuilder("init")
        zero = builder.const0()
        ff = builder.dff(zero, name="ff")
        builder.output("y", ff)
        netlist = builder.build()
        simulator = SequentialFaultSimulator(netlist)
        fault = StuckAtFault(ff, OUTPUT_PIN, 1)
        # Starting at 1 the stuck-at-1 is invisible on cycle 0; starting
        # at 0 it shows immediately.
        from_one = simulator.simulate([[]], [fault], initial_state=[1])
        from_zero = simulator.simulate([[]], [fault], initial_state=[0])
        assert fault not in from_one.detected
        assert fault in from_zero.detected

    def test_batching_beyond_63_faults(self, seq_circuit):
        simulator = SequentialFaultSimulator(seq_circuit)
        faults = full_fault_list(seq_circuit)
        assert len(faults) > 63  # exercises multi-word batching
        rng = random.Random(9)
        vectors = [
            [rng.randint(0, 1) for _ in range(len(seq_circuit.inputs))]
            for _ in range(8)
        ]
        graded = simulator.simulate(vectors, faults, drop=False)
        assert graded.total_faults == len(faults)
