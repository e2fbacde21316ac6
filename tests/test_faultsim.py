"""Fault-simulation engines: correctness and cross-engine agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import exhaustive_patterns, random_patterns
from repro.circuit import benchmarks, generators
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator


class TestStuckAtCorrectness:
    def test_c17_known_fault(self, c17):
        """s-a-1 on gate 10's output is detected by a vector driving 10=0
        and propagating through 22."""
        simulator = FaultSimulator(c17)
        fault = StuckAtFault(c17.index_of("10"), OUTPUT_PIN, 1)
        patterns = exhaustive_patterns(5)
        result = simulator.simulate(patterns, [fault], drop=True)
        assert fault in result.detected

    def test_undetectable_without_excitation(self, c17):
        """A fault whose stuck value equals the applied value never shows."""
        simulator = FaultSimulator(c17)
        pi = c17.inputs[0]
        fault = StuckAtFault(pi, OUTPUT_PIN, 0)
        # Pattern drives that PI to 0: no excitation.
        pattern = [0, 1, 1, 1, 1]
        result = simulator.simulate([pattern], [fault], drop=True)
        assert fault not in result.detected

    def test_full_coverage_with_exhaustive_patterns(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        result = simulator.simulate(exhaustive_patterns(5), faults, drop=True)
        assert result.coverage == 1.0  # c17 has no redundant faults

    def test_drop_vs_nodrop_same_detection_set(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        patterns = random_patterns(5, 20, seed=9)
        dropped = simulator.simulate(patterns, faults, drop=True)
        kept = simulator.simulate(patterns, faults, drop=False)
        assert set(dropped.detected) == set(kept.detected)
        # First-detection indices agree too.
        assert dropped.detected == kept.detected


class TestOutputMarkerFaults:
    @pytest.mark.parametrize("width", [1, 7, 64])
    def test_detection_matches_good_machine_response(self, mac4, width):
        """A fault on a PO marker pins that output to a constant, so it is
        detected exactly by the first pattern whose good response drives
        the other value there."""
        simulator = FaultSimulator(mac4, word_width=width, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 32, seed=11)
        logic = LogicSimulator(mac4)
        responses = [logic.response(pattern) for pattern in patterns]
        outputs = {po: position for position, po in enumerate(mac4.outputs)}
        faults = [f for f in full_fault_list(mac4) if f.gate in outputs]
        assert faults
        graded = simulator.simulate(patterns, faults, drop=True)
        for fault in faults:
            position = outputs[fault.gate]
            expected = next(
                (index for index, response in enumerate(responses)
                 if response[position] != fault.value),
                None,
            )
            assert graded.detected.get(fault) == expected, fault


class TestEngineAgreement:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_serial_matches_ppsfp_on_c17(self, seed):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        patterns = random_patterns(5, 12, seed=seed)
        serial = simulator.simulate(patterns, faults, drop=False, engine="serial")
        ppsfp = simulator.simulate(patterns, faults, drop=False, engine="ppsfp")
        assert serial.detected == ppsfp.detected

    def test_serial_matches_ppsfp_on_sequential(self):
        netlist = generators.random_sequential(5, 40, 6, seed=4)
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        width = simulator.view.num_inputs
        patterns = random_patterns(width, 10, seed=2)
        serial = simulator.simulate(patterns, faults, drop=False, engine="serial")
        ppsfp = simulator.simulate(patterns, faults, drop=False, engine="ppsfp")
        assert serial.detected == ppsfp.detected

    def test_unknown_engine_rejected(self, c17):
        simulator = FaultSimulator(c17)
        with pytest.raises(ValueError):
            simulator.simulate([[0] * 5], [], engine="quantum")


class TestFailureSignature:
    def test_signature_matches_detection(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        patterns = exhaustive_patterns(5)
        for fault in faults[:12]:
            signature = simulator.failure_signature(patterns, fault)
            detected = simulator.simulate(patterns, [fault], drop=True)
            assert bool(signature) == (fault in detected.detected)
            if signature:
                first = min(signature)
                assert detected.detected[fault] == first

    def test_signature_positions_valid(self, c17):
        simulator = FaultSimulator(c17)
        fault = full_fault_list(c17)[0]
        signature = simulator.failure_signature(exhaustive_patterns(5), fault)
        n_outputs = simulator.view.num_outputs
        for outputs in signature.values():
            assert all(0 <= pos < n_outputs for pos in outputs)
