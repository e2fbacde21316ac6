"""Fault-simulation engines: correctness and cross-engine agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import exhaustive_patterns, random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import (
    OUTPUT_PIN,
    StuckAtFault,
    full_fault_list,
    full_transition_list,
)
from repro.sim.faultsim import FaultSimulator


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


class TestTransitionFaults:
    def test_transition_needs_launch(self):
        """A single vector pair with no transition at the site detects
        nothing even though the capture vector alone would."""
        netlist = generators.chain_of_inverters(2)
        simulator = FaultSimulator(netlist)
        fault = full_transition_list(netlist)[0]  # STR on the input line
        static_pair = ([1], [1])  # no 0->1 launch
        result = simulator.simulate_transition([static_pair], [fault])
        assert fault not in result.detected
        launch_pair = ([0], [1])
        result = simulator.simulate_transition([launch_pair], [fault])
        assert fault in result.detected

    def test_str_and_stf_need_opposite_launches(self):
        netlist = generators.chain_of_inverters(1)
        simulator = FaultSimulator(netlist)
        faults = full_transition_list(netlist)
        str_faults = [f for f in faults if f.slow_to == 1]
        stf_faults = [f for f in faults if f.slow_to == 0]
        rise = [([0], [1])]
        fall = [([1], [0])]
        rise_result = simulator.simulate_transition(rise, faults, drop=False)
        fall_result = simulator.simulate_transition(fall, faults, drop=False)
        # Rising pair detects STR at the PI; falling detects STF there.
        pi_str = [f for f in str_faults if f.pin == OUTPUT_PIN and netlist.gates[f.gate].type.value == "input"]
        pi_stf = [f for f in stf_faults if f.pin == OUTPUT_PIN and netlist.gates[f.gate].type.value == "input"]
        assert all(f in rise_result.detected for f in pi_str)
        assert all(f in fall_result.detected for f in pi_stf)
        assert all(f not in fall_result.detected for f in pi_str)

    def test_transition_coverage_with_many_pairs(self, adder4):
        simulator = FaultSimulator(adder4)
        faults = full_transition_list(adder4)
        rng = random.Random(0)
        width = simulator.view.num_inputs
        pairs = [
            (
                [rng.randint(0, 1) for _ in range(width)],
                [rng.randint(0, 1) for _ in range(width)],
            )
            for _ in range(300)
        ]
        result = simulator.simulate_transition(pairs, faults)
        assert result.coverage > 0.85


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
