"""Integrated EDT-ATPG flow (compression/flow.py)."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator


@pytest.fixture(scope="module")
def flow_setup():
    netlist = generators.random_sequential(6, 120, 24, seed=8)
    design = insert_scan(netlist, n_chains=6)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, _ = partition_faults(design, faults)
    edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
    flow = run_compressed_atpg(edt, faults=capture, seed=3)
    return design, capture, edt, flow


class TestCompressedAtpg:
    def test_matches_bypass_coverage(self, flow_setup):
        design, capture, edt, flow = flow_setup
        bypass = run_atpg(design.netlist, faults=capture, seed=3)
        assert flow.test_coverage >= bypass.test_coverage - 0.03

    def test_applied_patterns_regrade(self, flow_setup):
        """The flow's own coverage accounting must match an independent
        fault simulation of the applied patterns."""
        design, capture, edt, flow = flow_setup
        simulator = FaultSimulator(design.netlist)
        regrade = simulator.simulate(flow.applied_patterns, capture, drop=True)
        assert len(regrade.detected) == flow.detected

    def test_encoded_patterns_expand_consistently(self, flow_setup):
        """Each stored channel stream must re-expand to the stored state."""
        design, capture, edt, flow = flow_setup
        for encoded in flow.encoded:
            flat = [
                bit for cycle in encoded.channel_stream for bit in cycle
            ]
            loads = edt.decompressor.expand(flat)
            assert edt.loads_to_state(loads) == encoded.expanded_state

    def test_accounting_adds_up(self, flow_setup):
        design, capture, edt, flow = flow_setup
        assert not flow.consistency_errors
        assert (
            flow.detected
            + flow.untestable
            + flow.aborted
            + len(flow.consistency_errors)
            == flow.total_faults
        )
        assert flow.total_faults == len(capture)

    def test_missed_target_is_a_consistency_error(self, flow_setup, monkeypatch):
        """An applied pattern with one care bit flipped misses its target:
        the fault is recorded, not retried, credited or dropped silently."""
        design, capture, _, _ = flow_setup
        netlist = design.netlist
        flop_order = {flop: index for index, flop in enumerate(netlist.flops)}
        last_cube = {}
        to_care_bits = EdtSystem.cube_to_care_bits
        encoded_pattern = EdtSystem.encoded_pattern

        def recording(self, cube):
            pi_part, care = to_care_bits(self, cube)
            last_cube.update(pi_part=pi_part, care=care)
            return pi_part, care

        def flipping(self, variables, pi_bits):
            encoded = encoded_pattern(self, variables, pi_bits)
            if not last_cube:
                return encoded  # a random-phase candidate
            pi_part, care = last_cube.pop("pi_part"), last_cube.pop("care")
            if care:
                chain, position = min(care)
                flop = self.design.chains[chain][position]
                encoded.expanded_state[flop_order[flop]] ^= 1
            else:
                pin = next(k for k, value in enumerate(pi_part) if value in (0, 1))
                encoded.pi_bits[pin] ^= 1
            return encoded

        monkeypatch.setattr(EdtSystem, "cube_to_care_bits", recording)
        monkeypatch.setattr(EdtSystem, "encoded_pattern", flipping)
        flow = run_compressed_atpg(
            EdtSystem(design, 2, 2), faults=capture, random_pattern_budget=0, seed=3
        )
        assert flow.consistency_errors
        assert flow.summary()["consistency_errors"] == len(flow.consistency_errors)
        assert not flow.bypass_patterns
        assert (
            flow.detected
            + flow.untestable
            + flow.aborted
            + len(flow.consistency_errors)
            == flow.total_faults
        )

    def test_deterministic(self, flow_setup):
        design, capture, edt, flow = flow_setup
        again = run_compressed_atpg(
            EdtSystem(design, 2, 2), faults=capture, seed=3
        )
        assert again.detected == flow.detected
        assert len(again.applied_patterns) == len(flow.applied_patterns)

    def test_summary_fields(self, flow_setup):
        *_, flow = flow_setup
        summary = flow.summary()
        for key in ("encoded_patterns", "fault_coverage", "unencodable"):
            assert key in summary
