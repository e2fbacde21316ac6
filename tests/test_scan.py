"""Scan insertion, chain integrity, and cycle-accurate pattern application."""

import random

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.circuit.gates import GateType
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import chain_flush_detects, insert_scan, partition_faults
from repro.scan.patterns import ScanScheduler
from repro.sim.logicsim import LogicSimulator
from repro.sim.view import CombinationalView


class TestInsertion:
    def test_flops_become_scan_flops(self, mac4):
        design = insert_scan(mac4, n_chains=2)
        for flop in design.netlist.flops:
            assert design.netlist.gates[flop].type == GateType.SDFF

    def test_original_untouched(self, mac4):
        n_before = len(mac4.gates)
        insert_scan(mac4, n_chains=2)
        assert len(mac4.gates) == n_before
        assert all(g.type != GateType.SDFF for g in mac4.gates)

    def test_chain_balance(self, small_seq):
        design = insert_scan(small_seq, n_chains=3)
        lengths = [len(chain) for chain in design.chains]
        assert max(lengths) - min(lengths) <= 1

    def test_more_chains_than_flops_clamped(self, small_seq):
        design = insert_scan(small_seq, n_chains=99)
        assert design.n_chains == len(small_seq.flops)
        assert design.max_chain_length == 1

    def test_combinational_circuit_rejected(self, adder4):
        with pytest.raises(ValueError):
            insert_scan(adder4, n_chains=1)

    def test_ports_added(self, mac4):
        design = insert_scan(mac4, n_chains=2)
        names = design.netlist.input_names()
        assert "scan_enable" in names
        assert "scan_in0" in names and "scan_in1" in names
        assert "scan_out0" in [design.netlist.gates[i].name for i in design.netlist.outputs]

    def test_function_preserved_in_capture_mode(self, mac4):
        """With scan_enable low, the scan design behaves like the original."""
        design = insert_scan(mac4, n_chains=2)
        original = LogicSimulator(mac4)
        scanned = LogicSimulator(design.netlist)
        rng = random.Random(7)
        state = [0] * len(mac4.flops)
        scan_state = list(state)
        for _ in range(5):
            inputs = [rng.randint(0, 1) for _ in range(len(mac4.inputs))]
            # Scan netlist PIs: original PIs + scan_enable + scan_ins (appended).
            scan_inputs = inputs + [0] * (
                len(design.netlist.inputs) - len(inputs)
            )
            a = original.step(inputs, state)
            b = scanned.step(scan_inputs, scan_state, scan_shift=False)
            assert a["state"] == b["state"]
            # Functional POs agree (scan_outs excluded).
            assert a["outputs"] == b["outputs"][: len(a["outputs"])]
            state, scan_state = a["state"], b["state"]


class TestChainStreams:
    def test_state_stream_roundtrip(self, small_seq):
        design = insert_scan(small_seq, n_chains=3)
        rng = random.Random(0)
        state = [rng.randint(0, 1) for _ in small_seq.flops]
        streams = design.state_to_chain_bits(state)
        assert design.chain_bits_to_state(streams) == state

    def test_flush_passes_on_clean_design(self, small_seq):
        design = insert_scan(small_seq, n_chains=2)
        assert chain_flush_detects(design)

    def test_flush_fails_with_broken_chain(self, small_seq):
        design = insert_scan(small_seq, n_chains=2)
        # Break the chain: disconnect one flop's scan-in (tie to const).
        netlist = design.netlist
        victim = design.chains[0][1]
        const = netlist.add(GateType.CONST0, "chain_break")
        netlist.gates[victim].fanin[1] = const
        netlist.invalidate()
        netlist.finalize()
        assert not chain_flush_detects(design)


class TestFaultPartition:
    def test_chain_faults_identified(self, small_seq):
        design = insert_scan(small_seq, n_chains=2)
        faults = full_fault_list(design.netlist)
        capture, chain = partition_faults(design, faults)
        assert len(capture) + len(chain) == len(faults)
        assert chain  # scan_in/scan_enable stems exist
        chain_gates = {f.gate for f in chain}
        assert design.scan_enable in chain_gates


class TestScheduler:
    def test_scan_protocol_reproduces_combinational_response(self, small_seq):
        """Load-capture-unload must equal the ATPG view's prediction."""
        design = insert_scan(small_seq, n_chains=3)
        view = CombinationalView(design.netlist)
        logic = LogicSimulator(design.netlist)
        scheduler = ScanScheduler(design)
        rng = random.Random(5)
        for trial in range(4):
            pattern = [rng.randint(0, 1) for _ in range(view.num_inputs)]
            operation = scheduler.apply_pattern(pattern, trial)
            predicted = logic.response(pattern)
            n_po = len(design.netlist.outputs)
            assert operation.unloaded_state == predicted[n_po:]


class TestScanAtpgFlow:
    def test_atpg_on_scan_design_reaches_coverage(self, small_seq):
        design = insert_scan(small_seq, n_chains=2)
        capture, chain = partition_faults(
            design, collapse_faults(design.netlist, full_fault_list(design.netlist))[0]
        )
        result = run_atpg(design.netlist, faults=capture, seed=1)
        assert result.test_coverage > 0.95
