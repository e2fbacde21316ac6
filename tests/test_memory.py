"""Behavioral SRAM model and injected memory faults."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist.memory import FAULT_KINDS, Memory, MemoryFault, sample_faults


class TestFaultFreeMemory:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_reads_return_last_write(self, seed):
        rng = random.Random(seed)
        memory = Memory(32)
        shadow = [0] * 32
        for _ in range(100):
            address = rng.randrange(32)
            if rng.random() < 0.5:
                value = rng.randint(0, 1)
                memory.write(address, value)
                shadow[address] = value
            else:
                assert memory.read(address) == shadow[address]

    def test_bounds_checked(self):
        memory = Memory(8)
        with pytest.raises(IndexError):
            memory.read(8)
        with pytest.raises(IndexError):
            memory.write(-1, 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Memory(1)


class TestFaultValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Memory(8, faults=[MemoryFault("GLITCH", 0)])

    def test_cell_out_of_range(self):
        with pytest.raises(ValueError):
            Memory(8, faults=[MemoryFault("SAF", 99)])

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            Memory(8, faults=[MemoryFault("CFin", 3, aggressor=3)])

    def test_describe_all_kinds(self):
        for kind in FAULT_KINDS:
            fault = sample_faults(16, kind, 1, seed=0)[0]
            assert kind in fault.describe() or kind == "SAF"


class TestFaultBehaviour:
    def test_saf(self):
        memory = Memory(8, faults=[MemoryFault("SAF", 2, value=1)])
        memory.write(2, 0)
        assert memory.read(2) == 1

    def test_tf_blocks_one_transition(self):
        # Can't rise: 0 -> 1 write has no effect, but 1 -> 0 works.
        memory = Memory(8, faults=[MemoryFault("TF", 2, value=1)])
        memory.write(2, 1)
        assert memory.read(2) == 0
        # Force the cell to 1 through... it can never be 1: verify fall path
        memory2 = Memory(8, faults=[MemoryFault("TF", 3, value=0)])
        memory2.write(3, 1)
        assert memory2.read(3) == 1
        memory2.write(3, 0)  # can't fall
        assert memory2.read(3) == 1

    def test_cfin_inverts_victim_on_edge(self):
        fault = MemoryFault("CFin", 1, aggressor=0, value=1)  # rising writes
        memory = Memory(8, faults=[fault])
        memory.write(1, 0)
        memory.write(0, 1)  # rising edge on aggressor
        assert memory.read(1) == 1
        memory.write(0, 0)  # falling edge: no effect
        assert memory.read(1) == 1

    def test_cfid_forces_value(self):
        fault = MemoryFault(
            "CFid", 1, aggressor=0, value=1, aggressor_transition=0
        )  # falling write forces victim to 1
        memory = Memory(8, faults=[fault])
        memory.write(0, 1)
        memory.write(1, 0)
        memory.write(0, 0)  # falling edge
        assert memory.read(1) == 1

    def test_cfst_read_coupling(self):
        fault = MemoryFault("CFst", 1, aggressor=0, value=1, aggressor_state=1)
        memory = Memory(8, faults=[fault])
        memory.write(1, 0)
        memory.write(0, 1)
        assert memory.read(1) == 1  # forced while aggressor holds 1
        memory.write(0, 0)
        assert memory.read(1) == 0

    def test_af_aliases_addresses(self):
        fault = MemoryFault("AF", 2, aggressor=5)
        memory = Memory(8, faults=[fault])
        memory.write(2, 1)  # actually lands on 5
        assert memory.read(5) == 1
        memory.write(5, 0)
        assert memory.read(2) == 0  # reads through the alias

    def test_sof_returns_previous_read(self):
        memory = Memory(8, faults=[MemoryFault("SOF", 2)])
        memory.write(2, 1)
        first = memory.read(2)  # no previous read: sees stored value
        memory.write(2, 0)
        assert memory.read(2) == first  # stuck-open: repeats last read

    def test_coupling_respects_victim_saf(self):
        faults = [
            MemoryFault("SAF", 1, value=0),
            MemoryFault("CFin", 1, aggressor=0, value=1),
        ]
        memory = Memory(8, faults=faults)
        memory.write(0, 1)
        assert memory.read(1) == 0  # SAF wins over the coupling flip


class TestSampling:
    def test_deterministic(self):
        a = sample_faults(64, "CFid", 10, seed=3)
        b = sample_faults(64, "CFid", 10, seed=3)
        assert a == b

    def test_all_kinds_sampleable(self):
        for kind in FAULT_KINDS:
            faults = sample_faults(32, kind, 5, seed=1)
            assert len(faults) == 5
            assert all(f.kind == kind for f in faults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sample_faults(32, "GLITCH", 1)

    @pytest.mark.parametrize("n_cells, count", [(1, 5), (0, 5), (32, 0), (32, -1)])
    def test_degenerate_sizes_rejected(self, n_cells, count):
        with pytest.raises(ValueError):
            sample_faults(n_cells, "CFin", count)
