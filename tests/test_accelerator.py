"""Tiled accelerator: batch scheduling, health, degradation."""

import numpy as np
import pytest

from repro.aichip.accelerator import (
    AcceleratorConfig,
    Core,
    CoreConfig,
    TiledAccelerator,
)
from repro.aichip.systolic import PEFault


class TestExecution:
    def test_matmul_matches_numpy(self):
        chip = TiledAccelerator(AcceleratorConfig(n_cores=3))
        rng = np.random.default_rng(0)
        x = rng.integers(-30, 30, size=(10, 8))
        w = rng.integers(-30, 30, size=(8, 5))
        assert np.array_equal(chip.matmul(x, w), x @ w)

    def test_batch_smaller_than_core_count(self):
        chip = TiledAccelerator(AcceleratorConfig(n_cores=4))
        x = np.ones((2, 4), dtype=int)
        w = np.ones((4, 3), dtype=int)
        out = chip.matmul(x, w)
        assert out.shape == (2, 3)

    def test_no_cores_raises(self):
        chip = TiledAccelerator(AcceleratorConfig(n_cores=1))
        chip.disable_core(0)
        with pytest.raises(RuntimeError):
            chip.matmul(np.ones((1, 2), dtype=int), np.ones((2, 2), dtype=int))

    def test_faulty_core_corrupts_only_its_share(self):
        faults = {1: [PEFault(0, 0, "stuck_bit", bit=10, value=1)]}
        chip = TiledAccelerator(AcceleratorConfig(n_cores=2), core_pe_faults=faults)
        rng = np.random.default_rng(1)
        x = rng.integers(-20, 20, size=(8, 8))
        w = rng.integers(-20, 20, size=(8, 4))
        out = chip.matmul(x, w)
        expected = x @ w
        half = 4  # ceil(8/2)
        assert np.array_equal(out[:half], expected[:half])
        assert not np.array_equal(out[half:], expected[half:])

    def test_disabling_faulty_core_restores_output(self):
        faults = {1: [PEFault(0, 0, "dead")]}
        chip = TiledAccelerator(AcceleratorConfig(n_cores=2), core_pe_faults=faults)
        chip.disable_core(1)
        rng = np.random.default_rng(2)
        x = rng.integers(-20, 20, size=(6, 8))
        w = rng.integers(-20, 20, size=(8, 4))
        assert np.array_equal(chip.matmul(x, w), x @ w)


class TestHealth:
    def test_faulty_cores_reported(self):
        faults = {2: [PEFault(1, 1, "dead")]}
        chip = TiledAccelerator(AcceleratorConfig(n_cores=4), core_pe_faults=faults)
        assert chip.faulty_cores() == [2]

    def test_summary_fields(self):
        chip = TiledAccelerator()
        summary = chip.summary()
        assert summary["cores"] == 4
        assert summary["enabled"] == 4
        assert summary["array"] == "8x8"


class TestCoreNetlist:
    def test_cycles_scale_with_disabled_cores(self):
        chip = TiledAccelerator(AcceleratorConfig(n_cores=4))
        full = chip.cycles_for_matmul(64, 16, 16)
        chip.disable_core(0)
        chip.disable_core(1)
        half = chip.cycles_for_matmul(64, 16, 16)
        assert half > full
