"""LFSR-reseeding compression and its contrast with EDT."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.decompressor import (
    Decompressor,
    EdtConfig,
    encoding_probability,
)
from repro.compression.reseeding import ReseedingCompressor, ReseedingConfig

CONFIG = ReseedingConfig(lfsr_length=32, n_chains=8, chain_length=16)


class TestSolveExpand:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_expansion_honours_care_bits(self, seed):
        rng = random.Random(seed)
        compressor = ReseedingCompressor(CONFIG)
        cells = [
            (chain, position)
            for chain in range(CONFIG.n_chains)
            for position in range(CONFIG.chain_length)
        ]
        care = {cell: rng.randint(0, 1) for cell in rng.sample(cells, 8)}
        lfsr_seed = compressor.solve_cube(care)
        assert lfsr_seed is not None
        assert lfsr_seed != 0
        assert compressor.verify(care, lfsr_seed)

    def test_symbolic_matches_concrete(self):
        """The seed-bit masks must predict the concrete expansion."""
        from repro.compression.gf2 import dot_bits

        compressor = ReseedingCompressor(CONFIG)
        equations = compressor.cell_equations()
        seed_value = 0xDEADBEEF & ((1 << 32) - 1)
        seed_bits = [(seed_value >> bit) & 1 for bit in range(32)]
        loads = compressor.expand(seed_value)
        for cycle in range(CONFIG.chain_length):
            position = CONFIG.chain_length - 1 - cycle
            for chain in range(CONFIG.n_chains):
                predicted = dot_bits(equations[cycle][chain], seed_bits)
                assert loads[chain][position] == predicted

    def test_zero_solution_cubes_match_exhaustive_search(self):
        """An all-zero cube is unencodable only when no nonzero seed
        reproduces it; every seed of an 8-bit LFSR is tried."""
        config = ReseedingConfig(lfsr_length=8, n_chains=4, chain_length=6)
        compressor = ReseedingCompressor(config)
        loads = {seed: compressor.expand(seed) for seed in range(1, 256)}
        cells = [(chain, position) for chain in range(4) for position in range(6)]
        rng = random.Random(8)
        encodable = 0
        for _ in range(300):
            care = {cell: 0 for cell in rng.sample(cells, rng.randint(1, 12))}
            seeds = [
                seed
                for seed, load in loads.items()
                if all(load[chain][position] == 0 for chain, position in care)
            ]
            solution = compressor.solve_cube(care)
            assert (solution is not None) == bool(seeds)
            if solution is not None:
                assert solution in seeds
                encodable += 1
        assert encodable > 0

    def test_overconstrained_fails(self):
        rng = random.Random(2)
        compressor = ReseedingCompressor(CONFIG)
        care = {
            (chain, position): rng.randint(0, 1)
            for chain in range(CONFIG.n_chains)
            for position in range(CONFIG.chain_length)
        }
        assert compressor.solve_cube(care) is None

    def test_range_checks(self):
        compressor = ReseedingCompressor(CONFIG)
        with pytest.raises(ValueError):
            compressor.solve_cube({(99, 0): 1})


class TestCapacityContrast:
    def test_seed_length_caps_capacity(self):
        """Reseeding's knee sits at the LFSR length regardless of shift
        length — EDT's grows with it.  The structural reason EDT won."""
        counts = [8, 24, 40, 64]
        reseed = dict(
            encoding_probability(ReseedingCompressor(CONFIG), counts, seed=4)
        )
        assert reseed[8] > 0.95
        assert reseed[24] > 0.7
        assert reseed[40] == 0.0  # > 32 variables: impossible
        # EDT with the same per-pattern *storage* (2 ch x 16+8 cycles = 48
        # variables) keeps encoding where reseeding has already died.
        edt_config = EdtConfig(n_channels=2, n_chains=8, chain_length=16)
        edt = dict(encoding_probability(Decompressor(edt_config), counts, seed=4))
        assert edt[40] > reseed[40]
