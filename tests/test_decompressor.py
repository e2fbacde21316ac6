"""EDT decompressor: solving, expansion, capacity behaviour."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.decompressor import (
    Decompressor,
    EdtConfig,
    encoding_probability,
)

CONFIG = EdtConfig(n_channels=2, n_chains=8, chain_length=16, generator_length=24)


class TestSolveExpand:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_expansion_honours_care_bits(self, seed):
        rng = random.Random(seed)
        decompressor = Decompressor(CONFIG)
        cells = [
            (chain, position)
            for chain in range(CONFIG.n_chains)
            for position in range(CONFIG.chain_length)
        ]
        chosen = rng.sample(cells, 10)
        care = {cell: rng.randint(0, 1) for cell in chosen}
        variables = decompressor.solve_cube(care)
        assert variables is not None  # 10 care bits << 32 variables
        assert decompressor.verify(care, variables)

    def test_empty_cube_trivially_encodable(self):
        decompressor = Decompressor(CONFIG)
        variables = decompressor.solve_cube({})
        assert variables is not None
        loads = decompressor.expand(variables)
        assert len(loads) == CONFIG.n_chains
        assert all(len(chain) == CONFIG.chain_length for chain in loads)

    def test_overconstrained_cube_fails(self):
        """More care bits than variables cannot all be satisfied."""
        decompressor = Decompressor(CONFIG)
        rng = random.Random(1)
        care = {
            (chain, position): rng.randint(0, 1)
            for chain in range(CONFIG.n_chains)
            for position in range(CONFIG.chain_length)
        }
        # 128 equations, 32 variables: essentially certain to be infeasible.
        assert decompressor.solve_cube(care) is None

    def test_out_of_range_rejected(self):
        decompressor = Decompressor(CONFIG)
        with pytest.raises(ValueError):
            decompressor.solve_cube({(99, 0): 1})
        with pytest.raises(ValueError):
            decompressor.solve_cube({(0, 99): 1})

    def test_more_channels_than_generator_cells_rejected(self):
        """A channel without its own injector cell would make solutions that
        do not reproduce the cube; the geometry is refused instead."""
        with pytest.raises(ValueError, match="generator cells"):
            Decompressor(
                EdtConfig(
                    n_channels=6,
                    n_chains=8,
                    chain_length=8,
                    generator_length=4,
                    warmup_cycles=2,
                )
            )
        Decompressor(EdtConfig(4, n_chains=8, chain_length=8, generator_length=4))

    def test_channel_stream_shape(self):
        decompressor = Decompressor(CONFIG)
        variables = decompressor.solve_cube({(0, 0): 1})
        stream = decompressor.variables_to_channel_stream(variables)
        assert len(stream) == CONFIG.chain_length + CONFIG.warmup_cycles
        assert all(len(cycle) == CONFIG.n_channels for cycle in stream)

    def test_warmup_makes_every_cell_controllable(self):
        from repro.compression.gf2 import rank_of

        decompressor = Decompressor(CONFIG)
        equations = decompressor.cell_equations()
        rows = [
            equations[cycle][chain]
            for cycle in range(CONFIG.chain_length)
            for chain in range(CONFIG.n_chains)
        ]
        assert all(row != 0 for row in rows)


class TestEncodingCapacity:
    def test_success_collapses_past_knee(self):
        results = dict(
            encoding_probability(Decompressor(CONFIG), [4, 16, 28, 48, 96], seed=3)
        )
        assert results[4] == 1.0
        assert results[16] > 0.9
        assert results[96] < 0.1
        # Monotone non-increasing overall trend.
        assert results[4] >= results[28] >= results[96]

    def test_more_channels_raise_capacity(self):
        few = dict(encoding_probability(Decompressor(CONFIG), [30], seed=5))[30]
        rich_config = EdtConfig(
            n_channels=4, n_chains=8, chain_length=16, generator_length=24
        )
        rich = dict(encoding_probability(Decompressor(rich_config), [30], seed=5))[30]
        assert rich >= few
