"""Cube operations and static test-set compaction."""

import pytest
from hypothesis import given, strategies as st

from repro.atpg.compaction import (
    care_bit_stats,
    cubes_compatible,
    merge_cubes,
    static_compact,
)
from repro.circuit.values import X

cube_strategy = st.lists(st.sampled_from([0, 1, X]), min_size=4, max_size=4)


class TestCubeOps:
    def test_compatible(self):
        assert cubes_compatible([0, X, 1], [0, 1, X])
        assert not cubes_compatible([0, X, 1], [1, X, 1])

    def test_merge(self):
        assert merge_cubes([0, X, 1], [X, 1, 1]) == [0, 1, 1]

    @given(a=cube_strategy, b=cube_strategy)
    def test_merge_refines_both(self, a, b):
        if cubes_compatible(a, b):
            merged = merge_cubes(a, b)
            for m, va, vb in zip(merged, a, b):
                if va != X:
                    assert m == va
                if vb != X:
                    assert m == vb

    @given(cubes=st.lists(cube_strategy, min_size=1, max_size=12))
    def test_static_compact_covers_all_cubes(self, cubes):
        bins = static_compact(cubes)
        assert len(bins) <= len(cubes)
        # Every original cube must be contained in some bin.
        for cube in cubes:
            assert any(
                all(b == c or c == X for b, c in zip(bin_, cube))
                for bin_ in bins
            )

    def test_care_bit_stats(self):
        care, total, density = care_bit_stats([[0, X, 1], [X, X, X]])
        assert (care, total) == (2, 6)
        assert density == pytest.approx(2 / 6)

    def test_care_bit_stats_empty(self):
        assert care_bit_stats([]) == (0, 0, 0.0)

