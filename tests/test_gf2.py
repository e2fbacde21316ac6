"""GF(2) linear algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.gf2 import GF2System, dot_bits, rank_of, solve_system


class TestKnownSystems:
    def test_simple_solve(self):
        # x0 ^ x1 = 1, x1 = 1 -> x0 = 0.
        solution = solve_system([(0b11, 1), (0b10, 1)], 2)
        assert solution == [0, 1]

    def test_inconsistent(self):
        # x0 = 0 and x0 = 1.
        assert solve_system([(0b1, 0), (0b1, 1)], 1) is None

    def test_redundant_consistent(self):
        solution = solve_system([(0b1, 1), (0b1, 1)], 1)
        assert solution == [1]

    def test_zero_row_contradiction(self):
        assert solve_system([(0, 1)], 3) is None

    def test_free_variables_default_zero(self):
        solution = solve_system([(0b100, 1)], 3)
        assert solution == [0, 0, 1]

    def test_empty_system(self):
        assert solve_system([], 4) == [0, 0, 0, 0]


class TestPropertySolve:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_solvable_systems_verify(self, seed):
        """b := A·x for random A, x; solving returns some y with A·y = b."""
        rng = random.Random(seed)
        n_vars = rng.randint(1, 24)
        n_eqs = rng.randint(1, 30)
        secret = [rng.randint(0, 1) for _ in range(n_vars)]
        equations = []
        for _ in range(n_eqs):
            row = rng.getrandbits(n_vars)
            rhs = dot_bits(row, secret)
            equations.append((row, rhs))
        solution = solve_system(equations, n_vars)
        assert solution is not None
        for row, rhs in equations:
            assert dot_bits(row, solution) == rhs

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_incremental_matches_batch(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(1, 16)
        equations = [
            (rng.getrandbits(n_vars), rng.randint(0, 1)) for _ in range(20)
        ]
        system = GF2System(n_vars)
        ok = all(system.add_equation(row, rhs) for row, rhs in equations)
        batch = solve_system(equations, n_vars)
        assert ok == (batch is not None)
        if ok:
            solution = system.solve()
            for row, rhs in equations:
                assert dot_bits(row, solution) == rhs


class TestRank:
    def test_rank_of_independent_rows(self):
        assert rank_of([0b001, 0b010, 0b100]) == 3

    def test_rank_of_dependent_rows(self):
        assert rank_of([0b011, 0b101, 0b110]) == 2  # third = xor of first two

    def test_rank_tracks_system(self):
        system = GF2System(8)
        system.add_equation(0b11, 0)
        system.add_equation(0b10, 1)
        system.add_equation(0b01, 1)  # dependent
        assert len(system.pivots) == 2

    def test_dot_bits(self):
        assert dot_bits(0b101, [1, 0, 1]) == 0
        assert dot_bits(0b101, [1, 0, 0]) == 1
