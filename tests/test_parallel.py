"""Bit-parallel simulation must agree with the event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import benchmarks, generators
from repro.sim.logicsim import LogicSimulator
from repro.sim.parallel import (
    WORD_WIDTH,
    PackedPatterns,
    ParallelSimulator,
    pack_patterns,
    unpack_word,
)


def _packed(rows):
    return PackedPatterns(
        tuple(pack_patterns(rows, i) for i in range(len(rows[0]))), len(rows)
    )


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        patterns = [[1, 0], [0, 1], [1, 1]]
        word = pack_patterns(patterns, 0)
        assert unpack_word(word, 3) == [1, 0, 1]
        word = pack_patterns(patterns, 1)
        assert unpack_word(word, 3) == [0, 1, 1]

    def test_packed_patterns_slices_and_rows(self):
        rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]]
        packed = _packed(rows)
        assert len(packed) == 4
        assert list(packed) == rows
        assert packed[1:3] == _packed(rows[1:3])
        assert packed[3:10] == _packed(rows[3:])
        assert len(packed[5:]) == 0
        assert list(packed[5:]) == []


class TestAgreementWithEventSim:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_c17_random_batches(self, seed):
        import random

        rng = random.Random(seed)
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        logic = LogicSimulator(netlist)
        patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(16)]
        expected = [logic.response(p) for p in patterns]
        assert parallel.responses(patterns) == expected

    def test_sequential_view_agreement(self):
        import random

        rng = random.Random(3)
        netlist = generators.random_sequential(6, 60, 8, seed=1)
        parallel = ParallelSimulator(netlist)
        logic = LogicSimulator(netlist)
        width = parallel.view.num_inputs
        patterns = [[rng.randint(0, 1) for _ in range(width)] for _ in range(70)]
        expected = [logic.response(p) for p in patterns]
        assert parallel.responses(patterns) == expected

    def test_batches_larger_than_word(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        patterns = [[(i >> b) & 1 for b in range(5)] for i in range(WORD_WIDTH + 7)]
        responses = parallel.responses(patterns)
        assert len(responses) == WORD_WIDTH + 7


class TestValidation:
    def test_too_many_patterns_per_pass(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        with pytest.raises(ValueError):
            parallel.evaluate_words([0] * 5, WORD_WIDTH + 1)

    def test_wrong_word_count(self):
        netlist = benchmarks.c17()
        parallel = ParallelSimulator(netlist)
        with pytest.raises(ValueError):
            parallel.evaluate_words([0, 0], 4)
