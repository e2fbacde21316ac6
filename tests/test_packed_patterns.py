"""Patterns packed at their source equal the rows they stand for.

The ATPG random phase grades :func:`packed_random_patterns` and
``repro fsim`` grades :meth:`PatternFile.packed`, both built by the
``format``/``zip`` transpose of :meth:`PackedPatterns.from_text`.  These
properties hold each to its row form bit for bit, and hold
:func:`pattern_digest` to the same value for both forms, so a shard
store is pinned to the pattern set and not to how it was passed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import packed_random_patterns, random_patterns
from repro.circuit.values import X
from repro.scan.patfile import format_patterns, parse_patterns
from repro.sim.parallel import PackedPatterns, pack_patterns
from repro.sim.store import pattern_digest

_SIZES = st.integers(0, 130)
_SEEDS = st.integers(0, 2 ** 64)


@st.composite
def _pattern_sets(draw, values=(0, 1), min_inputs=0):
    """(n_inputs, rows): up to 130 rows of ``n_inputs`` values each."""
    n_inputs = draw(st.integers(min_inputs, 130))
    row = st.lists(st.sampled_from(values), min_size=n_inputs, max_size=n_inputs)
    return n_inputs, draw(st.lists(row, max_size=130))


class TestPackedRandomStream:
    @settings(max_examples=150, deadline=None)
    @given(n_inputs=_SIZES, count=_SIZES, seed=_SEEDS)
    def test_equals_the_row_stream(self, n_inputs, count, seed):
        packed = packed_random_patterns(n_inputs, count, seed)
        rows = random_patterns(n_inputs, count, seed)
        assert packed.count == count
        assert packed.words == tuple(
            pack_patterns(rows, position) for position in range(n_inputs)
        )
        assert list(packed) == rows


class TestTextTranspose:
    @settings(max_examples=150, deadline=None)
    @given(_pattern_sets())
    def test_from_text_and_back(self, case):
        n_inputs, rows = case
        text = ["".join(map(str, row)) for row in rows]
        packed = PackedPatterns.from_text(text, n_inputs)
        assert len(packed) == len(rows) and len(packed.words) == n_inputs
        assert list(packed) == rows
        assert packed.text() == text

    @settings(max_examples=150, deadline=None)
    @given(_pattern_sets(values=(0, 1, X), min_inputs=1))
    def test_pattern_file_packs_its_rows_with_x_as_zero(self, case):
        """A file has no line for a zero-width pattern, so widths start at 1."""
        n_inputs, rows = case
        names = [f"i{index}" for index in range(n_inputs)]
        parsed = parse_patterns(format_patterns("t", names, rows))
        assert parsed.patterns == rows
        filled = [[1 if value == 1 else 0 for value in row] for row in rows]
        assert list(parsed.packed(n_inputs)) == filled


class TestDigest:
    @settings(max_examples=150, deadline=None)
    @given(_pattern_sets())
    def test_rows_and_packed_digest_alike(self, case):
        n_inputs, rows = case
        packed = PackedPatterns.from_text(
            ["".join(map(str, row)) for row in rows], n_inputs
        )
        assert pattern_digest(packed) == pattern_digest(rows)

    @settings(max_examples=50, deadline=None)
    @given(n_inputs=_SIZES, count=_SIZES, seed=_SEEDS, width=st.integers(1, 130))
    def test_a_slice_digests_like_its_rows(self, n_inputs, count, seed, width):
        packed = packed_random_patterns(n_inputs, count, seed)[:width]
        assert pattern_digest(packed) == pattern_digest(list(packed))
