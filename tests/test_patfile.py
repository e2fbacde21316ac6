"""Pattern file serialization."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import benchmarks
from repro.circuit.values import X
from repro.scan.patfile import (
    PatternFormatError,
    format_patterns,
    parse_patterns,
)
from repro.sim.view import CombinationalView


class TestRoundTrip:
    def test_atpg_patterns_roundtrip(self):
        netlist = benchmarks.get_benchmark("alu4")
        result = run_atpg(netlist, seed=1)
        view = CombinationalView(netlist)
        text = format_patterns(netlist.name, view.input_names(), result.patterns)
        parsed = parse_patterns(text)
        assert parsed.circuit == "alu4"
        assert parsed.input_names == view.input_names()
        assert parsed.patterns == result.patterns

    def test_x_values_roundtrip(self):
        text = format_patterns("t", ["a", "b", "c"], [[0, X, 1]])
        parsed = parse_patterns(text)
        assert parsed.patterns == [[0, X, 1]]

    def test_expects_roundtrip(self):
        text = format_patterns(
            "t", ["a"], [[1], [0]], expects=[[0], [1]]
        )
        parsed = parse_patterns(text)
        assert parsed.expects == [[0], [1]]

    def test_packed_fills_x_as_zero(self):
        text = format_patterns("t", ["a", "b", "c"], [[0, X, 1], [X, 1, X]])
        packed = parse_patterns(text).packed(3)
        assert list(packed) == [[0, 0, 1], [0, 1, 0]]

    def test_comments_ignored(self):
        text = format_patterns("t", ["a"], [[1]]) + "# trailing comment\n"
        parsed = parse_patterns(text)
        assert parsed.patterns == [[1]]


class TestValidation:
    def test_width_mismatch_on_write(self):
        with pytest.raises(PatternFormatError):
            format_patterns("t", ["a", "b"], [[1]])

    def test_width_mismatch_on_read(self):
        with pytest.raises(PatternFormatError, match="width"):
            parse_patterns("inputs a b\npattern 0 111\n")

    def test_bad_bit(self):
        with pytest.raises(PatternFormatError, match="bad bit"):
            parse_patterns("inputs a\npattern 0 q\n")

    @pytest.mark.parametrize(
        "lines, number, index",
        [
            ("pattern 7 01\npattern 7 10", 2, "'7'"),
            ("pattern 0 01\npattern 0 10", 3, "'0'"),
            ("pattern 1 01\npattern 0 10", 2, "'1'"),
            ("pattern 0 01\npattern zz 11", 3, "'zz'"),
            ("pattern 0 01\npattern 01 11", 3, "'01'"),
            ("pattern -0 01", 2, "'-0'"),
        ],
    )
    def test_pattern_index_is_the_running_count(self, lines, number, index):
        with pytest.raises(PatternFormatError, match=f"^line {number}: .*{index}"):
            parse_patterns(f"inputs a b\n{lines}\n")

    def test_packed_rejects_a_ragged_set(self):
        parsed = parse_patterns("pattern 0 01\npattern 1 011\n")
        with pytest.raises(ValueError, match="2 bits"):
            parsed.packed(2)

    def test_count_mismatch(self):
        with pytest.raises(PatternFormatError, match="declared"):
            parse_patterns("inputs a\npatterns 2\npattern 0 1\n")

    def test_unknown_keyword(self):
        with pytest.raises(PatternFormatError, match="unknown keyword"):
            parse_patterns("frobnicate\n")

    def test_expect_before_pattern(self):
        with pytest.raises(PatternFormatError, match="expect before"):
            parse_patterns("inputs a\nexpect 1\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("patterns", "patterns needs a non-negative count"),
            ("patterns -3", "patterns needs a non-negative count"),
            ("patterns abc", "patterns needs a non-negative count"),
            ("expect", "expect needs bits"),
            ("expect 0Q", "bad bit 'Q'"),
        ],
    )
    def test_malformed_line_names_its_line(self, line, message):
        with pytest.raises(PatternFormatError, match=f"^line 3: {message}"):
            parse_patterns(f"inputs a b\npattern 0 01\n{line}\n")
