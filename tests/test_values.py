"""4-valued algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.values import (
    FOUR_VALUES,
    ONE,
    X,
    Z,
    ZERO,
    char_to_value,
    string_to_values,
    v_and,
    v_not,
    v_or,
    v_xor,
    value_to_char,
    values_to_string,
)

logic_values = st.sampled_from(FOUR_VALUES)
binary = st.sampled_from((ZERO, ONE))


class TestFourValuedOperators:
    def test_not_known_values(self):
        assert v_not(ZERO) == ONE
        assert v_not(ONE) == ZERO

    def test_not_unknowns(self):
        assert v_not(X) == X
        assert v_not(Z) == X

    def test_and_controlling_zero(self):
        for value in FOUR_VALUES:
            assert v_and(ZERO, value) == ZERO
            assert v_and(value, ZERO) == ZERO

    def test_and_identity_one(self):
        assert v_and(ONE, ONE) == ONE
        assert v_and(ONE, X) == X
        assert v_and(ONE, Z) == X

    def test_or_controlling_one(self):
        for value in FOUR_VALUES:
            assert v_or(ONE, value) == ONE
            assert v_or(value, ONE) == ONE

    def test_or_identity_zero(self):
        assert v_or(ZERO, ZERO) == ZERO
        assert v_or(ZERO, X) == X

    def test_xor_with_unknown_is_unknown(self):
        assert v_xor(X, ONE) == X
        assert v_xor(ZERO, Z) == X

    def test_xor_known(self):
        assert v_xor(ONE, ONE) == ZERO
        assert v_xor(ONE, ZERO) == ONE

    @given(a=binary, b=binary)
    def test_known_values_match_boolean_algebra(self, a, b):
        assert v_and(a, b) == (a & b)
        assert v_or(a, b) == (a | b)
        assert v_xor(a, b) == (a ^ b)

    @given(a=logic_values, b=logic_values)
    def test_commutativity(self, a, b):
        assert v_and(a, b) == v_and(b, a)
        assert v_or(a, b) == v_or(b, a)
        assert v_xor(a, b) == v_xor(b, a)

    @given(a=logic_values)
    def test_double_negation_collapses_z_to_x(self, a):
        twice = v_not(v_not(a))
        if a in (ZERO, ONE):
            assert twice == a
        else:
            assert twice == X


class TestStringConversion:
    def test_round_trip(self):
        text = "01XZ"
        assert values_to_string(string_to_values(text)) == "01XZ"

    def test_lowercase_accepted(self):
        assert char_to_value("x") == X
        assert char_to_value("z") == Z

    def test_invalid_char_raises(self):
        with pytest.raises(ValueError):
            char_to_value("q")

    def test_value_to_char(self):
        assert [value_to_char(v) for v in FOUR_VALUES] == ["0", "1", "X", "Z"]
