"""Gate evaluation semantics across the three engines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import (
    GateType,
    SEQUENTIAL_TYPES,
    SOURCE_TYPES,
    controlled_value,
    controlling_value,
    evaluate,
    evaluate_parallel,
    fanin_count_valid,
    is_inverting,
    noncontrolling_value,
)
from repro.circuit.values import ONE, X, Z, ZERO

LOGIC_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]


class TestScalarEvaluate:
    def test_and_truth_table(self):
        assert evaluate(GateType.AND, [ONE, ONE]) == ONE
        assert evaluate(GateType.AND, [ONE, ZERO]) == ZERO
        assert evaluate(GateType.AND, [X, ZERO]) == ZERO
        assert evaluate(GateType.AND, [X, ONE]) == X

    def test_nand_inverts_and(self):
        for inputs in ([ONE, ONE], [ZERO, ONE], [X, ONE]):
            a = evaluate(GateType.AND, inputs)
            n = evaluate(GateType.NAND, inputs)
            if a in (ZERO, ONE):
                assert n == 1 - a
            else:
                assert n == X

    def test_nor_and_or(self):
        assert evaluate(GateType.OR, [ZERO, ZERO]) == ZERO
        assert evaluate(GateType.NOR, [ZERO, ZERO]) == ONE
        assert evaluate(GateType.NOR, [ONE, X]) == ZERO

    def test_multi_input_gates(self):
        assert evaluate(GateType.AND, [ONE, ONE, ONE, ZERO]) == ZERO
        assert evaluate(GateType.XOR, [ONE, ONE, ONE]) == ONE
        assert evaluate(GateType.XNOR, [ONE, ONE, ONE]) == ZERO

    def test_buf_not(self):
        assert evaluate(GateType.BUF, [ONE]) == ONE
        assert evaluate(GateType.NOT, [ONE]) == ZERO
        assert evaluate(GateType.NOT, [Z]) == X

    def test_constants(self):
        assert evaluate(GateType.CONST0, []) == ZERO
        assert evaluate(GateType.CONST1, []) == ONE

    def test_mux_select_known(self):
        assert evaluate(GateType.MUX2, [ZERO, ONE, ZERO]) == ONE
        assert evaluate(GateType.MUX2, [ONE, ONE, ZERO]) == ZERO

    def test_mux_select_unknown(self):
        assert evaluate(GateType.MUX2, [X, ONE, ONE]) == ONE
        assert evaluate(GateType.MUX2, [X, ONE, ZERO]) == X

    def test_flops_are_transparent_combinationally(self):
        assert evaluate(GateType.DFF, [ONE]) == ONE
        assert evaluate(GateType.SDFF, [ZERO, ONE, ONE]) == ZERO

    def test_input_gate_rejects_evaluation(self):
        with pytest.raises(ValueError):
            evaluate(GateType.INPUT, [])


class TestParallelAgreesWithScalar:
    @settings(max_examples=60, deadline=None)
    @given(
        gate=st.sampled_from(LOGIC_GATES),
        bits=st.lists(
            st.lists(st.integers(0, 1), min_size=2, max_size=4),
            min_size=1,
            max_size=8,
        ),
    )
    def test_parallel_matches_scalar(self, gate, bits):
        arity = len(bits[0])
        bits = [row[:arity] + [0] * (arity - len(row)) for row in bits]
        n_patterns = len(bits)
        mask = (1 << n_patterns) - 1
        words = []
        for pin in range(arity):
            word = 0
            for pattern, row in enumerate(bits):
                word |= row[pin] << pattern
            words.append(word)
        packed = evaluate_parallel(gate, words, mask)
        for pattern, row in enumerate(bits):
            assert (packed >> pattern) & 1 == evaluate(gate, row)

    def test_parallel_mux(self):
        mask = 0b11
        out = evaluate_parallel(GateType.MUX2, [0b01, 0b10, 0b01], mask)
        # pattern 0: sel=1 -> picks when1 bit0 = 1; pattern 1: sel=0 -> when0 bit1 = 1
        assert out == 0b11

    def test_parallel_constants(self):
        assert evaluate_parallel(GateType.CONST0, [], 0b111) == 0
        assert evaluate_parallel(GateType.CONST1, [], 0b111) == 0b111


class TestGateAttributes:
    def test_controlling_values(self):
        assert controlling_value(GateType.AND) == ZERO
        assert controlling_value(GateType.NOR) == ONE
        assert controlling_value(GateType.XOR) is None

    def test_controlled_values(self):
        assert controlled_value(GateType.AND) == ZERO
        assert controlled_value(GateType.NAND) == ONE
        assert controlled_value(GateType.NOR) == ZERO
        assert controlled_value(GateType.XOR) is None

    def test_noncontrolling(self):
        assert noncontrolling_value(GateType.AND) == ONE
        assert noncontrolling_value(GateType.OR) == ZERO

    def test_inversion_parity(self):
        assert is_inverting(GateType.NAND)
        assert is_inverting(GateType.XNOR)
        assert not is_inverting(GateType.AND)
        assert not is_inverting(GateType.BUF)

    def test_arity_validation(self):
        assert fanin_count_valid(GateType.INPUT, 0)
        assert not fanin_count_valid(GateType.INPUT, 1)
        assert fanin_count_valid(GateType.NOT, 1)
        assert not fanin_count_valid(GateType.NOT, 2)
        assert fanin_count_valid(GateType.MUX2, 3)
        assert not fanin_count_valid(GateType.MUX2, 2)
        assert fanin_count_valid(GateType.SDFF, 3)
        assert fanin_count_valid(GateType.AND, 5)
        assert not fanin_count_valid(GateType.AND, 0)

    def test_type_sets(self):
        assert GateType.DFF in SEQUENTIAL_TYPES
        assert GateType.SDFF in SEQUENTIAL_TYPES
        assert GateType.INPUT in SOURCE_TYPES
        assert GateType.CONST1 in SOURCE_TYPES
