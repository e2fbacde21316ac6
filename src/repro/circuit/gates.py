"""Gate primitives: types, truth semantics, and evaluation helpers.

The netlist uses a small primitive library — the same one the ISCAS
benchmarks and most ATPG papers use — plus pseudo-gates for ports and
sequential elements:

===========  =========================================================
``INPUT``    primary input (no fanin)
``OUTPUT``   primary output marker (single fanin, transparent)
``BUF``      buffer
``NOT``      inverter
``AND/NAND`` n-input
``OR/NOR``   n-input
``XOR/XNOR`` n-input (parity / inverted parity)
``CONST0``   constant 0 driver
``CONST1``   constant 1 driver
``MUX2``     2:1 mux, fanin order ``(select, a, b)``; out = a when sel=0
``DFF``      D flip-flop, fanin ``(d,)``; clock is implicit
``SDFF``     scan D flip-flop, fanin ``(d, scan_in, scan_enable)``
===========  =========================================================

Evaluation is provided for the 2- and 4-valued algebras of
:mod:`repro.circuit.values` (the D-calculus lives in
:mod:`repro.circuit.dcalc`) plus 64-way bit-parallel 2-valued evaluation
(one Python int per signal, ``width`` patterns per word).
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .values import ONE, X, ZERO, v_and, v_not, v_or, v_xor


class GateType(Enum):
    """Primitive gate kinds supported by the netlist."""

    INPUT = "input"
    OUTPUT = "output"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    CONST0 = "const0"
    CONST1 = "const1"
    MUX2 = "mux2"
    DFF = "dff"
    SDFF = "sdff"


#: Gate types that hold state between clock cycles.
SEQUENTIAL_TYPES = frozenset({GateType.DFF, GateType.SDFF})

#: Gate types that take no fanin.
SOURCE_TYPES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})

#: Controlling input value per gate type (None when no single value controls).
CONTROLLING_VALUE = {
    GateType.AND: ZERO,
    GateType.NAND: ZERO,
    GateType.OR: ONE,
    GateType.NOR: ONE,
}

#: Output inversion parity per gate type (True when output inverts).
INVERTING = {
    GateType.NAND: True,
    GateType.NOR: True,
    GateType.NOT: True,
    GateType.XNOR: True,
}


def controlling_value(gate_type: GateType):
    """The input value that alone determines the output, or ``None``."""
    return CONTROLLING_VALUE.get(gate_type)


def controlled_value(gate_type: GateType):
    """The output produced when a controlling input is present, or ``None``."""
    control = CONTROLLING_VALUE.get(gate_type)
    if control is None:
        return None
    if INVERTING.get(gate_type, False):
        return 1 - control
    return control


def noncontrolling_value(gate_type: GateType):
    """The input value that does not by itself decide the output."""
    control = CONTROLLING_VALUE.get(gate_type)
    if control is None:
        return None
    return 1 - control


def is_inverting(gate_type: GateType) -> bool:
    """True when the gate's output inverts its defining function."""
    return INVERTING.get(gate_type, False)


def evaluate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a gate over 4-valued inputs, returning a 4-valued output.

    ``DFF``/``SDFF`` evaluate *combinationally transparent* here (returning
    their D input); sequential behaviour lives in the simulators, which treat
    flop outputs as state.
    """
    if gate_type == GateType.CONST0:
        return ZERO
    if gate_type == GateType.CONST1:
        return ONE
    if gate_type == GateType.INPUT:
        raise ValueError("INPUT gates are driven externally, not evaluated")
    if gate_type in (GateType.BUF, GateType.OUTPUT, GateType.DFF, GateType.SDFF):
        return inputs[0]
    if gate_type == GateType.NOT:
        return v_not(inputs[0])
    if gate_type == GateType.MUX2:
        select, when0, when1 = inputs
        if select == ZERO:
            return when0
        if select == ONE:
            return when1
        # Unknown select: output known only when both data inputs agree.
        if when0 == when1 and when0 in (ZERO, ONE):
            return when0
        return X
    if gate_type in (GateType.AND, GateType.NAND):
        acc = ONE
        for value in inputs:
            acc = v_and(acc, value)
        return v_not(acc) if gate_type == GateType.NAND else acc
    if gate_type in (GateType.OR, GateType.NOR):
        acc = ZERO
        for value in inputs:
            acc = v_or(acc, value)
        return v_not(acc) if gate_type == GateType.NOR else acc
    if gate_type in (GateType.XOR, GateType.XNOR):
        acc = ZERO
        for value in inputs:
            acc = v_xor(acc, value)
        return v_not(acc) if gate_type == GateType.XNOR else acc
    raise ValueError(f"unsupported gate type: {gate_type}")


def evaluate_parallel(gate_type: GateType, inputs: Sequence[int], mask: int) -> int:
    """Bit-parallel 2-valued evaluation.

    Each input is an integer whose bits carry one pattern each; ``mask``
    selects the valid bit positions (e.g. ``(1 << 64) - 1``).  Returns the
    output word, masked.
    """
    if gate_type == GateType.CONST0:
        return 0
    if gate_type == GateType.CONST1:
        return mask
    if gate_type == GateType.INPUT:
        raise ValueError("INPUT gates are driven externally, not evaluated")
    if gate_type in (GateType.BUF, GateType.OUTPUT, GateType.DFF, GateType.SDFF):
        return inputs[0] & mask
    if gate_type == GateType.NOT:
        return ~inputs[0] & mask
    if gate_type == GateType.MUX2:
        select, when0, when1 = inputs
        return ((~select & when0) | (select & when1)) & mask
    if gate_type in (GateType.AND, GateType.NAND):
        acc = mask
        for word in inputs:
            acc &= word
        return (~acc & mask) if gate_type == GateType.NAND else acc
    if gate_type in (GateType.OR, GateType.NOR):
        acc = 0
        for word in inputs:
            acc |= word
        return (~acc & mask) if gate_type == GateType.NOR else (acc & mask)
    if gate_type in (GateType.XOR, GateType.XNOR):
        acc = 0
        for word in inputs:
            acc ^= word
        return (~acc & mask) if gate_type == GateType.XNOR else (acc & mask)
    raise ValueError(f"unsupported gate type: {gate_type}")


def compile_parallel_evaluator(gate_type: GateType, arity: int):
    """A specialized closure equivalent to :func:`evaluate_parallel`.

    Returns ``fn(inputs, mask) -> word`` with the gate type's dispatch chain
    resolved once at compile time and 2-input forms unrolled — the hot inner
    call of wide-word fault simulation, where the generic evaluator's
    ``if``-ladder and loop dominate the per-event cost.

    Precondition: every input word is already masked (all simulation engines
    maintain that invariant), so only inverting outputs re-mask.
    """
    if gate_type == GateType.CONST0:
        return lambda inputs, mask: 0
    if gate_type == GateType.CONST1:
        return lambda inputs, mask: mask
    if gate_type in (GateType.BUF, GateType.OUTPUT, GateType.DFF, GateType.SDFF):
        return lambda inputs, mask: inputs[0]
    if gate_type == GateType.NOT:
        return lambda inputs, mask: ~inputs[0] & mask
    if gate_type == GateType.MUX2:
        def mux2(inputs, mask):
            select = inputs[0]
            return (~select & inputs[1]) | (select & inputs[2])

        return mux2
    if gate_type in (GateType.AND, GateType.NAND):
        if arity == 2 and gate_type == GateType.AND:
            return lambda inputs, mask: inputs[0] & inputs[1]
        if arity == 2:
            return lambda inputs, mask: ~(inputs[0] & inputs[1]) & mask

        def and_n(inputs, mask, invert=gate_type == GateType.NAND):
            acc = inputs[0]
            for word in inputs[1:]:
                acc &= word
            return (~acc & mask) if invert else acc

        return and_n
    if gate_type in (GateType.OR, GateType.NOR):
        if arity == 2 and gate_type == GateType.OR:
            return lambda inputs, mask: inputs[0] | inputs[1]
        if arity == 2:
            return lambda inputs, mask: ~(inputs[0] | inputs[1]) & mask

        def or_n(inputs, mask, invert=gate_type == GateType.NOR):
            acc = inputs[0]
            for word in inputs[1:]:
                acc |= word
            return (~acc & mask) if invert else acc

        return or_n
    if gate_type in (GateType.XOR, GateType.XNOR):
        if arity == 2 and gate_type == GateType.XOR:
            return lambda inputs, mask: inputs[0] ^ inputs[1]
        if arity == 2:
            return lambda inputs, mask: ~(inputs[0] ^ inputs[1]) & mask

        def xor_n(inputs, mask, invert=gate_type == GateType.XNOR):
            acc = inputs[0]
            for word in inputs[1:]:
                acc ^= word
            return (~acc & mask) if invert else acc

        return xor_n
    if gate_type == GateType.INPUT:
        raise ValueError("INPUT gates are driven externally, not evaluated")
    raise ValueError(f"unsupported gate type: {gate_type}")


def fanin_count_valid(gate_type: GateType, count: int) -> bool:
    """Check the arity constraints of a gate type."""
    if gate_type in SOURCE_TYPES:
        return count == 0
    if gate_type in (GateType.BUF, GateType.NOT, GateType.OUTPUT, GateType.DFF):
        return count == 1
    if gate_type == GateType.MUX2:
        return count == 3
    if gate_type == GateType.SDFF:
        return count == 3
    return count >= 1
