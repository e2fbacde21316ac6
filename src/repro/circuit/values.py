"""Logic-value algebras used across the toolkit.

Three algebras appear in classic test literature and all are provided here:

* **2-valued** (``0``/``1``) — used by bit-parallel good-machine and fault
  simulation after X-filling.
* **4-valued** (``0``/``1``/``X``/``Z``) — used by event-driven simulation of
  circuits whose inputs may be unassigned (``X``) or undriven (``Z``).
* **5-valued D-calculus** (``0``/``1``/``X``/``D``/``D'``) — used by the ATPG
  engines, packed into small integers in :mod:`repro.circuit.dcalc`.  A
  D-value pairs a good-machine rail with a faulty-machine rail, and the
  ``v_*`` operators below are its rail-wise reference.

Values are plain small integers so they can index truth tables quickly; the
module is deliberately free of classes on the hot path.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

# ---------------------------------------------------------------------------
# 4-valued logic constants
# ---------------------------------------------------------------------------

ZERO = 0
ONE = 1
X = 2
Z = 3

_FOUR_VALUED_CHARS = "01XZ"

#: All 4-valued constants, in index order.
FOUR_VALUES: Tuple[int, int, int, int] = (ZERO, ONE, X, Z)


def value_to_char(value: int) -> str:
    """Render a 4-valued logic constant as its conventional character."""
    return _FOUR_VALUED_CHARS[value]


def char_to_value(char: str) -> int:
    """Parse ``0``, ``1``, ``X``/``x``, ``Z``/``z`` into a logic constant."""
    upper = char.upper()
    index = _FOUR_VALUED_CHARS.find(upper)
    if index < 0:
        raise ValueError(f"not a logic value character: {char!r}")
    return index


def values_to_string(values: Iterable[int]) -> str:
    """Render a vector of 4-valued constants, e.g. ``[1, 0, 2] -> '10X'``."""
    return "".join(value_to_char(v) for v in values)


def string_to_values(text: str) -> List[int]:
    """Parse a string such as ``'10XZ'`` into logic constants."""
    return [char_to_value(c) for c in text]


# ---------------------------------------------------------------------------
# 4-valued operators
#
# Z behaves as X for logic gates: an undriven input is an unknown one.  The
# tables are 4x4 tuples indexed by the constants above.
# ---------------------------------------------------------------------------


def _norm(value: int) -> int:
    """Collapse Z to X for gate evaluation."""
    return X if value == Z else value


def v_not(value: int) -> int:
    """4-valued NOT."""
    value = _norm(value)
    if value == X:
        return X
    return 1 - value


def v_and(left: int, right: int) -> int:
    """4-valued AND: 0 is controlling, X otherwise unless both 1."""
    left, right = _norm(left), _norm(right)
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE and right == ONE:
        return ONE
    return X


def v_or(left: int, right: int) -> int:
    """4-valued OR: 1 is controlling, X otherwise unless both 0."""
    left, right = _norm(left), _norm(right)
    if left == ONE or right == ONE:
        return ONE
    if left == ZERO and right == ZERO:
        return ZERO
    return X


def v_xor(left: int, right: int) -> int:
    """4-valued XOR: X if either side is unknown."""
    left, right = _norm(left), _norm(right)
    if left == X or right == X:
        return X
    return left ^ right
