"""Table-driven D-calculus for the ATPG hot path.

A D-pair (good, faulty) with rails in {0, 1, X} is encoded as one integer
``good * 3 + faulty`` (X encoded as 2), giving nine values.  All gate
operations become tuple lookups — roughly 3x faster than evaluating the
two rails through the general 4-valued functions, which profiling shows is
where PODEM spends its time.

Canonical encodings::

    D0 = 0   (0,0)      D  = 3   (1,0)
    DB = 1   (0,1)      D1 = 4   (1,1)
    DX = 8   (X,X)
"""

from __future__ import annotations

from typing import Tuple

#: Rail encoding inside a packed value.
_R0, _R1, _RAIL_X = 0, 1, 2

#: Packed constants.
D0 = _R0 * 3 + _R0  # good 0, faulty 0
DB = _R0 * 3 + _R1  # D-bar: good 0, faulty 1
D = _R1 * 3 + _R0  # D: good 1, faulty 0
D1 = _R1 * 3 + _R1  # good 1, faulty 1
DX = _RAIL_X * 3 + _RAIL_X  # both unknown


def pack(good: int, faulty: int) -> int:
    """Pack two rails (0/1/2) into one encoded value."""
    return good * 3 + faulty


def good_rail(value: int) -> int:
    return value // 3


def faulty_rail(value: int) -> int:
    return value % 3


def _rail_and(a: int, b: int) -> int:
    if a == _R0 or b == _R0:
        return _R0
    if a == _R1 and b == _R1:
        return _R1
    return _RAIL_X


def _rail_or(a: int, b: int) -> int:
    if a == _R1 or b == _R1:
        return _R1
    if a == _R0 and b == _R0:
        return _R0
    return _RAIL_X


def _rail_xor(a: int, b: int) -> int:
    if a == _RAIL_X or b == _RAIL_X:
        return _RAIL_X
    return a ^ b


def _rail_not(a: int) -> int:
    if a == _RAIL_X:
        return _RAIL_X
    return 1 - a


def _build_binary(rail_op) -> Tuple[Tuple[int, ...], ...]:
    table = []
    for left in range(9):
        row = []
        for right in range(9):
            good = rail_op(left // 3, right // 3)
            faulty = rail_op(left % 3, right % 3)
            row.append(good * 3 + faulty)
        table.append(tuple(row))
    return tuple(table)


#: Binary operation tables indexed ``TABLE[a][b]``.
AND_TABLE = _build_binary(_rail_and)
OR_TABLE = _build_binary(_rail_or)
XOR_TABLE = _build_binary(_rail_xor)

#: Unary NOT table.
NOT_TABLE = tuple(
    _rail_not(v // 3) * 3 + _rail_not(v % 3) for v in range(9)
)

#: Values whose two rails are known and differ (a visible fault effect).
FAULTED = frozenset({D, DB})


def has_x(value: int) -> bool:
    """Either rail unknown?"""
    return value // 3 == _RAIL_X or value % 3 == _RAIL_X


def is_faulted(value: int) -> bool:
    """Both rails known and different?"""
    return value == D or value == DB


def from_fourvalued(good: int, faulty: int) -> int:
    """Pack two 4-valued rails (Z treated as X)."""
    g = _RAIL_X if good > 1 else good
    f = _RAIL_X if faulty > 1 else faulty
    return g * 3 + f
