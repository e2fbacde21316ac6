"""March test algorithms for memory BIST.

A March test is a sequence of *elements*; each element walks the address
space in a direction (``UP``, ``DOWN``, or either) applying a fixed list of
read/write operations to every address before moving on.  The notation
``⇑(r0, w1)`` reads "ascending through all addresses: read expecting 0,
then write 1".

The classic suite implemented here (N = number of addresses):

=========  ==========  ========================================
Algorithm  Complexity  Detects
=========  ==========  ========================================
MATS       4N          some SAF (AF partially)
MATS+      5N          SAF, AF
MATS++     6N          SAF, AF, TF (partially)
March X    6N          SAF, AF, TF, CFin
March Y    8N          SAF, AF, TF, CFin, some linked
March C-   10N         SAF, AF, TF, CFin, CFid, CFst
March A    15N         SAF, AF, TF, CFin, CFid, some linked
March B    17N         March A + more linked faults
=========  ==========  ========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple


class Direction(Enum):
    """Address-walk direction of a March element."""

    UP = "up"
    DOWN = "down"
    EITHER = "either"  # direction irrelevant; runs ascending


@dataclass(frozen=True)
class Operation:
    """One read or write: ``kind`` in {'r', 'w'}, ``value`` in {0, 1}."""

    kind: str
    value: int

    def __str__(self) -> str:
        return f"{self.kind}{self.value}"


def r0() -> Operation:
    return Operation("r", 0)


def r1() -> Operation:
    return Operation("r", 1)


def w0() -> Operation:
    return Operation("w", 0)


def w1() -> Operation:
    return Operation("w", 1)


@dataclass(frozen=True)
class MarchElement:
    """A direction plus its per-address operation list."""

    direction: Direction
    operations: Tuple[Operation, ...]

    def __str__(self) -> str:
        arrow = {"up": "⇑", "down": "⇓", "either": "⇕"}[self.direction.value]
        ops = ",".join(str(op) for op in self.operations)
        return f"{arrow}({ops})"


@dataclass(frozen=True)
class MarchTest:
    """A named March algorithm."""

    name: str
    elements: Tuple[MarchElement, ...]

    @property
    def complexity(self) -> int:
        """Operations per address (the xN in "10N")."""
        return sum(len(element.operations) for element in self.elements)

    def __str__(self) -> str:
        return f"{self.name}: " + "; ".join(str(e) for e in self.elements)


def _element(direction: Direction, *operations: Operation) -> MarchElement:
    return MarchElement(direction, tuple(operations))


MATS = MarchTest(
    "MATS",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.EITHER, r0(), w1()),
        _element(Direction.EITHER, r1()),
    ),
)

MATS_PLUS = MarchTest(
    "MATS+",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1()),
        _element(Direction.DOWN, r1(), w0()),
    ),
)

MATS_PLUS_PLUS = MarchTest(
    "MATS++",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1()),
        _element(Direction.DOWN, r1(), w0(), r0()),
    ),
)

MARCH_X = MarchTest(
    "March X",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1()),
        _element(Direction.DOWN, r1(), w0()),
        _element(Direction.EITHER, r0()),
    ),
)

MARCH_Y = MarchTest(
    "March Y",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1(), r1()),
        _element(Direction.DOWN, r1(), w0(), r0()),
        _element(Direction.EITHER, r0()),
    ),
)

MARCH_C_MINUS = MarchTest(
    "March C-",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1()),
        _element(Direction.UP, r1(), w0()),
        _element(Direction.DOWN, r0(), w1()),
        _element(Direction.DOWN, r1(), w0()),
        _element(Direction.EITHER, r0()),
    ),
)

MARCH_A = MarchTest(
    "March A",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1(), w0(), w1()),
        _element(Direction.UP, r1(), w0(), w1()),
        _element(Direction.DOWN, r1(), w0(), w1(), w0()),
        _element(Direction.DOWN, r0(), w1(), w0()),
    ),
)

MARCH_B = MarchTest(
    "March B",
    (
        _element(Direction.EITHER, w0()),
        _element(Direction.UP, r0(), w1(), r1(), w0(), r0(), w1()),
        _element(Direction.UP, r1(), w0(), w1()),
        _element(Direction.DOWN, r1(), w0(), w1(), w0()),
        _element(Direction.DOWN, r0(), w1(), w0()),
    ),
)

#: All algorithms, cheapest first — the E7 coverage-matrix rows.
ALL_MARCH_TESTS: Tuple[MarchTest, ...] = (
    MATS,
    MATS_PLUS,
    MATS_PLUS_PLUS,
    MARCH_X,
    MARCH_Y,
    MARCH_C_MINUS,
    MARCH_A,
    MARCH_B,
)


def operation_count(test: MarchTest, n_addresses: int) -> int:
    """Total memory operations the test performs on an N-address array."""
    return test.complexity * n_addresses
