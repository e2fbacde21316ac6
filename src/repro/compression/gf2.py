"""GF(2) linear algebra on bitmask-encoded rows.

The EDT decompressor is a linear machine: every scan-cell value is an XOR
(a GF(2) linear combination) of the injected channel bits.  Encoding a test
cube means solving ``A·x = b`` where each care bit contributes one equation.
Rows are Python ints (bit *i* set = variable *i* participates), which makes
Gaussian elimination a few machine-word XORs per row even for hundreds of
variables.
"""

from __future__ import annotations

from typing import Iterable, KeysView, List, Optional, Sequence, Tuple


class GF2System:
    """An incrementally built system of GF(2) equations ``row · x = rhs``."""

    def __init__(self, n_variables: int):
        if n_variables < 0:
            raise ValueError("variable count must be non-negative")
        self.n_variables = n_variables
        # Eliminated rows: pivot bit -> (row, rhs).
        self._pivots: dict = {}
        self.inconsistent = False

    @property
    def pivots(self) -> KeysView[int]:
        """Variables the equations pin down; every other variable is free."""
        return self._pivots.keys()

    def add_equation(self, row: int, rhs: int) -> bool:
        """Add one equation, eliminating against existing pivots.

        Returns False (and marks the system inconsistent) when the equation
        contradicts the span — the EDT "encoding failure" condition.
        """
        rhs &= 1
        for pivot, (pivot_row, pivot_rhs) in self._pivots.items():
            if row >> pivot & 1:
                row ^= pivot_row
                rhs ^= pivot_rhs
        if row == 0:
            if rhs:
                self.inconsistent = True
                return False
            return True  # redundant but consistent
        pivot = row.bit_length() - 1
        # Gauss-Jordan: clear the new pivot bit from every existing row so
        # each stored row contains exactly one pivot position.
        for existing_pivot, (existing_row, existing_rhs) in list(self._pivots.items()):
            if existing_row >> pivot & 1:
                self._pivots[existing_pivot] = (existing_row ^ row, existing_rhs ^ rhs)
        self._pivots[pivot] = (row, rhs)
        return True

    def solve(self) -> Optional[List[int]]:
        """One solution vector (free variables 0), or None if inconsistent."""
        if self.inconsistent:
            return None
        solution = [0] * self.n_variables
        # Back-substitute from high pivots down.
        for pivot in sorted(self._pivots, reverse=True):
            row, rhs = self._pivots[pivot]
            acc = rhs
            mask = row & ~(1 << pivot)
            while mask:
                low = mask & -mask
                acc ^= solution[low.bit_length() - 1]
                mask ^= low
            solution[pivot] = acc
        return solution


def solve_system(
    equations: Iterable[Tuple[int, int]], n_variables: int
) -> Optional[List[int]]:
    """Solve a batch of ``(row, rhs)`` equations; None when inconsistent."""
    system = GF2System(n_variables)
    for row, rhs in equations:
        if not system.add_equation(row, rhs):
            return None
    return system.solve()


def dot_bits(row: int, values: Sequence[int]) -> int:
    """GF(2) inner product of a bitmask row with a 0/1 vector."""
    acc = 0
    mask = row
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc & 1


def rank_of(rows: Iterable[int]) -> int:
    """Rank of a set of bitmask rows (ignoring right-hand sides)."""
    pivots: List[int] = []
    for row in rows:
        for pivot_row in pivots:
            high = 1 << (pivot_row.bit_length() - 1)
            if row & high:
                row ^= pivot_row
        if row:
            pivots.append(row)
    return len(pivots)
