"""Test-set compaction.

**Static compaction** merges test cubes whose specified bits do not
conflict (an X position accepts either value), after generation.  It
shrinks the pattern count without losing coverage; E4 uses the cube
statistics (care-bit density) exposed here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuit.values import X


def cubes_compatible(first: Sequence[int], second: Sequence[int]) -> bool:
    """True when no position holds opposite specified values."""
    for a, b in zip(first, second):
        if a != X and b != X and a != b:
            return False
    return True


def merge_cubes(first: Sequence[int], second: Sequence[int]) -> List[int]:
    """Intersection of two compatible cubes (specified bits win over X)."""
    return [b if a == X else a for a, b in zip(first, second)]


def static_compact(cubes: Sequence[Sequence[int]]) -> List[List[int]]:
    """Greedy first-fit merging of compatible cubes.

    Cubes are processed most-specified-first, each merged into the first
    compatible bin; typical reductions are 2-5x on PODEM output.
    """
    ordered = sorted(cubes, key=lambda c: -sum(1 for v in c if v != X))
    bins: List[List[int]] = []
    for cube in ordered:
        for position, existing in enumerate(bins):
            if cubes_compatible(existing, cube):
                bins[position] = merge_cubes(existing, cube)
                break
        else:
            bins.append(list(cube))
    return bins


def care_bit_stats(cubes: Sequence[Sequence[int]]) -> Tuple[int, int, float]:
    """``(care_bits, total_bits, density)`` across a cube set."""
    care = sum(1 for cube in cubes for value in cube if value != X)
    total = sum(len(cube) for cube in cubes)
    density = care / total if total else 0.0
    return care, total, density
