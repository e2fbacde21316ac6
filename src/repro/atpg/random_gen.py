"""Random and weighted-random pattern generation.

Plain uniform patterns drive the random phase of the ATPG flow (E1) and the
coverage-curve experiment (E2); weighted patterns are the classic remedy
for random-resistant logic and feed the LBIST experiment (E6).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..sim.parallel import PackedPatterns


def _random_rows(n_inputs: int, count: int, seed: int) -> List[int]:
    """One ``getrandbits(n_inputs)`` word per pattern, bit *i* input *i*."""
    if not n_inputs:
        return [0] * count
    rng = random.Random(seed)
    return [rng.getrandbits(n_inputs) for _ in range(count)]


def random_patterns(n_inputs: int, count: int, seed: int = 0) -> List[List[int]]:
    """``count`` uniform random fully-specified patterns."""
    return [
        [(word >> bit) & 1 for bit in range(n_inputs)]
        for word in _random_rows(n_inputs, count, seed)
    ]


def packed_random_patterns(n_inputs: int, count: int, seed: int = 0) -> PackedPatterns:
    """The patterns of :func:`random_patterns`, packed one word per input."""
    if not n_inputs:
        return PackedPatterns((), count)
    spec = f"0{n_inputs}b"
    rows = [format(word, spec)[::-1] for word in _random_rows(n_inputs, count, seed)]
    return PackedPatterns.from_text(rows, n_inputs)


def weighted_random_patterns(
    n_inputs: int,
    count: int,
    weights: Sequence[float],
    seed: int = 0,
) -> List[List[int]]:
    """Random patterns with a per-input probability of being 1.

    ``weights[i]`` is P(input *i* = 1).  Weighted random testing biases
    inputs toward the values that excite random-resistant faults.
    """
    if len(weights) != n_inputs:
        raise ValueError(f"need {n_inputs} weights, got {len(weights)}")
    rng = random.Random(seed)
    return [
        [1 if rng.random() < weight else 0 for weight in weights]
        for _ in range(count)
    ]


def exhaustive_patterns(n_inputs: int, limit: Optional[int] = None) -> List[List[int]]:
    """All ``2**n`` input combinations (optionally truncated to ``limit``)."""
    total = 1 << n_inputs
    if limit is not None:
        total = min(total, limit)
    return [
        [(value >> bit) & 1 for bit in range(n_inputs)] for value in range(total)
    ]
