"""X-compact: X-tolerant spatial compaction (Mitra & Kim).

A plain XOR compactor loses every detection in a group the moment one
chain unloads an X.  X-compact instead fans **each chain into several
output channels**, choosing the channel subsets (the compactor matrix
rows) as *distinct constant-weight codewords*.  Two properties follow:

* **single-error visibility under one X chain** — equal-weight distinct
  sets are never subsets of each other, so an erroring chain always owns
  at least one channel the X chain does not poison;
* **error localization** — a single failing chain flips exactly its own
  channel subset, so the syndrome *is* the chain's codeword.

This is the standard alternative to masking when X density is low.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .compactor import SpatialCompactor


@dataclass(frozen=True)
class XCompactConfig:
    """Geometry: chains into channels with constant-weight rows."""

    n_chains: int
    n_channels: int
    row_weight: int = 3

    def __post_init__(self):
        if self.row_weight < 1 or self.row_weight > self.n_channels:
            raise ValueError("row weight must be in [1, n_channels]")
        capacity = comb(self.n_channels, self.row_weight)
        if self.n_chains > capacity:
            raise ValueError(
                f"{self.n_channels} channels at weight {self.row_weight} "
                f"support at most {capacity} chains, got {self.n_chains}"
            )


class XCompactor(SpatialCompactor):
    """Constant-weight-code spatial compactor: chain ``i`` feeds the
    channels of ``rows[i]``."""

    def __init__(self, config: XCompactConfig):
        self.config = config
        self.rows: List[Tuple[int, ...]] = list(
            combinations(range(config.n_channels), config.row_weight)
        )[: config.n_chains]
        self._row_index: Dict[Tuple[int, ...], int] = {
            row: chain for chain, row in enumerate(self.rows)
        }
        super().__init__(
            [
                [chain for chain, row in enumerate(self.rows) if channel in row]
                for channel in range(config.n_channels)
            ]
        )

    def locate_failing_chain(
        self,
        good_streams: Sequence[Sequence[int]],
        faulty_streams: Sequence[Sequence[int]],
    ) -> Optional[int]:
        """Decode a single-chain failure from the channel syndrome.

        If the set of channels that miscompare on any cycle equals one
        row's codeword, returns that chain.  Multiple-chain failures
        generally produce unmatched syndromes (None).
        """
        syndrome = self.syndrome(good_streams, faulty_streams)
        return self._row_index.get(tuple(sorted(syndrome)))


def minimum_channels(n_chains: int, row_weight: int = 3) -> int:
    """Fewest channels supporting ``n_chains`` at the given row weight."""
    channels = row_weight
    while comb(channels, row_weight) < n_chains:
        channels += 1
    return channels
