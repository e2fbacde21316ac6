"""Response compaction: XOR spatial compactors with X-masking.

On the output side of a compressed-scan architecture, many internal chains
feed a few output channels through an XOR tree.  Two complications the
tutorial highlights for AI chips (deep datapaths, memories → many unknown
responses):

* **X propagation** — an unknown chain bit poisons the XOR of its group, so
  a compactor without masking loses every other detection in that group
  that cycle;
* **X-masking** — a per-pattern mask register blocks selected chains,
  restoring observability at the cost of a little mask data.

Values here are 4-valued (``X`` = unknown); the compactor computes exact
X-pessimistic outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..circuit.values import X, ZERO


@dataclass(frozen=True)
class CompactorConfig:
    """Geometry: which chains XOR into which output channel."""

    n_chains: int
    n_channels: int
    seed: int = 0

    def groups(self) -> List[List[int]]:
        """Chains per channel — a balanced deterministic partition."""
        rng = random.Random(self.seed)
        order = list(range(self.n_chains))
        rng.shuffle(order)
        groups: List[List[int]] = [[] for _ in range(self.n_channels)]
        for position, chain in enumerate(order):
            groups[position % self.n_channels].append(chain)
        return [sorted(group) for group in groups]


class XorCompactor:
    """XOR space compactor: each chain feeds one channel, and channel ``c``
    outputs the XOR of the chains in ``groups[c]``, per shift cycle."""

    def __init__(self, config: CompactorConfig):
        self.config = config
        self.groups = config.groups()

    @property
    def n_channels(self) -> int:
        return len(self.groups)

    def compact_slice(
        self, chain_bits: Sequence[int], mask: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Compact one shift cycle's chain outputs to channel values.

        ``chain_bits`` are 4-valued; ``mask`` (0 = blocked) suppresses a
        chain entirely, turning its contribution into constant 0.
        """
        outputs: List[int] = []
        for chains in self.groups:
            acc = ZERO
            for chain in chains:
                bit = chain_bits[chain]
                if mask is not None and not mask[chain]:
                    continue
                if bit == X:
                    acc = X
                elif acc != X:
                    acc ^= bit
            outputs.append(acc)
        return outputs

    def compact_unload(
        self,
        chain_streams: Sequence[Sequence[int]],
        mask: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """Compact a full unload: ``streams[chain][cycle]`` -> per-cycle
        channel vectors (short chains pad with 0)."""
        if not chain_streams:
            return []
        n_cycles = max(len(stream) for stream in chain_streams)
        return [
            self.compact_slice(
                [
                    stream[cycle] if cycle < len(stream) else ZERO
                    for stream in chain_streams
                ],
                mask,
            )
            for cycle in range(n_cycles)
        ]

    def syndrome(
        self,
        good_streams: Sequence[Sequence[int]],
        faulty_streams: Sequence[Sequence[int]],
        mask: Optional[Sequence[int]] = None,
    ) -> Set[int]:
        """Channels whose compacted faulty response differs from good on
        some cycle.  X positions compare as equal — the tester masks them.
        """
        good = self.compact_unload(good_streams, mask)
        faulty = self.compact_unload(faulty_streams, mask)
        return {
            channel
            for good_slice, faulty_slice in zip(good, faulty)
            for channel, (g, f) in enumerate(zip(good_slice, faulty_slice))
            if g != X and f != X and g != f
        }

    def observable_difference(
        self,
        good_streams: Sequence[Sequence[int]],
        faulty_streams: Sequence[Sequence[int]],
        mask: Optional[Sequence[int]] = None,
    ) -> bool:
        """Would the compacted faulty response differ observably from good?"""
        return bool(self.syndrome(good_streams, faulty_streams, mask))


def greedy_x_mask(chain_x_density: Sequence[float], budget: int) -> List[int]:
    """Pick which chains to block: the ``budget`` X-dirtiest ones.

    Returns a 0/1 keep-mask (0 = blocked).  The simple policy commercial
    tools start from: mask the chains contributing the most X's.
    """
    order = sorted(range(len(chain_x_density)), key=lambda c: -chain_x_density[c])
    mask = [1] * len(chain_x_density)
    for chain in order[:budget]:
        if chain_x_density[chain] > 0:
            mask[chain] = 0
    return mask
