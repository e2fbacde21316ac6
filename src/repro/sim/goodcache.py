"""Process-wide good-machine response cache.

Fault-simulation flows repeatedly evaluate the *same* fault-free blocks:
ATPG's coverage top-off re-grades phase-2 fills it already simulated once,
benchmark sweeps and coverage-curve experiments re-run whole flows
with the same seeds, and hierarchical broadcast grades structurally
identical cores with identical patterns.  Each of those passes walks the
full gate schedule again just to rebuild words it has already computed.

:class:`GoodMachineCache` memoizes packed good-machine responses keyed by
``(netlist structural signature, n_patterns, packed input words)``.  The
signature (see :meth:`repro.circuit.netlist.Netlist.structural_signature`)
is name-independent, so clones and replicated cores share entries.  The
cache is bounded by an approximate byte budget with LRU eviction — wide
words (4096 patterns per block) make entries large, so bounding by entry
*count* alone would not bound memory.

Cached word lists are shared between all callers and MUST be treated as
immutable (every engine in :mod:`repro.sim` already does).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

#: Default byte budget (approximate) for the process-wide cache.  At the
#: default 64-bit word width a 5k-gate block is ~200 KB, so the default
#: budget holds a few hundred blocks; at width 4096 it holds a handful.
DEFAULT_MAX_BYTES = 64 << 20

#: Cache key: (netlist signature, n_patterns, packed input content) — the
#: masked input words under the python kernel, the packed lane bytes under
#: numpy.  Both kernels store the same value type: one bigint per gate.
CacheKey = Tuple[str, int, Union[Tuple[int, ...], bytes]]


class GoodMachineCache:
    """Bounded LRU cache of packed good-machine responses."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[CacheKey, List[int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _entry_bytes(words: List[int], n_patterns: int) -> int:
        # A CPython int costs ~28 bytes plus its payload, and the list adds
        # one pointer per element.
        return len(words) * (36 + n_patterns // 8) + 64

    def get(self, key: CacheKey) -> Optional[List[int]]:
        """The cached words for ``key``, or ``None`` (updates LRU order)."""
        words = self._entries.get(key)
        if words is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return words

    def put(self, key: CacheKey, words: List[int], n_patterns: int) -> None:
        """Store a block, evicting least-recently-used entries if needed."""
        cost = self._entry_bytes(words, n_patterns)
        if cost > self.max_bytes:
            return  # one pathological block must not flush everything else
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = words
        self._bytes += cost
        while self._bytes > self.max_bytes and self._entries:
            old_key, old_words = self._entries.popitem(last=False)
            self._bytes -= self._entry_bytes(old_words, old_key[1])
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and ``FaultSimResult.stats`` reporting."""
        return {
            "entries": len(self._entries),
            "approx_bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide cache every simulator uses unless given its own (or
#: ``cache=None`` to disable caching entirely).
DEFAULT_CACHE = GoodMachineCache()

#: Sentinel meaning "use :data:`DEFAULT_CACHE`" in simulator constructors,
#: so ``cache=None`` stays available as the explicit off switch.
USE_DEFAULT = object()


def resolve_cache(cache: object) -> Optional[GoodMachineCache]:
    """Map a constructor's ``cache`` argument to a cache instance or None."""
    if cache is USE_DEFAULT:
        return DEFAULT_CACHE
    if cache is None or isinstance(cache, GoodMachineCache):
        return cache
    raise TypeError(f"cache must be a GoodMachineCache or None, got {cache!r}")
