"""Zero-copy shared-memory fan-out for the multiprocess backend.

The supervised backend computes the good-machine response once in the
parent and hands it to every worker partition.  Shipping it through
``Process`` args means one pickle *per partition attempt* — at ``word_width``
4096 on a replicated accelerator circuit that is megabytes per shard.
:class:`SharedArena` instead places the campaign's read-only blocks —
the packed pattern matrix and the good-machine response — in a single
:mod:`multiprocessing.shared_memory` segment that workers map by name:

* numpy-kernel blocks (uint64 lane arrays) are mapped **zero-copy**:
  the worker's arrays are views straight into the segment;
* python-kernel blocks (bigint word lists) are stored pickled and
  deserialized by each worker straight from the segment, never piped
  through the process arguments.

Lifecycle rules (the chaos suite pins these):

* The **parent owns the segment**: it creates the arena before spawning
  workers and unlinks it in a ``finally`` on every exit path — normal
  completion, worker crashes/timeouts, poisoned partitions, and
  ``KeyboardInterrupt``.  Workers never unlink.
* Workers attach by name and leave resource-tracker bookkeeping alone:
  supervised children inherit the parent's tracker process, whose
  cache is a set, so the attach-side re-register is a no-op and the
  parent's single ``unlink`` retires the name exactly once (see
  :meth:`SharedArena.attach`).
* A worker killed mid-read (chaos ``crash``/``hang`` + timeout kill)
  leaves only its mapping behind, which the OS reclaims with the
  process; the parent's unlink still removes the segment.
"""

from __future__ import annotations

import itertools
import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

#: Prefix of every arena segment name: the leak tests scan ``/dev/shm``
#: for it, and operators can attribute stray segments to this package.
SEGMENT_PREFIX = "repro_sim_"

_COUNTER = itertools.count()


def segment_names() -> List[str]:
    """Names of live arena segments on this machine (POSIX ``/dev/shm``)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-POSIX platforms
        return []
    return sorted(name for name in entries if name.startswith(SEGMENT_PREFIX))


@dataclass(frozen=True)
class ArenaBlock:
    """Manifest entry for one block inside the segment."""

    key: str
    kind: str  # "array" | "pickle"
    offset: int
    length: int
    shape: Tuple[int, ...] = ()
    dtype: str = ""


@dataclass(frozen=True)
class ArenaSpec:
    """The picklable handle workers use to attach an arena."""

    name: str
    blocks: Tuple[ArenaBlock, ...]


def _align(offset: int) -> int:
    return (offset + 7) & ~7


class SharedArena:
    """One shared-memory segment holding named read-only blocks."""

    def __init__(self, segment: shared_memory.SharedMemory, spec: ArenaSpec, owner: bool):
        self._segment = segment
        self.spec = spec
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, entries: Dict[str, object]) -> "SharedArena":
        """Pack ``entries`` (numpy arrays or picklable objects) into a
        fresh segment owned by the caller."""
        import numpy as np

        staged: List[Tuple[str, str, object, Tuple[int, ...], str]] = []
        for key, value in entries.items():
            if isinstance(value, np.ndarray):
                array = np.ascontiguousarray(value)
                staged.append((key, "array", array, array.shape, array.dtype.str))
            else:
                staged.append(
                    (key, "pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), (), "")
                )
        blocks: List[ArenaBlock] = []
        offset = 0
        for key, kind, payload, shape, dtype in staged:
            length = payload.nbytes if kind == "array" else len(payload)
            offset = _align(offset)
            blocks.append(ArenaBlock(key, kind, offset, length, tuple(shape), dtype))
            offset += length
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_COUNTER)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        view = segment.buf
        for block, (_, kind, payload, _, _) in zip(blocks, staged):
            if kind == "array":
                flat = np.ndarray(
                    (block.length,), dtype=np.uint8, buffer=view, offset=block.offset
                )
                flat[:] = payload.reshape(-1).view(np.uint8)
            else:
                view[block.offset : block.offset + block.length] = payload
        return cls(segment, ArenaSpec(name=name, blocks=tuple(blocks)), owner=True)

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedArena":
        """Map an existing arena read-only (worker side).

        Attaching re-registers the name with the resource tracker, but
        supervised workers inherit the *parent's* tracker process
        (fork and spawn both pass the tracker fd down), whose cache is a
        set — the duplicate register is a no-op and the parent's single
        ``unlink`` retires the name exactly once.  Do **not** unregister
        here: that would strip the parent's own registration and leave
        the tracker complaining about (or double-unlinking) the segment.
        Only a process attached from *outside* the multiprocessing tree
        (its own tracker) would need ``resource_tracker.unregister``.
        """
        segment = shared_memory.SharedMemory(name=spec.name)
        return cls(segment, spec, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, key: str) -> object:
        """The block stored under ``key``: a read-only array view for
        ``"array"`` blocks (zero-copy), the unpickled object otherwise."""
        import numpy as np

        for block in self.spec.blocks:
            if block.key != key:
                continue
            if block.kind == "array":
                array = np.ndarray(
                    block.shape,
                    dtype=np.dtype(block.dtype),
                    buffer=self._segment.buf,
                    offset=block.offset,
                )
                array.flags.writeable = False
                return array
            raw = bytes(self._segment.buf[block.offset : block.offset + block.length])
            return pickle.loads(raw)
        raise KeyError(key)

    def keys(self) -> List[str]:
        return [block.key for block in self.spec.blocks]

    @property
    def nbytes(self) -> int:
        return self._segment.size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent).

        Note: closing invalidates any zero-copy views previously handed
        out by :meth:`get` — workers keep the arena open for the lifetime
        of the process instead.
        """
        if not self._closed:
            self._closed = True
            try:
                self._segment.close()
            except BufferError:
                # Live views still point into the mapping (CPython keeps
                # the buffer pinned); the unlink below still frees the name
                # and the OS reclaims the memory when the views die.
                self._closed = False

    def destroy(self) -> None:
        """Owner-side teardown: close the mapping and unlink the name.

        Safe on every exit path — already-unlinked segments are ignored,
        so crash/retry/interrupt handlers can all call it unconditionally.
        """
        self.close()
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Campaign fan-out (used by the pool and supervised backends)
# ----------------------------------------------------------------------


def pack_campaign(simulator, patterns: Sequence[Sequence[int]]):
    """Place one campaign's shared blocks into a fresh arena.

    Computes the packed pattern matrix and the good-machine response for
    every ``word_width`` chunk (through the simulator's good-machine
    cache) and stores them in a single segment.  Returns
    ``(arena, meta)`` where ``meta`` is the small picklable dict workers
    need alongside the arena spec: total pattern count, per-chunk lane
    counts, word width, and kernel name.
    """
    n_patterns = len(patterns)
    width = simulator.word_width
    chunk_counts = [
        min(width, n_patterns - start) for start in range(0, n_patterns, width)
    ]
    meta = {
        "n_patterns": n_patterns,
        "chunk_counts": chunk_counts,
        "word_width": width,
        "kernel": simulator.kernel,
    }
    if simulator.kernel == "numpy":
        from . import npsim

        np_kernel = simulator.parallel.np_kernel
        bits = npsim.as_bit_matrix(patterns)
        entries: Dict[str, object] = {}
        for index, start in enumerate(range(0, n_patterns, width)):
            packed = np_kernel.pack_block(bits[start : start + width])
            block = simulator.parallel.evaluate_array(packed, chunk_counts[index])
            entries[f"patterns/{index}"] = packed
            entries[f"good/{index}"] = block.values
        return SharedArena.create(entries), meta
    return (
        SharedArena.create({"good": simulator.good_response(patterns)}),
        meta,
    )


def good_chunks_from(arena: SharedArena, meta: Dict[str, object]):
    """Rebuild the good-chunk list from an arena (either side).

    Numpy-kernel chunks come back as zero-copy
    :class:`repro.sim.npsim.GoodBlock` views into the segment; python
    kernel chunks are unpickled.  The arena must stay open as long as
    the chunks are in use.
    """
    if meta["kernel"] == "numpy":
        from . import npsim

        return [
            npsim.GoodBlock(arena.get(f"good/{index}"), count)
            for index, count in enumerate(meta["chunk_counts"])
        ]
    return arena.get("good")


def attach_campaign(spec: ArenaSpec, meta: Dict[str, object]):
    """Worker-side: map the arena and rebuild the good-chunk list.

    The returned arena must stay open as long as the chunks are in use
    (workers keep it for the process lifetime).
    """
    arena = SharedArena.attach(spec)
    return arena, good_chunks_from(arena, meta)
