"""Bit-parallel 2-valued simulation with a compiled wide-word kernel.

One Python integer per signal carries up to :attr:`ParallelSimulator.word_width`
test patterns (bit *k* of every word belongs to pattern *k*).  This is the
engine behind PPSFP fault simulation (E3) and the LBIST/compression
experiments, where thousands of fully-specified patterns must be evaluated
quickly.

Two things make the kernel fast:

* **Wide words** — ``word_width`` is configurable (the supported ladder is
  :data:`WORD_WIDTHS`, 64 → 4096).  Python bigints carry any width, so the
  constant per-gate interpreter overhead is amortized over up to 64× more
  patterns per pass.
* **Compiled schedule** — the evaluation schedule is compiled once per
  netlist into per-gate specialized closures (AND/OR/XOR/NOT/MUX fast paths
  with unrolled 2-input forms, fanin indices pre-resolved) instead of
  calling the generic ``evaluate_parallel(type, list, mask)`` dispatcher per
  gate per pass.

Evaluated blocks are memoized in a process-wide good-machine response cache
(:mod:`repro.sim.goodcache`) keyed by netlist structural signature and
packed block content, so flows that re-simulate identical pattern blocks
(ATPG top-off, repeated experiment sweeps) skip the pass entirely.
Returned word lists may therefore be shared — treat them as immutable.

X values are not represented here — callers X-fill patterns first (the
standard practice before parallel fault simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..circuit.compiled import compiled
from ..circuit.gates import GateType, compile_parallel_evaluator
from ..circuit.netlist import Netlist
from . import goodcache
from .view import CombinationalView

#: Default patterns carried per simulation pass (one machine word).
WORD_WIDTH = 64

#: The supported word-width ladder.  Any positive width works; these are the
#: sizes the benchmarks characterize.  Beyond 4096 the python kernel's
#: bit-loop packing and bigint good pass dominate and the per-gate
#: amortization has nothing left to win — the numpy kernel
#: (``kernel="numpy"``) packs and runs the good pass vectorized, so E3
#: extends the ladder to 8192/16384 on it.
WORD_WIDTHS = (64, 256, 1024, 4096)

#: The selectable good-machine kernels: ``"python"`` packs patterns and
#: runs the good pass on Python bigints, ``"numpy"`` on uint64 lane
#: arrays (:mod:`repro.sim.npsim`).  Both hand back the same per-gate
#: bigint words (:meth:`ParallelSimulator.good_words`), and fault cones
#: always propagate on bigints, so results and work counters are
#: bit-identical.  numpy wins wide-word packing and good passes on large
#: replicated circuits, python single-pattern flows (PODEM verify, serial
#: engine) — see EXPERIMENTS.md E3.
KERNELS = ("python", "numpy")

#: Maps ASCII ``"0"``/``"1"`` to bit values 0/1 for response readout.
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def validate_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of {', '.join(KERNELS)}"
        )
    return kernel


def pack_patterns(patterns: Sequence[Sequence[int]], position: int) -> int:
    """Pack bit ``position`` of any number of patterns into one word."""
    word = 0
    for bit, pattern in enumerate(patterns):
        if pattern[position]:
            word |= 1 << bit
    return word


def unpack_word(word: int, count: int) -> List[int]:
    """Expand a packed word back into ``count`` single-bit values."""
    return [(word >> bit) & 1 for bit in range(count)]


@dataclass(frozen=True)
class PackedPatterns:
    """A pattern set already packed into one word per test input.

    Bit *k* of ``words[i]`` is input *i* of pattern *k*, and no word has a
    bit at or above ``count``.  Flows that generate or read patterns a
    word at a time (the LBIST PRPG, the ATPG random phase, pattern files)
    hand this to :meth:`FaultSimulator.simulate`
    in place of a list of rows: ``len`` is the pattern count, a slice is
    the packed sub-block, and the python kernel evaluates a chunk's words
    as they are, with no :meth:`ParallelSimulator.pack_block` call.
    Iterating yields the patterns as rows, for oracles and the serial
    engine.
    """

    words: Tuple[int, ...]
    count: int

    @classmethod
    def from_text(cls, rows: Sequence[str], n_inputs: int) -> "PackedPatterns":
        """Pack patterns written as ``0``/``1`` text, character *i* input *i*.

        One transpose at C speed: ``zip`` reads the rows column by column,
        last pattern first, so each column's text is its word in binary.
        """
        if any(len(row) != n_inputs for row in rows):
            raise ValueError(f"every pattern needs {n_inputs} bits")
        if not rows:
            return cls((0,) * n_inputs, 0)
        columns = zip(*reversed(rows))
        return cls(tuple(int("".join(column), 2) for column in columns), len(rows))

    def text(self) -> List[str]:
        """Each pattern as ``0``/``1`` text: the inverse of :meth:`from_text`."""
        if not self.words or not self.count:
            return [""] * self.count
        spec = f"0{self.count}b"
        rows = ["".join(row) for row in zip(*(format(w, spec) for w in self.words))]
        rows.reverse()
        return rows

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: slice) -> "PackedPatterns":
        start, stop, step = index.indices(self.count)
        if step != 1:
            raise ValueError("PackedPatterns slices take no step")
        count = max(0, stop - start)
        mask = (1 << count) - 1
        words = tuple((word >> start) & mask for word in self.words)
        return PackedPatterns(words, count)

    def __iter__(self) -> Iterator[List[int]]:
        for bit in range(self.count):
            yield [(word >> bit) & 1 for word in self.words]


def _compile_op(out: int, gate_type: GateType, fanin: Sequence[int]) -> Callable:
    """One compiled schedule step: ``op(words, mask)`` writes ``words[out]``.

    Indices are bound as default arguments (faster than closure cells), and
    the non-inverting forms skip masking — every word in the buffer is
    already masked, an invariant :meth:`ParallelSimulator.evaluate_words`
    maintains at input load.
    """
    if gate_type in (GateType.BUF, GateType.OUTPUT):
        def op(w, m, o=out, a=fanin[0]):
            w[o] = w[a]

        return op
    if gate_type == GateType.NOT:
        def op(w, m, o=out, a=fanin[0]):
            w[o] = ~w[a] & m

        return op
    if gate_type == GateType.CONST0:
        def op(w, m, o=out):
            w[o] = 0

        return op
    if gate_type == GateType.CONST1:
        def op(w, m, o=out):
            w[o] = m

        return op
    if gate_type == GateType.MUX2:
        def op(w, m, o=out, s=fanin[0], a=fanin[1], b=fanin[2]):
            select = w[s]
            w[o] = (~select & w[a]) | (select & w[b])

        return op
    if len(fanin) == 2 and gate_type in (
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    ):
        a_index, b_index = fanin
        if gate_type == GateType.AND:
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = w[a] & w[b]

        elif gate_type == GateType.NAND:
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = ~(w[a] & w[b]) & m

        elif gate_type == GateType.OR:
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = w[a] | w[b]

        elif gate_type == GateType.NOR:
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = ~(w[a] | w[b]) & m

        elif gate_type == GateType.XOR:
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = w[a] ^ w[b]

        else:  # XNOR
            def op(w, m, o=out, a=a_index, b=b_index):
                w[o] = ~(w[a] ^ w[b]) & m

        return op
    # n-ary fallback with the dispatch still resolved at compile time.
    evaluator = compile_parallel_evaluator(gate_type, len(fanin))

    def op(w, m, o=out, fi=tuple(fanin), fn=evaluator):
        w[o] = fn([w[i] for i in fi], m)

    return op


class ParallelSimulator:
    """Word-parallel good-machine simulator over the full-scan view.

    ``word_width`` sets the patterns carried per pass (default 64, see
    :data:`WORD_WIDTHS` for the characterized ladder).  ``cache`` is a
    :class:`repro.sim.goodcache.GoodMachineCache` (default: the process-wide
    cache; pass ``None`` to disable memoization).

    Instrumentation: :attr:`evaluations` counts full-schedule passes
    actually computed, :attr:`cache_hits`/:attr:`cache_misses` count lookup
    outcomes for this instance.
    """

    def __init__(
        self,
        netlist: Netlist,
        word_width: int = WORD_WIDTH,
        cache: object = goodcache.USE_DEFAULT,
        kernel: str = "python",
    ):
        if type(word_width) is not int or word_width < 1:
            raise ValueError(
                f"word_width must be a positive integer, got {word_width!r}"
            )
        validate_kernel(kernel)
        self.netlist = netlist
        self.word_width = word_width
        self.kernel = kernel
        self.view = CombinationalView(netlist)
        # The netlist's evaluation schedule, compiled once into per-gate
        # specialized closures.
        gates = netlist.gates
        tables = compiled(netlist)
        self._ops = tuple(
            _compile_op(index, gates[index].type, tables.fanins[index])
            for index in tables.schedule
        )
        #: Gate evaluations per full-circuit pass (instrumentation unit for
        #: the fault simulators' ``words_evaluated`` counters).
        self.num_scheduled = len(tables.schedule)
        self._signature = netlist.structural_signature()
        self._cache = goodcache.resolve_cache(cache)
        self._pack_buffer: List[int] = [0] * self.view.num_inputs
        self.evaluations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: The numpy packer and good pass, present only under
        #: ``kernel="numpy"`` (the python closures above are always built —
        #: they are cheap and the serial engine evaluates through them).
        self.np_kernel = None
        if kernel == "numpy":
            from . import npsim

            self.np_kernel = npsim.NumpyKernel(
                len(gates),
                self.view.input_gates,
                [(i, gates[i].type, tables.fanins[i]) for i in tables.schedule],
            )

    @property
    def cache(self) -> Optional[goodcache.GoodMachineCache]:
        return self._cache

    def pack_block(self, patterns: Sequence[Sequence[int]]) -> List[int]:
        """Pack a pattern block into the reused per-position word buffer.

        Returns the simulator's internal buffer (one packed word per test
        input in view order) — valid until the next ``pack_block`` call.
        Reusing one preallocated list avoids rebuilding ``input_words``
        lists per chunk, which shows up in E3 profiles.
        """
        buffer = self._pack_buffer
        for position in range(len(buffer)):
            word = 0
            for bit, pattern in enumerate(patterns):
                if pattern[position]:
                    word |= 1 << bit
            buffer[position] = word
        return buffer

    def evaluate_words(
        self, input_words: Sequence[int], n_patterns: int
    ) -> List[int]:
        """Evaluate all gates for a packed batch of ``n_patterns`` patterns.

        ``input_words`` holds one packed word per test input (PIs + flops in
        view order).  Returns packed values for every gate.  The returned
        list may be served from (and is stored into) the good-machine cache:
        treat it as immutable.
        """
        if n_patterns > self.word_width:
            raise ValueError(f"at most {self.word_width} patterns per pass")
        if len(input_words) != self.view.num_inputs:
            raise ValueError(
                f"expected {self.view.num_inputs} input words, got {len(input_words)}"
            )
        mask = (1 << n_patterns) - 1
        key = None
        if self._cache is not None:
            key = (
                self._signature,
                n_patterns,
                tuple(word & mask for word in input_words),
            )
        words = self._cached(key)
        if words is None:
            words = [0] * len(self.netlist.gates)
            for position, gate_index in enumerate(self.view.input_gates):
                words[gate_index] = input_words[position] & mask
            for op in self._ops:
                op(words, mask)
            self._computed(key, words, n_patterns)
        return words

    def good_words(self, patterns: Sequence[Sequence[int]]) -> List[int]:
        """Good-machine words for one chunk of at most ``word_width`` patterns.

        Returns one bigint word per gate (bit *k* belongs to pattern *k*)
        under either kernel: python packs with :meth:`pack_block` (or takes
        a :class:`PackedPatterns` chunk's words as they are) and runs
        :meth:`evaluate_words`; numpy packs with ``np.packbits`` and runs
        the lane pass of :class:`repro.sim.npsim.NumpyKernel`.  Every
        fault-simulation consumer takes its good machine from here, and the
        list may be shared through the good-machine cache: treat it as
        immutable.
        """
        n_patterns = len(patterns)
        kernel = self.np_kernel
        if kernel is None:
            if isinstance(patterns, PackedPatterns):
                return self.evaluate_words(patterns.words, n_patterns)
            return self.evaluate_words(self.pack_block(patterns), n_patterns)
        if n_patterns > self.word_width:
            raise ValueError(f"at most {self.word_width} patterns per pass")
        if isinstance(patterns, PackedPatterns):
            patterns = list(patterns)
        packed = kernel.pack_block(patterns)
        if packed.shape[0] != self.view.num_inputs:
            raise ValueError(
                f"expected {self.view.num_inputs} input bits, got {packed.shape[0]}"
            )
        key = None
        if self._cache is not None:
            # Packed rows are zero past n_patterns, so the bytes are canonical.
            key = (self._signature, n_patterns, packed.tobytes())
        words = self._cached(key)
        if words is None:
            words = kernel.run_pass(packed, n_patterns)
            self._computed(key, words, n_patterns)
        return words

    def _cached(self, key) -> Optional[List[int]]:
        """The cached words for ``key`` (``None`` when caching is off)."""
        if key is None:
            return None
        words = self._cache.get(key)
        if words is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return words

    def _computed(self, key, words: List[int], n_patterns: int) -> None:
        """Count one computed pass and cache its words."""
        self.evaluations += 1
        if key is not None:
            self._cache.put(key, words, n_patterns)

    def evaluate_batch(self, patterns: Sequence[Sequence[int]]) -> List[List[int]]:
        """Evaluate up to ``word_width`` patterns; one response vector each.

        Each reader word is formatted as a bit string (pattern 0 first) and
        the strings are transposed with ``zip``, so the readout runs at C
        speed instead of one shift per reader per pattern.
        """
        n_patterns = len(patterns)
        if n_patterns == 0:
            return []
        words = self.good_words(patterns)
        readers = self.view.output_readers
        if not readers:
            return [[] for _ in range(n_patterns)]
        spec = f"0{n_patterns}b"
        rows = [
            format(words[reader], spec)[::-1].encode().translate(_ASCII_BITS)
            for reader in readers
        ]
        return [list(bits) for bits in zip(*rows)]

    def responses(self, patterns: Sequence[Sequence[int]]) -> List[List[int]]:
        """Evaluate any number of patterns, ``word_width`` at a time."""
        out: List[List[int]] = []
        width = self.word_width
        for start in range(0, len(patterns), width):
            out.extend(self.evaluate_batch(patterns[start : start + width]))
        return out
