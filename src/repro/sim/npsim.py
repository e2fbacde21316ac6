"""NumPy packing and good-machine pass (``kernel="numpy"``).

The numpy kernel does the two jobs vectorization wins and nothing else:

* **Pattern packing** — ``np.packbits`` over the transposed bit matrix
  replaces the pure-Python bit loop that dominates wide-word profiles.
* **Good-machine passes** — the compiled schedule runs as in-place
  array ops over one ``(num_gates, n_lanes)`` block.

The pass result leaves this module as the same good-machine word list
the python kernel produces (one bigint per gate), so fault-cone
propagation, seeding and readout have one implementation, on bigints,
in :mod:`repro.sim.faultsim`.  Fault cones on the replicated
AI-accelerator circuits average a few dozen events, too small for lane
arrays to beat bigint ops (EXPERIMENTS.md E3, "Kernel crossover").

Each signal is an ``(n_lanes,)`` little-endian uint64 array: lane ``j``
carries patterns ``64*j .. 64*j+63``, bit *k* of lane *j* belonging to
pattern ``64*j + k`` — exactly the bit order of the bigint words, so a
packed row and the corresponding word are the same bytes.  The
masked-words invariant holds as in :mod:`repro.sim.parallel`: every row
has all bits at positions ``>= n_patterns`` zero, non-inverting ops
preserve it for free, and only inverting ops re-mask.

:mod:`repro.sim.parallel` imports this module lazily, so the python
kernel keeps working on an interpreter without numpy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..circuit.gates import GateType

#: Canonical lane dtype: little-endian uint64, so ``row.tobytes()`` is
#: the little-endian byte serialization of the equivalent bigint word.
LANE_DTYPE = np.dtype("<u8")

#: Patterns carried per lane.
LANE_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Reducing ufunc and output inversion of each AND/OR/XOR-family gate.
_REDUCERS = {
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
}


def lanes_for(n_patterns: int) -> int:
    """Lanes needed to carry ``n_patterns`` patterns."""
    return -(-n_patterns // LANE_BITS)


def lane_mask(n_patterns: int) -> np.ndarray:
    """The ``(n_lanes,)`` valid-bit mask for ``n_patterns`` patterns."""
    full, rem = divmod(n_patterns, LANE_BITS)
    mask = np.zeros(lanes_for(n_patterns), dtype=LANE_DTYPE)
    mask[:full] = _ALL_ONES
    if rem:
        mask[full] = np.uint64((1 << rem) - 1)
    mask.flags.writeable = False
    return mask


def as_bit_matrix(patterns: Sequence[Sequence[int]]) -> np.ndarray:
    """Convert a pattern block into a ``(n_patterns, n_inputs)`` uint8 matrix.

    The fast path serializes each pattern row through ``bytes()`` (C-speed
    for plain lists of 0/1 ints) — ~40% faster than ``np.array`` on a
    list-of-lists, and this conversion is the single biggest fixed cost of
    a numpy-kernel run.  Arrays pass through without copying when possible.
    """
    if isinstance(patterns, np.ndarray):
        return np.ascontiguousarray(patterns, dtype=np.uint8)
    n = len(patterns)
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    width = len(patterns[0])
    try:
        buffer = b"".join(bytes(pattern) for pattern in patterns)
    except TypeError:
        return np.array(patterns, dtype=np.uint8)
    return np.frombuffer(buffer, dtype=np.uint8).reshape(n, width)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n_patterns, n_signals)`` bit matrix into uint64 lanes.

    Returns a ``(n_signals, n_lanes)`` array whose row *i* is the packed
    word of signal *i* — bit *k* of pattern *k*, identical bit order to
    :func:`repro.sim.parallel.pack_patterns`.  Rows are zero-padded past
    ``n_patterns``, so the masked-words invariant holds by construction.
    """
    n_patterns, n_signals = bits.shape
    n_lanes = lanes_for(max(n_patterns, 1))
    packed_bytes = np.packbits(bits.T, axis=1, bitorder="little")
    if packed_bytes.shape[1] != n_lanes * 8:
        padded = np.zeros((n_signals, n_lanes * 8), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    return np.ascontiguousarray(packed_bytes).view(LANE_DTYPE)


def unpack_bits(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(n_signals, n_lanes)`` lanes back to
    a ``(n_patterns, n_signals)`` bit matrix."""
    flat = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(flat, axis=1, bitorder="little", count=n_patterns).T


def words_to_int(row: np.ndarray) -> int:
    """The bigint word equivalent to one packed lane row."""
    return int.from_bytes(np.ascontiguousarray(row).tobytes(), "little")


def int_to_words(word: int, n_lanes: int) -> np.ndarray:
    """The packed lane row equivalent to one bigint word."""
    return np.frombuffer(
        word.to_bytes(n_lanes * 8, "little"), dtype=LANE_DTYPE
    ).copy()


def _compile_pass_op(out: int, gate_type: GateType, fanin: Sequence[int]) -> Callable:
    """One compiled good-pass step: ``op(V, m)`` writes row ``V[out]``.

    In-place ``out=`` forms avoid per-gate temporaries; n-ary gates reduce
    their fanin rows with the gate's ufunc.  The invariant mirrors
    :func:`repro.sim.parallel._compile_op` (inputs masked, only inverting
    ops re-mask).
    """
    if gate_type in (GateType.BUF, GateType.OUTPUT):
        def op(V, m, o=out, a=fanin[0]):
            np.copyto(V[o], V[a])

        return op
    if gate_type == GateType.NOT:
        def op(V, m, o=out, a=fanin[0]):
            np.bitwise_not(V[a], out=V[o])
            np.bitwise_and(V[o], m, out=V[o])

        return op
    if gate_type == GateType.CONST0:
        def op(V, m, o=out):
            V[o].fill(0)

        return op
    if gate_type == GateType.CONST1:
        def op(V, m, o=out):
            np.copyto(V[o], m)

        return op
    if gate_type == GateType.MUX2:
        def op(V, m, o=out, s=fanin[0], a=fanin[1], b=fanin[2]):
            select = V[s]
            V[o] = (~select & V[a]) | (select & V[b])

        return op
    if gate_type not in _REDUCERS:
        raise ValueError(f"unsupported gate type: {gate_type}")
    ufunc, invert = _REDUCERS[gate_type]
    if len(fanin) == 2:
        if not invert:
            def op(V, m, o=out, a=fanin[0], b=fanin[1], fn=ufunc):
                fn(V[a], V[b], out=V[o])

        else:
            def op(V, m, o=out, a=fanin[0], b=fanin[1], fn=ufunc):
                fn(V[a], V[b], out=V[o])
                np.bitwise_not(V[o], out=V[o])
                np.bitwise_and(V[o], m, out=V[o])

        return op

    def op(V, m, o=out, rows=np.array(fanin, dtype=np.intp), fn=ufunc, inv=invert):
        fn.reduce(V[rows], axis=0, out=V[o])
        if inv:
            np.bitwise_not(V[o], out=V[o])
            np.bitwise_and(V[o], m, out=V[o])

    return op


class NumpyKernel:
    """Compiled numpy packer and good-machine pass for one netlist.

    Built by :class:`repro.sim.parallel.ParallelSimulator` when
    ``kernel="numpy"``; holds the in-place good-pass schedule and
    memoized lane masks.
    """

    def __init__(self, num_gates: int, input_gates: Sequence[int], schedule):
        self.num_gates = num_gates
        self._ops = tuple(
            _compile_pass_op(index, gate_type, fanin)
            for index, gate_type, fanin in schedule
        )
        self._masks: Dict[int, np.ndarray] = {}
        self._input_rows = np.array(input_gates, dtype=np.intp)

    def mask(self, n_patterns: int) -> np.ndarray:
        mask = self._masks.get(n_patterns)
        if mask is None:
            mask = self._masks[n_patterns] = lane_mask(n_patterns)
        return mask

    def pack_block(self, patterns: Sequence[Sequence[int]]) -> np.ndarray:
        """Pack a pattern chunk into per-input lane rows."""
        return pack_bits(as_bit_matrix(patterns))

    def run_pass(self, packed: np.ndarray, n_patterns: int) -> List[int]:
        """One full-schedule pass: packed input rows -> every gate's word.

        The lane block leaves as bigint words through one ``tobytes`` of
        the whole block, sliced per gate row.
        """
        mask = self.mask(n_patterns)
        values = np.zeros((self.num_gates, len(mask)), dtype=LANE_DTYPE)
        values[self._input_rows] = packed & mask
        for op in self._ops:
            op(values, mask)
        raw = values.tobytes()
        stride = len(mask) * 8
        return [
            int.from_bytes(raw[start : start + stride], "little")
            for start in range(0, len(raw), stride)
        ]
