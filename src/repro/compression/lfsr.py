"""Linear feedback machinery: LFSRs, ring generators, phase shifters.

Three linear blocks underpin both LBIST and EDT compression:

* :class:`LFSR` — Fibonacci LFSR used as the LBIST PRPG and as a MISR core.
* :class:`RingGenerator` — the modular, injector-fed LFSR EDT uses as its
  decompressor kernel; every cycle it absorbs one fresh bit per input
  channel, so the solvable variable pool grows with shift length.
* :class:`PhaseShifter` — an XOR network spreading generator cells across
  many chain inputs, decorrelating adjacent chains.

Each block can run *concrete* (ints) or *symbolic* (each state bit is a
GF(2) linear combination of injected variables, encoded as a bitmask; the
phase shifter's one XOR method serves both).  The symbolic mode is what the
EDT solver consumes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

#: Primitive polynomial taps (exponents, x^n + ... + 1) for common sizes.
PRIMITIVE_TAPS = {
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    12: (12, 11, 10, 4),
    16: (16, 15, 13, 4),
    20: (20, 17),
    24: (24, 23, 22, 17),
    32: (32, 30, 26, 25),
}


def primitive_taps(length: int) -> Sequence[int]:
    """Known-primitive feedback taps for a register of ``length`` bits."""
    if length not in PRIMITIVE_TAPS:
        raise ValueError(
            f"no primitive polynomial stored for length {length}; "
            f"available: {sorted(PRIMITIVE_TAPS)}"
        )
    return PRIMITIVE_TAPS[length]


class LFSR:
    """Fibonacci LFSR over ``length`` bits.

    ``taps`` are polynomial exponents; feedback is the XOR of state bits
    ``tap - 1``.  With a primitive polynomial and nonzero seed the sequence
    has maximal period ``2**length - 1``.
    """

    def __init__(self, length: int, taps: Optional[Sequence[int]] = None, seed: int = 1):
        self.length = length
        self.taps = tuple(taps) if taps is not None else tuple(primitive_taps(length))
        if any(not 1 <= tap <= length for tap in self.taps):
            raise ValueError(f"taps out of range for length {length}: {self.taps}")
        self.state = seed & ((1 << length) - 1)
        if self.state == 0:
            raise ValueError("LFSR seed must be nonzero")

    def step(self) -> int:
        """Advance one cycle; returns the bit shifted out (bit 0).

        Right-shift Fibonacci form: for polynomial exponent ``t`` the
        feedback taps bit ``length - t`` (the exponent counts delay from
        the feedback input).
        """
        out = self.state & 1
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (self.length - tap)) & 1
        self.state = (self.state >> 1) | (feedback << (self.length - 1))
        return out

    def pattern(self, width: int) -> List[int]:
        """Shift ``width`` cycles and return the emitted bits (LSB first)."""
        return [self.step() for _ in range(width)]

    def patterns(self, count: int, width: int) -> List[List[int]]:
        """``count`` pseudo-random patterns of ``width`` bits each."""
        return [self.pattern(width) for _ in range(count)]


class RingGenerator:
    """Modular LFSR with per-cycle channel injection (the EDT kernel).

    State bit *i* next-cycle value::

        s'[i] = s[(i+1) % n]  ^  (feedback if i in taps)  ^  (channel bits
                 injected at this position)

    Symbolic operation assigns each injected channel bit a fresh variable
    index; after ``c`` cycles with ``m`` channels the pool holds ``c*m``
    variables and every state bit is a bitmask over them.
    """

    def __init__(self, length: int, n_channels: int, seed: int = 0):
        if n_channels > length:
            # A channel without its own injector cell would reach no state bit.
            raise ValueError(
                f"{n_channels} channels need {n_channels} generator cells, got {length}"
            )
        self.length = length
        self.n_channels = n_channels
        self.taps = tuple(primitive_taps(length))
        rng = random.Random(seed)
        # Spread injector positions evenly with a deterministic shuffle.
        positions = list(range(length))
        rng.shuffle(positions)
        self.injectors = sorted(positions[:n_channels])
        self.reset()

    def reset(self) -> None:
        """Zero state, empty variable pool (both modes)."""
        self.state_bits: List[int] = [0] * self.length  # concrete 0/1
        self.symbolic: List[int] = [0] * self.length  # bitmask per cell
        self.n_variables = 0

    # -- concrete ------------------------------------------------------

    def step_concrete(self, channel_bits: Sequence[int]) -> None:
        """Advance one cycle with concrete injected bits."""
        if len(channel_bits) != self.n_channels:
            raise ValueError(f"expected {self.n_channels} channel bits")
        feedback = 0
        for tap in self.taps:
            feedback ^= self.state_bits[self.length - tap]
        nxt = [self.state_bits[(i + 1) % self.length] for i in range(self.length)]
        nxt[self.length - 1] ^= feedback  # fold feedback into the top cell
        for channel, position in enumerate(self.injectors):
            nxt[position] ^= channel_bits[channel]
        self.state_bits = nxt

    # -- symbolic ------------------------------------------------------

    def step_symbolic(self) -> None:
        """Advance one cycle, allocating one fresh variable per channel."""
        feedback = 0
        for tap in self.taps:
            feedback ^= self.symbolic[self.length - tap]
        nxt = [self.symbolic[(i + 1) % self.length] for i in range(self.length)]
        nxt[self.length - 1] ^= feedback
        for position in self.injectors:
            nxt[position] ^= 1 << self.n_variables
            self.n_variables += 1
        self.symbolic = nxt


class PhaseShifter:
    """Sparse XOR network mapping generator cells to many chain inputs."""

    def __init__(self, n_cells: int, n_outputs: int, taps_per_output: int = 3, seed: int = 0):
        rng = random.Random(seed)
        self.n_cells = n_cells
        self.n_outputs = n_outputs
        self.rows: List[List[int]] = []
        seen = set()
        for _ in range(n_outputs):
            for _ in range(100):
                row = tuple(sorted(rng.sample(range(n_cells), min(taps_per_output, n_cells))))
                if row not in seen:
                    seen.add(row)
                    break
            self.rows.append(list(row))

    def xor(self, cells: Sequence[int]) -> List[int]:
        """XOR-combine cells into output values.

        Cells are 0/1 bits (concrete) or GF(2) variable bitmasks (symbolic);
        XOR is the same operation on both.
        """
        outputs = []
        for row in self.rows:
            acc = 0
            for cell in row:
                acc ^= cells[cell]
            outputs.append(acc)
        return outputs
