"""MISR — Multiple-Input Signature Register.

Time-compacts a stream of response slices into one signature.  Used as the
LBIST response collector (STUMPS) and optionally behind the spatial
compactor in compressed scan.  Includes the textbook aliasing estimate
(``2**-n`` for an *n*-bit MISR) and an empirical aliasing measurement
helper used by the E6 experiment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .lfsr import primitive_taps


class MISR:
    """Modular MISR with a primitive feedback polynomial.

    Each :meth:`absorb` XORs an input slice into the register and advances
    it one LFSR step, so the final signature is a linear hash of the whole
    response history.  An X anywhere corrupts the signature irrecoverably —
    callers must mask X's *before* the MISR (see
    :mod:`repro.compression.compactor`).
    """

    def __init__(self, length: int, seed: int = 0):
        self.length = length
        self.taps = tuple(primitive_taps(length))
        self.state = seed & ((1 << length) - 1)

    def absorb(self, slice_bits: Sequence[int]) -> None:
        """Fold one response slice (≤ ``length`` known bits) and step."""
        if len(slice_bits) > self.length:
            raise ValueError(
                f"slice of {len(slice_bits)} bits exceeds MISR width {self.length}"
            )
        word = 0
        for position, bit in enumerate(slice_bits):
            if bit not in (0, 1):
                raise ValueError(
                    "X reached the MISR; mask unknowns before signature "
                    "compaction"
                )
            word |= bit << position
        self.state ^= word
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (self.length - tap)) & 1
        self.state = ((self.state >> 1) | (feedback << (self.length - 1))) & (
            (1 << self.length) - 1
        )

    def absorb_stream(self, slices: Iterable[Sequence[int]]) -> int:
        """Fold a whole response stream; returns the final signature."""
        for slice_bits in slices:
            self.absorb(slice_bits)
        return self.state

    @property
    def signature(self) -> int:
        return self.state


def theoretical_aliasing_probability(length: int) -> float:
    """Classic asymptotic aliasing bound for an ``length``-bit MISR."""
    return 2.0 ** -length


def measure_aliasing(
    length: int,
    good_stream: Sequence[Sequence[int]],
    faulty_streams: Sequence[Sequence[Sequence[int]]],
    seed: int = 0,
) -> float:
    """Fraction of distinct faulty streams whose signature aliases good's.

    ``faulty_streams`` should contain responses that *differ* from the good
    stream; aliasing means the MISR hash collides anyway.
    """
    reference = MISR(length, seed=seed).absorb_stream(good_stream)
    if not faulty_streams:
        return 0.0
    aliased = sum(
        1
        for stream in faulty_streams
        if MISR(length, seed=seed).absorb_stream(stream) == reference
    )
    return aliased / len(faulty_streams)
