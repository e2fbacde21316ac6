"""EDT-style test stimulus decompressor.

The Embedded Deterministic Test architecture (Rajski et al.) feeds a small
ring generator from a few tester channels while it clocks in lock-step with
the internal scan chains; a phase shifter fans the generator out to many
short chains.  Because the whole datapath is linear over GF(2), choosing
channel inputs that reproduce a test cube's care bits is a linear solve:

* variables — one per (channel, shift cycle),
* one equation per care bit: the symbolic expression of that scan cell
  equals the required value.

Encoding succeeds with high probability while care bits ≤ ~(variables − 20)
— the channel-capacity knee the E5 experiment sweeps across.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf2 import GF2System
from .lfsr import PhaseShifter, RingGenerator

#: ``{(chain, position): value}``; position 0 is the cell next to scan-in.
CareBits = Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class EdtConfig:
    """Geometry of one decompressor instance."""

    n_channels: int
    n_chains: int
    chain_length: int
    generator_length: int = 24
    phase_taps: int = 3
    seed: int = 1
    #: Generator clocks (with injection) before the first shift cycle.
    #: Without warm-up, cells far from the injectors have empty equations in
    #: the first few cycles, leaving some scan cells uncontrollable.
    warmup_cycles: int = 8

    @property
    def variables_per_pattern(self) -> int:
        return self.n_channels * (self.chain_length + self.warmup_cycles)


class LinearDecompressor:
    """A stimulus decompressor that is linear over GF(2).

    Each chain input, at each shift cycle, is an XOR of the decompressor's
    input variables, so encoding a cube is one linear solve.  A subclass
    supplies both views of its datapath: ``_symbolic_cycles()`` returns the
    variable mask entering each chain per shift cycle (built once, here),
    and ``_concrete_cycles(variables)`` yields the chain input bits per
    cycle, simulated from concrete inputs.  The concrete path never reads
    the equations, so :meth:`verify` is an independent check of
    :meth:`solve_cube`.
    """

    def __init__(self, n_chains: int, chain_length: int, n_variables: int):
        self.n_chains = n_chains
        self.chain_length = chain_length
        self.n_variables = n_variables
        self._equations = self._symbolic_cycles()

    def cell_equations(self) -> List[List[int]]:
        """``equations[cycle][chain]`` — variable bitmask loaded into chain
        input at shift ``cycle`` (which lands in cell ``chain_length-1-cycle``
        counted from scan-in)."""
        return self._equations

    def _system(
        self, care_items: Iterable[Tuple[Tuple[int, int], int]]
    ) -> Optional[GF2System]:
        """Eliminate ``((chain, position), value)`` care bits in order;
        None at the first one that contradicts the ones before it."""
        system = GF2System(self.n_variables)
        for (chain, position), value in care_items:
            if not (0 <= chain < self.n_chains and 0 <= position < self.chain_length):
                raise ValueError(f"cell ({chain}, {position}) out of range")
            # The bit entering at shift cycle c ends at position L-1-c.
            row = self._equations[self.chain_length - 1 - position][chain]
            if not system.add_equation(row, value):
                return None
        return system

    def solve_cube(self, care_bits: CareBits) -> Optional[List[int]]:
        """Solve for input variables reproducing ``{(chain, position): value}``.

        ``position`` counts from scan-in: the flop adjacent to scan-in is
        position 0 and receives the *last* shifted bit.  Returns one bit per
        variable, or None when the cube is not encodable.
        """
        system = self._system(sorted(care_bits.items()))
        return None if system is None else system.solve()

    def expand(self, variables) -> List[List[int]]:
        """Concrete decompression: returns ``load[chain][position]``.

        Position 0 is the cell next to scan-in, matching
        :meth:`solve_cube`'s coordinates.
        """
        loads = [[0] * self.chain_length for _ in range(self.n_chains)]
        for cycle, chain_bits in enumerate(self._concrete_cycles(variables)):
            position = self.chain_length - 1 - cycle
            for chain, bit in enumerate(chain_bits):
                loads[chain][position] = bit
        return loads

    def verify(self, care_bits: CareBits, variables) -> bool:
        """Check an expansion honours every care bit (test helper)."""
        loads = self.expand(variables)
        return all(
            loads[chain][position] == value
            for (chain, position), value in care_bits.items()
        )


class Decompressor(LinearDecompressor):
    """EDT stimulus path: injector-fed ring generator into a phase shifter."""

    def __init__(self, config: EdtConfig):
        self.config = config
        self.generator = RingGenerator(
            config.generator_length, config.n_channels, seed=config.seed
        )
        self.shifter = PhaseShifter(
            config.generator_length,
            config.n_chains,
            taps_per_output=config.phase_taps,
            seed=config.seed + 1,
        )
        super().__init__(
            config.n_chains, config.chain_length, config.variables_per_pattern
        )

    def _symbolic_cycles(self) -> List[List[int]]:
        # The generator is clocked once *before* each shift use, so injected
        # bits immediately influence the same-cycle chain inputs.
        self.generator.reset()
        for _ in range(self.config.warmup_cycles):
            self.generator.step_symbolic()
        per_cycle: List[List[int]] = []
        for _ in range(self.chain_length):
            self.generator.step_symbolic()
            per_cycle.append(self.shifter.xor(self.generator.symbolic))
        return per_cycle

    def _concrete_cycles(self, variables: Sequence[int]) -> Iterator[List[int]]:
        stream = self.variables_to_channel_stream(variables)
        warmup = self.config.warmup_cycles
        self.generator.reset()
        for channel_bits in stream[:warmup]:
            self.generator.step_concrete(channel_bits)
        for channel_bits in stream[warmup:]:
            self.generator.step_concrete(channel_bits)
            yield self.shifter.xor(self.generator.state_bits)

    def variables_to_channel_stream(
        self, variables: Sequence[int]
    ) -> List[List[int]]:
        """Reshape the flat solution into ``stream[cycle][channel]``."""
        n = self.config.n_channels
        return [
            list(variables[start : start + n])
            for start in range(0, self.n_variables, n)
        ]


def encoding_probability(
    decompressor: LinearDecompressor,
    care_bit_counts: Sequence[int],
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """Monte-Carlo encoding success rate vs. care-bit count (E5/X1 driver).

    For each count, draws 50 random cubes (random cells, random values)
    and reports the fraction that solve.  A cube's values are drawn
    one care bit at a time and stop at its first contradiction.
    """
    rng = random.Random(seed)
    cells = [
        (chain, position)
        for chain in range(decompressor.n_chains)
        for position in range(decompressor.chain_length)
    ]
    results: List[Tuple[int, float]] = []
    for count in care_bit_counts:
        count = min(count, len(cells))
        successes = sum(
            decompressor._system(
                (cell, rng.randint(0, 1)) for cell in rng.sample(cells, count)
            )
            is not None
            for _ in range(50)
        )
        results.append((count, successes / 50))
    return results
