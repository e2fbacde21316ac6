"""LFSR-reseeding test compression (Koenemann 1991).

The precursor to EDT: store one LFSR *seed* per test cube; on chip, load
the seed and free-run the PRPG + phase shifter for a full scan load.  The
solve is EDT's (both are a :class:`LinearDecompressor`), but the variable
pool is fixed at the LFSR length — so the seed register must be sized for
the *worst-case* cube (care bits ≤ L − ~20 for high encoding probability),
whereas EDT's continuous injection grows variables with shift length.  That structural
difference is exactly what the reseeding-vs-EDT ablation demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from .decompressor import CareBits, LinearDecompressor
from .lfsr import LFSR, PhaseShifter, primitive_taps


@dataclass(frozen=True)
class ReseedingConfig:
    """Geometry of a reseeding PRPG."""

    lfsr_length: int
    n_chains: int
    chain_length: int
    phase_taps: int = 3
    seed: int = 1

    @property
    def variables_per_pattern(self) -> int:
        return self.lfsr_length


class ReseedingCompressor(LinearDecompressor):
    """Seed-per-pattern compression: the variables are the LFSR seed bits."""

    def __init__(self, config: ReseedingConfig):
        self.config = config
        self.taps = tuple(primitive_taps(config.lfsr_length))
        self.shifter = PhaseShifter(
            config.lfsr_length,
            config.n_chains,
            taps_per_output=config.phase_taps,
            seed=config.seed + 1,
        )
        super().__init__(config.n_chains, config.chain_length, config.lfsr_length)

    def _symbolic_cycles(self) -> List[List[int]]:
        # Each state bit is a mask over seed bits; a cycle mirrors LFSR.step.
        length = self.config.lfsr_length
        state = [1 << bit for bit in range(length)]
        per_cycle: List[List[int]] = []
        for _ in range(self.chain_length):
            feedback = 0
            for tap in self.taps:
                feedback ^= state[length - tap]
            state = state[1:] + [feedback]
            per_cycle.append(self.shifter.xor(state))
        return per_cycle

    def _concrete_cycles(self, seed: int) -> Iterator[List[int]]:
        """Free-run the PRPG from ``seed``."""
        length = self.config.lfsr_length
        lfsr = LFSR(length, taps=self.taps, seed=seed)
        for _ in range(self.chain_length):
            lfsr.step()
            yield self.shifter.xor([(lfsr.state >> bit) & 1 for bit in range(length)])

    def solve_cube(self, care_bits: CareBits) -> Optional[int]:
        """Seed value reproducing the cube, or None when not encodable."""
        system = self._system(sorted(care_bits.items()))
        if system is None:
            return None
        solution = system.solve()
        if not any(solution):
            # The all-zero LFSR state is degenerate.  Another solution exists
            # exactly when some variable is free: force one to 1.
            free = [bit for bit in range(self.n_variables) if bit not in system.pivots]
            if not free:
                return None
            system.add_equation(1 << free[0], 1)
            solution = system.solve()
        return sum(value << bit for bit, value in enumerate(solution))
