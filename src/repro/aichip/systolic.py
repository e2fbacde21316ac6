"""Weight-stationary systolic MAC array — the AI-chip compute fabric.

The model matches the TPU-style array the tutorial's architecture section
describes: an ``rows x cols`` grid of processing elements, weights parked
one per PE, activations streaming west→east, partial sums accumulating
north→south.  A matmul ``X[n,k] @ W[k,m]`` executes in ``ceil(k/rows) *
ceil(m/cols)`` weight tiles.

Fault injection is per-PE (:class:`PEFault`), at the arithmetic level that
gate defects in the MAC produce after value quantization:

* ``dead`` — the PE contributes nothing (its product term is dropped),
* ``stuck_bit`` — one bit of the PE's product output is stuck at 0/1,
* ``weight_bit`` — one bit of the parked weight flipped at load time.

The per-PE arithmetic is vectorized with numpy so whole batches flow
through the (possibly faulty) array at useful speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Two's-complement width of a PE's product path (int8 x int8 -> 16 bits).
PRODUCT_BITS = 16


@dataclass(frozen=True)
class PEFault:
    """One injected processing-element fault.

    ``kind``: ``"dead"``, ``"stuck_bit"`` (product bit stuck at ``value``),
    or ``"weight_bit"`` (parked-weight bit inverted).  ``bit`` indexes the
    affected bit, LSB = 0.
    """

    row: int
    col: int
    kind: str
    bit: int = 0
    value: int = 0

    def describe(self) -> str:
        if self.kind == "dead":
            return f"PE[{self.row},{self.col}] dead"
        if self.kind == "stuck_bit":
            return f"PE[{self.row},{self.col}] product bit {self.bit} s-a-{self.value}"
        if self.kind == "weight_bit":
            return f"PE[{self.row},{self.col}] weight bit {self.bit} flipped"
        return f"PE[{self.row},{self.col}] {self.kind}?"


def _to_twos_complement(values: np.ndarray, bits: int) -> np.ndarray:
    return values & ((1 << bits) - 1)


def _from_twos_complement(values: np.ndarray, bits: int) -> np.ndarray:
    sign = 1 << (bits - 1)
    mask = (1 << bits) - 1
    unsigned = values & mask
    return np.where(unsigned >= sign, unsigned - (1 << bits), unsigned)


class SystolicArray:
    """Functional model of one weight-stationary MAC array."""

    def __init__(
        self,
        rows: int = 8,
        cols: int = 8,
        faults: Sequence[PEFault] = (),
        mapped_out: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.faults = list(faults)
        for fault in self.faults:
            if not (0 <= fault.row < rows and 0 <= fault.col < cols):
                raise ValueError(f"fault {fault} outside {rows}x{cols} array")
        #: PEs excluded from use (graceful degradation); matmuls re-tile
        #: around whole rows containing mapped-out PEs.
        self.mapped_out = set(mapped_out or ())

    # ------------------------------------------------------------------

    def _fault_map(self) -> Dict[Tuple[int, int], List[PEFault]]:
        by_pe: Dict[Tuple[int, int], List[PEFault]] = {}
        for fault in self.faults:
            by_pe.setdefault((fault.row, fault.col), []).append(fault)
        return by_pe

    def usable_rows(self) -> List[int]:
        """Array rows with no mapped-out PE (the degraded-mode resource)."""
        bad_rows = {row for row, _ in self.mapped_out}
        return [r for r in range(self.rows) if r not in bad_rows]

    def _pe_products(
        self,
        activations: np.ndarray,  # [n, tile_rows] int
        weights: np.ndarray,  # [tile_rows, tile_cols] int
        row_ids: Sequence[int],
        col_ids: Sequence[int],
    ) -> np.ndarray:
        """Per-PE product terms with faults applied: [n, rows, cols]."""
        weights = weights.copy()
        by_pe = self._fault_map()
        # Weight-load faults first.
        for (row, col), pe_faults in by_pe.items():
            for fault in pe_faults:
                if fault.kind != "weight_bit":
                    continue
                try:
                    r = row_ids.index(row)
                    c = col_ids.index(col)
                except ValueError:
                    continue
                raw = _to_twos_complement(
                    np.array(weights[r, c]), PRODUCT_BITS
                )
                raw ^= 1 << fault.bit
                weights[r, c] = int(_from_twos_complement(raw, PRODUCT_BITS))

        products = activations[:, :, None] * weights[None, :, :]
        # Product-path faults.
        for (row, col), pe_faults in by_pe.items():
            try:
                r = row_ids.index(row)
                c = col_ids.index(col)
            except ValueError:
                continue
            for fault in pe_faults:
                if fault.kind == "dead":
                    products[:, r, c] = 0
                elif fault.kind == "stuck_bit":
                    raw = _to_twos_complement(products[:, r, c], PRODUCT_BITS)
                    if fault.value:
                        raw = raw | (1 << fault.bit)
                    else:
                        raw = raw & ~(1 << fault.bit)
                    products[:, r, c] = _from_twos_complement(raw, PRODUCT_BITS)
        return products

    def matmul(self, activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``activations[n,k] @ weights[k,m]`` through the (faulty) array.

        Tiles the K dimension over usable array rows and the M dimension
        over array columns; accumulators are exact int (numpy int64).
        """
        if activations.ndim != 2 or weights.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        n, k = activations.shape
        k2, m = weights.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {activations.shape} @ {weights.shape}")
        rows = self.usable_rows()
        if not rows:
            raise RuntimeError("no usable rows remain in the array")
        activations = activations.astype(np.int64)
        weights = weights.astype(np.int64)
        out = np.zeros((n, m), dtype=np.int64)
        tile_k = len(rows)
        for k0 in range(0, k, tile_k):
            k_ids = list(range(k0, min(k0 + tile_k, k)))
            row_ids = rows[: len(k_ids)]
            for m0 in range(0, m, self.cols):
                m_ids = list(range(m0, min(m0 + self.cols, m)))
                col_ids = list(range(len(m_ids)))
                products = self._pe_products(
                    activations[:, k_ids],
                    weights[np.ix_(k_ids, m_ids)],
                    row_ids,
                    col_ids,
                )
                out[:, m_ids] += products.sum(axis=1)
        return out

    # ------------------------------------------------------------------

    def cycles_for_matmul(self, n: int, k: int, m: int) -> int:
        """Cycle estimate: per weight tile, ``n + rows + cols`` beats.

        The standard pipeline fill + drain model for a weight-stationary
        array; mapped-out rows shrink the tile and raise the count — the
        throughput cost of graceful degradation (E9).
        """
        usable = len(self.usable_rows())
        if usable == 0:
            raise RuntimeError("no usable rows remain in the array")
        tiles_k = -(-k // usable)
        tiles_m = -(-m // self.cols)
        return tiles_k * tiles_m * (n + usable + self.cols)


def random_pe_faults(
    rows: int, cols: int, count: int, seed: int = 0
) -> List[PEFault]:
    """Sample distinct-PE random faults for the E9 sweep."""
    import random as _random

    rng = _random.Random(seed)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    faults: List[PEFault] = []
    for row, col in cells[:count]:
        kind = rng.choice(("dead", "stuck_bit", "weight_bit"))
        if kind == "dead":
            faults.append(PEFault(row, col, "dead"))
        elif kind == "stuck_bit":
            faults.append(
                PEFault(row, col, "stuck_bit", bit=rng.randrange(PRODUCT_BITS), value=rng.randint(0, 1))
            )
        else:
            faults.append(PEFault(row, col, "weight_bit", bit=rng.randrange(8)))
    return faults
