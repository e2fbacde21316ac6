"""Tiled AI accelerator model.

The chip-level structure the tutorial's case studies describe: a grid of
identical compute cores (each a systolic MAC array plus local SRAM
buffers), a shared weight memory, and a host interface.  Two properties
matter for DFT and are faithfully modeled:

* **replication** — every core is structurally identical (one gate-level
  PE/core netlist, instantiated N times), which hierarchical DFT exploits
  by generating patterns once and broadcasting them (E8);
* **degradability** — cores or PE rows can be mapped out after test, and
  the workload re-tiles across survivors at a throughput cost (E9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .systolic import PEFault, SystolicArray


@dataclass
class CoreConfig:
    """One compute core's geometry."""

    array_rows: int = 8
    array_cols: int = 8
    sram_bits: int = 4096
    pe_width: int = 4  # datapath width of the gate-level PE netlist


class Core:
    """One compute core: a systolic array; :class:`CoreConfig` sizes its SRAM."""

    def __init__(self, core_id: int, config: CoreConfig, pe_faults: Sequence[PEFault] = ()):
        self.core_id = core_id
        self.config = config
        self.array = SystolicArray(
            config.array_rows, config.array_cols, faults=pe_faults
        )
        self.enabled = True


@dataclass
class AcceleratorConfig:
    """Chip-level geometry: a grid of identical cores."""

    n_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)


class TiledAccelerator:
    """The whole chip: cores + a trivial batch scheduler."""

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        core_pe_faults: Optional[Dict[int, Sequence[PEFault]]] = None,
    ):
        self.config = config or AcceleratorConfig()
        pe_faults = core_pe_faults or {}
        self.cores: List[Core] = [
            Core(core_id, self.config.core, pe_faults=pe_faults.get(core_id, ()))
            for core_id in range(self.config.n_cores)
        ]

    def enabled_cores(self) -> List[Core]:
        return [core for core in self.cores if core.enabled]

    def disable_core(self, core_id: int) -> None:
        """Chip-level map-out: retire an entire core."""
        self.cores[core_id].enabled = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def matmul(self, activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Run one matmul, splitting the batch across enabled cores.

        Every core holds the same weights (data parallelism over the batch
        dimension — the standard inference deployment for tiled chips).
        """
        cores = self.enabled_cores()
        if not cores:
            raise RuntimeError("no enabled cores remain")
        n = activations.shape[0]
        out: Optional[np.ndarray] = None
        share = -(-n // len(cores))
        chunks: List[np.ndarray] = []
        for index, core in enumerate(cores):
            start = index * share
            stop = min(start + share, n)
            if start >= stop:
                continue
            chunks.append(core.array.matmul(activations[start:stop], weights))
        out = np.concatenate(chunks, axis=0)
        return out

    def cycles_for_matmul(self, n: int, k: int, m: int) -> int:
        """Latency estimate: slowest enabled core bounds the batch."""
        cores = self.enabled_cores()
        if not cores:
            raise RuntimeError("no enabled cores remain")
        share = -(-n // len(cores))
        return max(core.array.cycles_for_matmul(share, k, m) for core in cores)

    # ------------------------------------------------------------------
    # Health / DFT hooks
    # ------------------------------------------------------------------

    def faulty_cores(self) -> List[int]:
        return [core.core_id for core in self.cores if core.array.faults]

    def summary(self) -> Dict[str, object]:
        return {
            "cores": self.config.n_cores,
            "enabled": len(self.enabled_cores()),
            "array": f"{self.config.core.array_rows}x{self.config.core.array_cols}",
            "sram_bits_per_core": self.config.core.sram_bits,
            "faulty_cores": self.faulty_cores(),
        }
