"""Pattern retargeting and identical-core broadcast.

The hierarchical flow the tutorial presents for AI chips:

1. wrap the core, insert scan, run ATPG **once** on the single core;
2. *retarget* the core-level patterns to the chip: in **broadcast** mode
   every identical core's scan-in is driven from the same tester channel,
   so stimulus data and shift time do not grow with core count — only the
   response side multiplies (each core's unload feeds its own comparator
   or MISR);
3. in **serial** mode (the fallback when cores can't share channels) the
   same patterns apply core by core.

:func:`compare_flat_hierarchical` runs the actual ATPG engines on both the
single core and the N-core flat netlist, producing the E8 rows from real
measurements rather than a formula.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..atpg.engine import AtpgResult, run_atpg
from ..circuit.benchmarks import replicate_netlist
from ..circuit.netlist import Netlist
from ..faults.collapse import collapse_faults
from ..faults.stuck_at import full_fault_list
from ..scan.insertion import ScanDesign, insert_scan
from ..scan.timing import scan_cost
from ..sim.faultsim import FaultSimulator


@dataclass
class RetargetCost:
    """Tester cost of delivering one core test set to ``n_cores`` copies."""

    mode: str
    n_cores: int
    patterns: int
    stimulus_bits: int
    response_bits: int
    test_cycles: int

    @property
    def data_volume_bits(self) -> int:
        return self.stimulus_bits + self.response_bits


def retarget_cost(
    core_design: ScanDesign,
    atpg: AtpgResult,
    n_cores: int,
    mode: str = "broadcast",
) -> RetargetCost:
    """Cost model for applying a core pattern set chip-wide.

    Broadcast: stimulus once, responses per core (MISR-compare on chip
    reduces this further; the model charges full unload to stay
    conservative).  Serial: everything times ``n_cores``.
    """
    n_patterns = len(atpg.patterns)
    base = scan_cost(
        n_patterns,
        n_flops=len(core_design.netlist.flops),
        n_chains=core_design.n_chains,
        n_pis=len(core_design.netlist.inputs),
        n_pos=len(core_design.netlist.outputs),
    )
    stimulus = n_patterns * base.stimulus_bits_per_pattern
    response = n_patterns * base.response_bits_per_pattern
    if mode == "broadcast":
        return RetargetCost(
            mode=mode,
            n_cores=n_cores,
            patterns=n_patterns,
            stimulus_bits=stimulus,
            response_bits=response * n_cores,
            test_cycles=base.test_cycles,
        )
    if mode == "serial":
        return RetargetCost(
            mode=mode,
            n_cores=n_cores,
            patterns=n_patterns,
            stimulus_bits=stimulus * n_cores,
            response_bits=response * n_cores,
            test_cycles=base.test_cycles * n_cores,
        )
    raise ValueError(f"unknown retargeting mode {mode!r}")


def broadcast_detects_all_cores(
    core: Netlist,
    patterns: Sequence[Sequence[int]],
    chip: Netlist,
    n_cores: int,
) -> bool:
    """Semantic check behind broadcast reuse.

    Replicated cores are structurally identical, so a pattern set reaching
    coverage C on the core reaches the same C on every copy.  This verifies
    it concretely: chip-level patterns built by duplicating the core
    pattern across copies detect exactly the per-core images of the faults
    the core patterns detect, each first by the same pattern.  ``chip``
    must be :func:`~repro.circuit.benchmarks.replicate_netlist` of
    ``core`` (gate ``g`` of copy ``k`` at ``g + k * len(core.gates)``).
    """
    core_sim = FaultSimulator(core)
    core_faults, _ = collapse_faults(core, full_fault_list(core))
    core_result = core_sim.simulate(list(patterns), core_faults, drop=True)

    chip_sim = FaultSimulator(chip)
    n_view_pi = len(core.inputs)
    chip_patterns = [
        list(p[:n_view_pi]) * n_cores + list(p[n_view_pi:]) * n_cores
        for p in patterns
    ]
    core_size = len(core.gates)

    def image(fault, copy):
        return type(fault)(fault.gate + copy * core_size, fault.pin, fault.value)

    chip_faults = [image(f, copy) for f in core_faults for copy in range(n_cores)]
    chip_result = chip_sim.simulate(chip_patterns, chip_faults, drop=True)
    expected = {
        image(fault, copy): first
        for fault, first in core_result.detected.items()
        for copy in range(n_cores)
    }
    return chip_result.detected == expected


@dataclass
class FlatVsHierRow:
    """One E8 table row."""

    n_cores: int
    flat_gates: int
    flat_cpu_s: float
    flat_patterns: int
    flat_coverage: float
    hier_cpu_s: float
    hier_patterns: int
    hier_coverage: float
    broadcast_data_bits: int
    serial_data_bits: int
    flat_data_bits: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "cores": self.n_cores,
            "flat_gates": self.flat_gates,
            "flat_cpu_s": round(self.flat_cpu_s, 3),
            "flat_patterns": self.flat_patterns,
            "flat_cov": round(self.flat_coverage, 4),
            "hier_cpu_s": round(self.hier_cpu_s, 3),
            "hier_patterns": self.hier_patterns,
            "hier_cov": round(self.hier_coverage, 4),
            "broadcast_bits": self.broadcast_data_bits,
            "serial_bits": self.serial_data_bits,
            "flat_bits": self.flat_data_bits,
        }


def compare_flat_hierarchical(
    core: Netlist,
    core_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
) -> List[FlatVsHierRow]:
    """Run real ATPG both ways for each core count (the E8 measurement),
    costing retargeting over a 4-chain core scan design.

    The hierarchical flow pays the core ATPG cost once (re-measured per row
    for honesty — it is constant) plus nothing per extra core; the flat
    flow hands the whole replicated netlist to ATPG.
    """
    core.finalize()
    rows: List[FlatVsHierRow] = []
    for n_cores in core_counts:
        # Hierarchical: one core.
        start = time.perf_counter()
        hier_result = run_atpg(core, seed=seed)
        hier_cpu = time.perf_counter() - start

        # Flat: the replicated chip.
        chip = replicate_netlist(core, n_cores)
        start = time.perf_counter()
        flat_result = run_atpg(chip, seed=seed)
        flat_cpu = time.perf_counter() - start

        core_design = (
            insert_scan(core, n_chains=4) if core.flops else None
        )
        if core_design is not None:
            broadcast = retarget_cost(core_design, hier_result, n_cores, "broadcast")
            serial = retarget_cost(core_design, hier_result, n_cores, "serial")
            broadcast_bits = broadcast.data_volume_bits
            serial_bits = serial.data_volume_bits
        else:
            per_pattern = len(core.inputs) + len(core.outputs)
            broadcast_bits = len(hier_result.patterns) * per_pattern
            serial_bits = broadcast_bits * n_cores
        flat_bits = len(flat_result.patterns) * (
            len(chip.inputs) + len(chip.outputs) + 2 * len(chip.flops)
        )
        rows.append(
            FlatVsHierRow(
                n_cores=n_cores,
                flat_gates=chip.num_gates,
                flat_cpu_s=flat_cpu,
                flat_patterns=len(flat_result.patterns),
                flat_coverage=flat_result.fault_coverage,
                hier_cpu_s=hier_cpu,
                hier_patterns=len(hier_result.patterns),
                hier_coverage=hier_result.fault_coverage,
                broadcast_data_bits=broadcast_bits,
                serial_data_bits=serial_bits,
                flat_data_bits=flat_bits,
            )
        )
    return rows
