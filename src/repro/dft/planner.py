"""Chip-level DFT planning for a tiled accelerator.

Pulls the whole methodology together: given an accelerator configuration,
the planner derives the per-core scan/compression geometry, sizes the
memory BIST, builds the power-constrained schedule, and reports the
chip-level test time and data volume the tutorial's case studies quote.

This is deliberately a *model-level* plan (the pattern-accurate engines
live in their own packages and E1-E10 exercise them); the planner's job is
the chip-level arithmetic that turns core-level measurements into a
manufacturing test budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..aichip.accelerator import AcceleratorConfig
from ..bist.march import MARCH_C_MINUS, MarchTest, operation_count
from ..scan.timing import compressed_scan_cost, scan_cost
from .schedule import TestTask, schedule_report


@dataclass
class DftPlanInputs:
    """Knobs the DFT architect chooses."""

    chains_per_core: int = 8
    edt_input_channels: int = 2
    edt_output_channels: int = 2
    core_pattern_count: int = 500
    core_test_power: float = 1.0  # power units while a core's scan runs
    mbist_power: float = 0.4  # per SRAM instance
    power_budget: float = 4.0
    march_test: MarchTest = field(default_factory=lambda: MARCH_C_MINUS)
    use_compression: bool = True
    broadcast_identical_cores: bool = True


@dataclass
class DftPlan:
    """The planner's output: tasks, schedule, and the headline numbers."""

    inputs: DftPlanInputs
    accelerator: AcceleratorConfig
    core_flops: int
    tasks: List[TestTask] = field(default_factory=list)
    report: Dict[str, object] = field(default_factory=dict)


def _core_flop_estimate(config: AcceleratorConfig) -> int:
    """Flop count of one core: PE registers dominate.

    Each PE holds weight (w bits), activation pipeline (w) and partial-sum
    (2w+4) registers — matching the generated PE netlist.
    """
    pe_width = config.core.pe_width
    per_pe = pe_width + pe_width + (2 * pe_width + 4)
    return config.core.array_rows * config.core.array_cols * per_pe


def build_plan(
    accelerator: Optional[AcceleratorConfig] = None,
    inputs: Optional[DftPlanInputs] = None,
) -> DftPlan:
    """Derive the chip test plan."""
    accelerator = accelerator or AcceleratorConfig()
    inputs = inputs or DftPlanInputs()
    core_flops = _core_flop_estimate(accelerator)

    # --- logic test cost per core ---------------------------------------
    if inputs.use_compression:
        logic_cost = compressed_scan_cost(
            inputs.core_pattern_count,
            core_flops,
            n_internal_chains=inputs.chains_per_core,
            n_input_channels=inputs.edt_input_channels,
            n_output_channels=inputs.edt_output_channels,
        )
    else:
        # Without on-chip compression the tester's channel count limits how
        # many chains can be driven, so chains = input channels (pin-bound).
        logic_cost = scan_cost(
            inputs.core_pattern_count, core_flops, inputs.edt_input_channels
        )

    # --- memory test cost per core ---------------------------------------
    mbist_ops = operation_count(inputs.march_test, accelerator.core.sram_bits)

    # --- build the task list ----------------------------------------------
    tasks: List[TestTask] = []
    if inputs.broadcast_identical_cores:
        # All cores shift the same stimulus concurrently: one logic task at
        # the combined power of every core toggling at once.
        tasks.append(
            TestTask(
                name="logic_broadcast_all_cores",
                time_cycles=logic_cost.test_cycles,
                power_units=inputs.core_test_power * accelerator.n_cores,
            )
        )
    else:
        tasks.extend(
            TestTask(
                name=f"logic_core{core}",
                time_cycles=logic_cost.test_cycles,
                power_units=inputs.core_test_power,
            )
            for core in range(accelerator.n_cores)
        )
    tasks.extend(
        TestTask(
            name=f"mbist_core{core}",
            time_cycles=mbist_ops,
            power_units=inputs.mbist_power,
        )
        for core in range(accelerator.n_cores)
    )

    plan = DftPlan(
        inputs=inputs,
        accelerator=accelerator,
        core_flops=core_flops,
        tasks=tasks,
    )
    stimulus_copies = 1 if inputs.broadcast_identical_cores else accelerator.n_cores
    data_volume = (
        logic_cost.data_volume_bits * stimulus_copies
        if inputs.broadcast_identical_cores
        else logic_cost.data_volume_bits * accelerator.n_cores
    )
    try:
        schedule = schedule_report(tasks, inputs.power_budget)
    except ValueError:
        schedule = {"error": "power budget below a single task's draw"}
    plan.report = {
        "cores": accelerator.n_cores,
        "core_flops": core_flops,
        "compression": inputs.use_compression,
        "broadcast": inputs.broadcast_identical_cores,
        "logic_cycles_per_core": logic_cost.test_cycles,
        "logic_data_bits_total": data_volume,
        "mbist_ops_per_core": mbist_ops,
        "march": inputs.march_test.name,
        **schedule,
    }
    return plan


def plan_comparison_table() -> List[Dict[str, object]]:
    """Four corners: ±compression x ±broadcast (the case-study table) for
    the default :class:`AcceleratorConfig`."""
    accelerator = AcceleratorConfig()
    rows: List[Dict[str, object]] = []
    for use_compression in (False, True):
        for broadcast in (False, True):
            inputs = DftPlanInputs(
                use_compression=use_compression,
                broadcast_identical_cores=broadcast,
            )
            plan = build_plan(accelerator, inputs)
            rows.append(plan.report)
    return rows
