"""Hierarchical DFT: wrapping, retargeting, scheduling, degradation, planning."""

from .access import (
    Instrument,
    SibNetwork,
    SibNode,
    access_schedule_comparison,
    build_balanced_network,
    flat_chain_cycles,
)
from .economics import (
    TestCostModel,
    coverage_dppm_table,
    coverage_for_dppm,
    defect_level,
    dppm,
    mapout_yield_uplift,
    negative_binomial_yield,
    poisson_yield,
    tester_cost_per_die,
)
from .degrade import BinningPolicy, DegradeOutcome, test_and_degrade, yield_with_degradation
from .planner import DftPlan, DftPlanInputs, build_plan, plan_comparison_table
from .retarget import (
    FlatVsHierRow,
    RetargetCost,
    broadcast_detects_all_cores,
    compare_flat_hierarchical,
    retarget_cost,
)
from .schedule import (
    Schedule,
    Session,
    TestTask,
    schedule_report,
    schedule_tests,
    sequential_cycles,
)
from .wrapper import WrappedCore, wrap_core

__all__ = [
    "wrap_core",
    "WrappedCore",
    "retarget_cost",
    "RetargetCost",
    "broadcast_detects_all_cores",
    "compare_flat_hierarchical",
    "FlatVsHierRow",
    "TestTask",
    "Session",
    "Schedule",
    "schedule_tests",
    "schedule_report",
    "sequential_cycles",
    "build_plan",
    "DftPlan",
    "DftPlanInputs",
    "plan_comparison_table",
    "BinningPolicy",
    "DegradeOutcome",
    "test_and_degrade",
    "yield_with_degradation",
    "Instrument",
    "SibNode",
    "SibNetwork",
    "build_balanced_network",
    "flat_chain_cycles",
    "access_schedule_comparison",
    "poisson_yield",
    "negative_binomial_yield",
    "defect_level",
    "dppm",
    "coverage_for_dppm",
    "coverage_dppm_table",
    "TestCostModel",
    "tester_cost_per_die",
    "mapout_yield_uplift",
]
