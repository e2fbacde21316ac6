"""Scan DFT: insertion, chain stitching, pattern scheduling, cost models."""

from .insertion import (
    ScanDesign,
    chain_flush_detects,
    insert_scan,
    partition_faults,
)
from .patfile import (
    PatternFile,
    PatternFormatError,
    format_patterns,
    load_patterns,
    parse_patterns,
)
from .patterns import ScanOperation, ScanScheduler
from .power import (
    ShiftPowerReport,
    adjacent_fill,
    fill_policy_comparison,
    pattern_set_power,
    pattern_shift_power,
    weighted_transition_metric,
)
from .timing import ScanCost, compressed_scan_cost, compression_ratio, scan_cost

__all__ = [
    "insert_scan",
    "ScanDesign",
    "partition_faults",
    "chain_flush_detects",
    "ScanScheduler",
    "ScanOperation",
    "ScanCost",
    "scan_cost",
    "compressed_scan_cost",
    "compression_ratio",
    "PatternFile",
    "PatternFormatError",
    "format_patterns",
    "parse_patterns",
    "load_patterns",
    "ShiftPowerReport",
    "weighted_transition_metric",
    "pattern_shift_power",
    "pattern_set_power",
    "fill_policy_comparison",
    "adjacent_fill",
]
