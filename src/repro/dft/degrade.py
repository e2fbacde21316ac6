"""Graceful degradation: from test outcome to a shippable chip.

AI accelerators with many identical cores/PEs can tolerate manufacturing
defects by *mapping out* the failing units and shipping a derated part —
the tutorial's closing case study.  This module turns per-unit test
verdicts into a map-out decision and quantifies the performance bin the
degraded chip lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..aichip.accelerator import TiledAccelerator
from ..aichip.fault_effects import detect_faulty_pes


@dataclass
class BinningPolicy:
    """What the product can ship with."""

    min_cores: int = 1
    min_rows_per_core: int = 2
    bins: Tuple[Tuple[str, float], ...] = (
        ("full", 1.0),
        ("derate-90", 0.9),
        ("derate-75", 0.75),
        ("derate-50", 0.5),
    )


@dataclass
class DegradeOutcome:
    """The shipping decision for one tested chip."""

    shippable: bool
    bin_name: str
    compute_fraction: float
    cores_enabled: int
    rows_lost: Dict[int, int] = field(default_factory=dict)
    pes_mapped_out: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)


def test_and_degrade(
    chip: TiledAccelerator, policy: Optional[BinningPolicy] = None
) -> DegradeOutcome:
    """Screen every core, map out failing PEs, pick the shipping bin.

    Cores that fall below ``min_rows_per_core`` usable rows after map-out
    are disabled entirely; the chip ships if ``min_cores`` survive.  The
    bin is chosen by remaining compute fraction (usable PE rows / total).
    """
    policy = policy or BinningPolicy()
    rows_lost: Dict[int, int] = {}
    mapped: Dict[int, List[Tuple[int, int]]] = {}
    for core in chip.cores:
        suspects = detect_faulty_pes(core.array)
        if suspects:
            mapped[core.core_id] = suspects
            core.array.mapped_out |= set(suspects)
            usable = len(core.array.usable_rows())
            rows_lost[core.core_id] = core.config.array_rows - usable
            if usable < policy.min_rows_per_core:
                chip.disable_core(core.core_id)

    enabled = chip.enabled_cores()
    total_rows = chip.config.n_cores * chip.config.core.array_rows
    usable_rows = sum(len(core.array.usable_rows()) for core in enabled)
    fraction = usable_rows / total_rows if total_rows else 0.0

    shippable = len(enabled) >= policy.min_cores
    bin_name = "scrap"
    if shippable:
        for name, threshold in sorted(policy.bins, key=lambda b: -b[1]):
            if fraction >= threshold:
                bin_name = name
                break
        else:
            # Below the lowest bin's compute fraction: not sellable.
            shippable = False
    return DegradeOutcome(
        shippable=shippable,
        bin_name=bin_name,
        compute_fraction=round(fraction, 4),
        cores_enabled=len(enabled),
        rows_lost=rows_lost,
        pes_mapped_out=mapped,
    )


def yield_with_degradation(chips: Sequence[TiledAccelerator]) -> Dict[str, object]:
    """Population view: yield with vs without map-out.

    Without degradation a chip ships only if *every* PE is clean; with it,
    partial chips ship into derated bins — the yield uplift the case study
    claims.  Chips are binned under the default :class:`BinningPolicy`.
    """
    policy = BinningPolicy()
    perfect = 0
    shippable = 0
    bins: Dict[str, int] = {}
    for chip in chips:
        if not any(core.array.faults for core in chip.cores):
            perfect += 1
        outcome = test_and_degrade(chip, policy)
        if outcome.shippable:
            shippable += 1
            bins[outcome.bin_name] = bins.get(outcome.bin_name, 0) + 1
    count = len(chips) or 1
    return {
        "chips": len(chips),
        "yield_strict": perfect / count,
        "yield_with_mapout": shippable / count,
        "bins": bins,
    }
