"""Test economics: yield, defect level, and test-cost trade-offs.

The business half of the tutorial's pitch ("speeding up time-to-market")
runs on three classic models:

* **Poisson / negative-binomial die yield** — ``Y = e^{-A·D}`` or the
  clustered ``Y = (1 + A·D/α)^{-α}`` (Stapper), with die area *A* and
  defect density *D*;
* **Williams-Brown defect level** — the fraction of shipped parts that are
  defective given yield *Y* and fault coverage *T*:
  ``DL = 1 - Y^{(1-T)}`` (usually quoted in DPPM);
* **test-time cost** — tester-seconds per die at a given rate, traded
  against the DPPM bought by longer (higher-coverage) tests.

These close the loop from the engineering metrics the rest of the library
measures (coverage, pattern counts, cycles) to the quantities management
signs off on (DPPM, cost per die, yield after map-out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


def poisson_yield(die_area_cm2: float, defect_density_per_cm2: float) -> float:
    """Classic Poisson yield model ``Y = exp(-A·D)``."""
    if die_area_cm2 < 0 or defect_density_per_cm2 < 0:
        raise ValueError("area and defect density must be non-negative")
    return math.exp(-die_area_cm2 * defect_density_per_cm2)


def negative_binomial_yield(
    die_area_cm2: float, defect_density_per_cm2: float, clustering: float = 2.0
) -> float:
    """Stapper's clustered-defect yield ``Y = (1 + A·D/α)^{-α}``.

    ``clustering`` (α) around 2 matches modern processes; α → ∞ recovers
    the Poisson model.
    """
    if clustering <= 0:
        raise ValueError("clustering parameter must be positive")
    base = 1.0 + die_area_cm2 * defect_density_per_cm2 / clustering
    return base ** (-clustering)


def defect_level(yield_fraction: float, fault_coverage: float) -> float:
    """Williams-Brown: fraction of shipped dies that are defective.

    ``DL = 1 - Y^(1-T)``; at T=1 every defective die is caught, at T=0
    the defect level equals the full fallout ``1 - Y``.
    """
    if not 0.0 <= yield_fraction <= 1.0:
        raise ValueError("yield must be in [0, 1]")
    if not 0.0 <= fault_coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    if yield_fraction == 0.0:
        return 1.0 if fault_coverage < 1.0 else 0.0
    return 1.0 - yield_fraction ** (1.0 - fault_coverage)


def dppm(yield_fraction: float, fault_coverage: float) -> float:
    """Defect level expressed in defective parts per million."""
    return defect_level(yield_fraction, fault_coverage) * 1e6


def coverage_for_dppm(yield_fraction: float, target_dppm: float) -> float:
    """Coverage needed to hit a DPPM target at a given yield.

    Inverts Williams-Brown; returns a value in [0, 1] (clamped: a target
    looser than the raw fallout needs no test at all).
    """
    if not 0.0 < yield_fraction < 1.0:
        raise ValueError("yield must be in (0, 1) to invert the model")
    target = target_dppm / 1e6
    if target >= 1.0 - yield_fraction:
        return 0.0
    coverage = 1.0 - math.log(1.0 - target) / math.log(yield_fraction)
    return min(1.0, max(0.0, coverage))


@dataclass(frozen=True)
class TestCostModel:
    """Tester economics knobs."""

    tester_cost_per_second: float = 0.05  # USD, amortized ATE
    shift_clock_hz: float = 100e6
    insertion_overhead_s: float = 0.5  # handling per die


def tester_cost_per_die(cycles: int, model: TestCostModel) -> float:
    """USD of tester time for one die's logic test."""
    seconds = cycles / model.shift_clock_hz + model.insertion_overhead_s
    return seconds * model.tester_cost_per_second


def coverage_dppm_table(yield_fraction: float) -> List[Dict[str, float]]:
    """The classic table: fault coverage vs shipped DPPM at fixed yield."""
    return [
        {
            "coverage": coverage,
            "dppm": round(dppm(yield_fraction, coverage), 1),
        }
        for coverage in (0.90, 0.95, 0.99, 0.995, 0.999, 1.0)
    ]


def mapout_yield_uplift(
    raw_yield: float,
    salvage_fraction: float,
) -> Dict[str, float]:
    """Effective yield when a fraction of defective dies ships derated.

    ``salvage_fraction`` is the share of *defective* dies that graceful
    degradation rescues (cores/PE rows mapped out, still sellable).
    """
    if not 0.0 <= raw_yield <= 1.0 or not 0.0 <= salvage_fraction <= 1.0:
        raise ValueError("fractions must be in [0, 1]")
    fallout = 1.0 - raw_yield
    return {
        "yield_strict": raw_yield,
        "yield_with_mapout": raw_yield + fallout * salvage_fraction,
        "salvaged": fallout * salvage_fraction,
    }
