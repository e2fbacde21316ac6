"""Scan shift-power estimation.

Test power is a first-order constraint on AI chips (the tutorial's
scheduling discussion): shifting random-fill patterns toggles roughly half
the chain bits every cycle, far above functional switching, and can brown
out the die.  The standard metrics:

* **WTM (weighted transition metric)** — for a scan-in vector, each
  adjacent bit-pair transition weighted by how many cycles it travels
  through the chain (transitions near the scan-in end toggle more cells);
* per-pattern **shift toggles** and the fill-policy comparison that makes
  *adjacent fill* the default in low-power flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..circuit.values import X
from .insertion import ScanDesign


def weighted_transition_metric(load_bits: Sequence[int]) -> int:
    """WTM of one chain load, first-shifted bit first.

    ``WTM = sum over adjacent pairs of (L - position - 1) * transition`` —
    a transition entering early ripples through more cells.
    """
    length = len(load_bits)
    total = 0
    for position in range(length - 1):
        if load_bits[position] != load_bits[position + 1]:
            total += length - position - 1
    return total


def pattern_shift_power(design: ScanDesign, state_bits: Sequence[int]) -> int:
    """Total WTM across all chains for one pattern's scan load."""
    streams = design.state_to_chain_bits(list(state_bits))
    return sum(weighted_transition_metric(stream) for stream in streams)


@dataclass
class ShiftPowerReport:
    """Aggregate shift-power figures for a pattern set."""

    patterns: int
    total_wtm: int
    peak_wtm: int


def pattern_set_power(
    design: ScanDesign, patterns: Sequence[Sequence[int]]
) -> ShiftPowerReport:
    """Shift power of a full-scan-view pattern set (state part only)."""
    n_pi = len(design.netlist.inputs)
    total = 0
    peak = 0
    for pattern in patterns:
        state = [v if v in (0, 1) else 0 for v in pattern[n_pi:]]
        wtm = pattern_shift_power(design, state)
        total += wtm
        peak = max(peak, wtm)
    return ShiftPowerReport(
        patterns=len(patterns), total_wtm=total, peak_wtm=peak
    )


def adjacent_fill(design: ScanDesign, cube: Sequence[int]) -> List[int]:
    """Chain-aware adjacent fill: X's copy their shift-order neighbour.

    The view-order ``repeat`` fill loses most of its benefit because chain
    stitching interleaves flops; filling along each chain's actual shift
    order is what minimizes WTM.  Specified bits are untouched; PI X's
    take 0.
    """
    n_pi = len(design.netlist.inputs)
    filled = list(cube)
    for position in range(n_pi):
        if filled[position] == X:
            filled[position] = 0
    flop_position = {
        flop: n_pi + index
        for index, flop in enumerate(design.netlist.flops)
    }
    for chain in design.chains:
        last = 0
        for flop in chain:
            position = flop_position[flop]
            if filled[position] == X:
                filled[position] = last
            else:
                last = filled[position]
    return filled


def fill_policy_comparison(
    design: ScanDesign,
    cubes: Sequence[Sequence[int]],
    seed: int = 0,
) -> Dict[str, ShiftPowerReport]:
    """Shift power of the same cube set under each X-fill policy.

    The classic low-power result: ``repeat`` (adjacent) fill cuts WTM by
    several x versus ``random`` fill because X-runs become constant runs.
    """
    import random as _random

    from ..atpg.engine import x_fill

    reports: Dict[str, ShiftPowerReport] = {}
    for mode in ("random", "zero", "one", "repeat"):
        rng = _random.Random(seed)
        filled = [x_fill(list(cube), rng, mode) for cube in cubes]
        reports[mode] = pattern_set_power(design, filled)
    chain_filled = [adjacent_fill(design, cube) for cube in cubes]
    reports["adjacent_chain"] = pattern_set_power(design, chain_filled)
    return reports
