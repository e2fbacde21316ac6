"""Shared helpers for the experiment benchmarks (E1-E10).

Each ``bench_eN_*.py`` regenerates one table or figure from EXPERIMENTS.md:
the measurement runs once under ``benchmark.pedantic`` (so pytest-benchmark
records wall time without re-running a multi-second experiment dozens of
times) and the rows print to stdout in a fixed-width table for comparison
against the recorded results.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.obs.report import RunReport
from repro.obs.span import Observation


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Render a list of dict rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def print_series(title: str, points: Sequence[Dict[str, object]]) -> None:
    """Render a figure's (x, y, ...) series."""
    print_table(title, points)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def write_bench_json(
    name: str, payload: object, observation: Optional[Observation] = None
) -> Path:
    """Persist a benchmark's machine-readable results.

    Written as ``BENCH_<name>.json`` next to the benchmark modules so
    successive runs (and CI) can diff measured numbers without re-parsing
    the stdout tables.  Every file is a :class:`repro.obs.report.RunReport`
    envelope — the same stable schema as ``repro <cmd> --report`` files —
    with the benchmark's rows under ``payload``.  Pass the
    :class:`~repro.obs.span.Observation` the benchmark ran under to include
    its span tree and counters alongside the rows.
    """
    if observation is not None:
        report = RunReport.from_observation(observation, payload=payload)
        report.name = f"bench.{name}"
    else:
        report = RunReport(
            name=f"bench.{name}", payload=payload, generated_unix_s=time.time()
        )
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(report.to_json() + "\n")
    return path
