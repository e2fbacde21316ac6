"""Noise-aware benchmark regression detection over RunReport envelopes.

``BENCH_*.json`` files are :class:`~repro.obs.report.RunReport`
envelopes; this module turns an accumulating pile of them into an
enforceable performance trajectory:

* every numeric leaf of a report's ``payload`` (plus its
  ``metrics.counters`` section) flattens to a stable dotted path, with
  list rows keyed by their natural discriminator (``name``, ``regime``,
  ``word_width``, ...) instead of their index;
* measurements replicated under the ``<base>_x<N>`` naming convention
  (e.g. rows named ``e3_x0 .. e3_x4``) collapse into one **sample** per
  base path, summarized by the median and the MAD (median absolute
  deviation) — robust statistics that one OS hiccup cannot drag around;
* wall-time metrics (paths whose leaf ends in ``_s``) regress only when
  the current median exceeds the baseline median by more than *both* the
  relative threshold and the baseline's noise band
  (``mad_k * 1.4826 * MAD``, the normal-consistent MAD scale), with a
  small absolute floor so microsecond-scale timings cannot flap;
* deterministic work counters (``events_propagated``,
  ``words_evaluated``, ...) are machine-independent, so any drift beyond
  ``counter_tolerance`` (default: exact) fails — a counter drift means
  the *workload* changed, which is a different bug than slowness.

Consumed by the ``repro obs diff`` / ``repro obs gate`` CLI commands;
``gate`` is the CI sentinel that exits non-zero on any failing finding.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .report import RunReport

#: Rows in a payload list are keyed by the first of these fields they
#: carry (falling back to the list index): stable identity beats
#: positional identity when rows are reordered or appended.
DISCRIMINATOR_KEYS = ("name", "regime", "engine", "word_width", "partition", "jobs")

#: Leaf names treated as deterministic work counters: identical inputs
#: must produce identical values on any machine, so drift is gated.
COUNTER_LEAVES = frozenset(
    {
        "events_propagated",
        "words_evaluated",
        "faults_simulated",
        "faults_detected",
        "patterns_simulated",
        "faults",
        "good_passes",
        "detected",
        "gates",
        # ATPG campaign verdicts and engine work (BENCH_atpg_smoke.json).
        "aborted",
        "proved_untestable",
        "implications",
    }
)

#: ``<base>_x<N>`` replicate suffix (same convention as replicated
#: circuits, applied to measurement names).
_REPLICATE = re.compile(r"^(?P<base>.*[^_])_x(?P<rep>\d+)(?P<tail>\]?)$")

#: Normal-consistency constant: ``1.4826 * MAD`` estimates one standard
#: deviation for normally distributed noise.
MAD_SCALE = 1.4826


@dataclass
class RegressConfig:
    """Comparator tunables (CLI flags map onto these one-to-one)."""

    wall_threshold: float = 0.5  # relative wall-time regression gate
    mad_k: float = 3.0  # noise band half-width, in scaled MADs
    counter_tolerance: float = 0.0  # relative counter drift allowed
    abs_floor_s: float = 0.005  # ignore wall deltas under 5 ms

    def validate(self) -> None:
        for label, value in (
            ("threshold", self.wall_threshold),
            ("mad_k", self.mad_k),
            ("counter tolerance", self.counter_tolerance),
        ):
            # A NaN band compares false against every drift and an infinite
            # one holds every drift, so either would pass any regression.
            if not 0 <= value < math.inf:
                raise ValueError(f"{label} must be finite and >= 0, got {value}")


@dataclass
class Sample:
    """One metric's replicate values, summarized robustly."""

    values: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        ordered = sorted(self.values)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def mad(self) -> float:
        center = self.median
        return Sample([abs(v - center) for v in self.values]).median


@dataclass
class Finding:
    """One comparison outcome for one metric path."""

    metric: str
    kind: str  # wall | counter | info | missing | new
    severity: str  # fail | warn | ok | info
    baseline: Optional[float] = None
    current: Optional[float] = None
    baseline_mad: float = 0.0
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return self.current / self.baseline

    def render(self) -> str:
        marker = {"fail": "FAIL", "warn": "warn", "ok": "ok", "info": "info"}[
            self.severity
        ]
        parts = [f"[{marker}] {self.metric}"]
        if self.baseline is not None and self.current is not None:
            parts.append(f"{self.baseline:.6g} -> {self.current:.6g}")
            if self.ratio is not None:
                parts.append(f"({self.ratio:.2f}x)")
        if self.note:
            parts.append(f"- {self.note}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Flattening and replicate grouping
# ----------------------------------------------------------------------


def _flatten(node: object, prefix: str) -> Iterator[Tuple[str, float]]:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield prefix, float(node)
        return
    if isinstance(node, dict):
        for key in sorted(node):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            yield from _flatten(node[key], child_prefix)
        return
    if isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            discriminator = _discriminate(item, index)
            yield from _flatten(item, f"{prefix}[{discriminator}]")


def _discriminate(item: object, index: int) -> str:
    if isinstance(item, dict):
        for key in DISCRIMINATOR_KEYS:
            if key in item and isinstance(item[key], (str, int)):
                return f"{key}={item[key]}"
    return str(index)


def _strip_replicate(component: str) -> Tuple[str, Optional[int]]:
    """Split a path component into (base, replicate index or None)."""
    match = _REPLICATE.match(component)
    if match is None:
        return component, None
    return match.group("base") + match.group("tail"), int(match.group("rep"))


def collect_samples(report: RunReport) -> Dict[str, Sample]:
    """Replicate-grouped numeric samples of one report.

    Keys are dotted flattened paths with any ``_x<N>`` replicate suffix
    stripped from their components; each :class:`Sample` holds the
    replicate values in replicate order (a lone measurement is a
    one-value sample).
    """
    raw: List[Tuple[str, Optional[int], float]] = []
    for path, value in _flatten(report.payload, "payload"):
        raw.append(_group_key(path) + (value,))
    counters = report.metrics.get("counters", {}) if report.metrics else {}
    for identity in sorted(counters):
        entry = counters[identity]
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        base, rep = _group_key(f"metrics.{identity}")
        raw.append((base, rep, float(value)))
    samples: Dict[str, List[Tuple[int, float]]] = {}
    for base, rep, value in raw:
        samples.setdefault(base, []).append((-1 if rep is None else rep, value))
    return {
        base: Sample([value for _, value in sorted(pairs)])
        for base, pairs in samples.items()
    }


def _group_key(path: str) -> Tuple[str, Optional[int]]:
    components = path.split(".")
    replicate: Optional[int] = None
    for position, component in enumerate(components):
        base, rep = _strip_replicate(component)
        if rep is not None:
            components[position] = base
            replicate = rep  # innermost marker wins
    return ".".join(components), replicate


def _leaf(path: str) -> str:
    leaf = path.split(".")[-1]
    return leaf.split("[")[0] or leaf


def _metric_kind(path: str) -> str:
    leaf = _leaf(path)
    if leaf.endswith("_s"):
        return "wall"
    if leaf in COUNTER_LEAVES:
        return "counter"
    return "info"


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def compare_reports(
    baseline: RunReport,
    current: RunReport,
    config: Optional[RegressConfig] = None,
) -> List[Finding]:
    """All findings from comparing ``current`` against ``baseline``."""
    config = config or RegressConfig()
    config.validate()
    base_samples = collect_samples(baseline)
    cur_samples = collect_samples(current)
    findings: List[Finding] = []
    for path in sorted(base_samples):
        kind = _metric_kind(path)
        base = base_samples[path]
        cur = cur_samples.get(path)
        if cur is None:
            findings.append(
                Finding(
                    metric=path,
                    kind="missing",
                    severity="fail" if kind in ("wall", "counter") else "info",
                    baseline=base.median,
                    note="present in baseline, absent in current",
                )
            )
            continue
        if kind == "wall":
            findings.append(_compare_wall(path, base, cur, config))
        elif kind == "counter":
            findings.append(_compare_counter(path, base, cur, config))
        else:
            findings.append(
                Finding(
                    metric=path,
                    kind="info",
                    severity="info",
                    baseline=base.median,
                    current=cur.median,
                )
            )
    for path in sorted(set(cur_samples) - set(base_samples)):
        findings.append(
            Finding(
                metric=path,
                kind="new",
                severity="info",
                current=cur_samples[path].median,
                note="absent in baseline",
            )
        )
    return findings


def _compare_wall(path: str, base: Sample, cur: Sample, config: RegressConfig) -> Finding:
    base_med, cur_med = base.median, cur.median
    band = max(
        base_med * config.wall_threshold,
        config.mad_k * MAD_SCALE * base.mad,
        config.abs_floor_s,
    )
    finding = Finding(
        metric=path,
        kind="wall",
        severity="ok",
        baseline=base_med,
        current=cur_med,
        baseline_mad=base.mad,
    )
    if cur_med > base_med + band:
        finding.severity = "fail"
        finding.note = (
            f"wall-time regression beyond noise band "
            f"(+{band:.6g}s = max({config.wall_threshold:.0%} rel, "
            f"{config.mad_k:g}*MAD, {config.abs_floor_s:g}s floor))"
        )
    elif cur_med < base_med - band:
        finding.severity = "info"
        finding.note = "improvement beyond noise band"
    return finding


def _compare_counter(
    path: str, base: Sample, cur: Sample, config: RegressConfig
) -> Finding:
    base_med, cur_med = base.median, cur.median
    allowed = config.counter_tolerance * abs(base_med)
    finding = Finding(
        metric=path,
        kind="counter",
        severity="ok",
        baseline=base_med,
        current=cur_med,
        baseline_mad=base.mad,
    )
    # Replicate-by-replicate, not median-vs-median: a deterministic
    # counter drifting in even ONE replicate is a workload change the
    # median would happily hide.
    base_values = sorted(base.values)
    cur_values = sorted(cur.values)
    if len(base_values) != len(cur_values):
        finding.severity = "fail"
        finding.note = (
            f"replicate count changed: {len(base_values)} baseline vs "
            f"{len(cur_values)} current"
        )
        return finding
    worst = max(
        (abs(c - b) for b, c in zip(base_values, cur_values)), default=0.0
    )
    if worst > allowed:
        finding.severity = "fail"
        finding.note = (
            "deterministic counter drifted (same inputs must grade the "
            "same work on any machine) — the workload changed, not just "
            f"the speed (worst replicate delta {worst:g})"
        )
    return finding


# ----------------------------------------------------------------------
# File / directory pairing
# ----------------------------------------------------------------------


def load_report(path: str) -> RunReport:
    with open(path, "r") as handle:
        return RunReport.from_json(handle.read())


def pair_bench_files(baseline: str, current: str) -> List[Tuple[str, str, Optional[str]]]:
    """Resolve two files or two directories into comparable pairs.

    Directories pair their ``BENCH_*.json`` files by name (the baseline
    directory decides what is gated).  Returns
    ``(name, baseline_path, current_path_or_None)`` tuples.
    """
    if os.path.isdir(baseline) != os.path.isdir(current):
        raise ValueError(
            f"baseline and current must both be files or both directories "
            f"({baseline!r} vs {current!r})"
        )
    if not os.path.isdir(baseline):
        return [(os.path.basename(baseline), baseline, current)]
    pairs: List[Tuple[str, str, Optional[str]]] = []
    for name in sorted(os.listdir(baseline)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        candidate = os.path.join(current, name)
        pairs.append(
            (name, os.path.join(baseline, name), candidate if os.path.exists(candidate) else None)
        )
    if not pairs:
        raise ValueError(f"no BENCH_*.json files under {baseline!r}")
    return pairs


def compare_paths(
    baseline: str, current: str, config: Optional[RegressConfig] = None
) -> Dict[str, List[Finding]]:
    """Findings per benchmark file for two paths (files or directories)."""
    results: Dict[str, List[Finding]] = {}
    for name, base_path, cur_path in pair_bench_files(baseline, current):
        if cur_path is None:
            results[name] = [
                Finding(
                    metric=name,
                    kind="missing",
                    severity="fail",
                    note="baseline benchmark file has no current counterpart",
                )
            ]
            continue
        results[name] = compare_reports(
            load_report(base_path), load_report(cur_path), config
        )
    return results


def failures(findings: Iterable[Finding]) -> List[Finding]:
    return [finding for finding in findings if finding.severity == "fail"]


def format_findings(
    results: Dict[str, List[Finding]], verbose: bool = False
) -> List[str]:
    """Human-readable report lines, failing findings always included."""
    lines: List[str] = []
    for name in sorted(results):
        findings = results[name]
        failed = failures(findings)
        interesting = [
            f for f in findings if verbose or f.severity in ("fail", "warn")
            or (f.severity == "info" and f.note)
        ]
        lines.append(
            f"{name}: {len(findings)} metrics compared, "
            f"{len(failed)} failing"
        )
        for finding in interesting:
            lines.append(f"  {finding.render()}")
    return lines
