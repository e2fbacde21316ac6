"""Span recorder for the traced run of the end-to-end benchmark.

The benchmark measures layers from outside the program: :func:`install`
wraps public functions on their classes or modules for the duration of
one traced run, and every call becomes a span (name, start, end, parent)
kept in memory.  A layer's self time is its span's duration minus the
durations of the spans nested in it, so the self times of all spans add
up to the root span's duration; the root's own self time is the part of
the run no layer accounts for.

Spans opened in forked worker processes are not recorded: a wrapper
records only in the process that created the recorder.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

#: Per-layer metric -> the span whose summed self time it reports.
SELF_TIME_METRICS = {
    "circuit.build_s": "circuit.build",
    "faults.collapse_s": "faults.collapse",
    "sim.compile_s": "sim.compile",
    "atpg.flow.self_s": "atpg.flow",
    "atpg.podem.generate_s": "atpg.podem",
    "atpg.guided.generate_s": "atpg.guided",
    "atpg.dalg.generate_s": "atpg.dalg",
    "atpg.portfolio.generate_s": "atpg.portfolio",
    "atpg.compact_s": "atpg.compact",
    "sim.faultsim.single_s": "sim.faultsim.single",
    "sim.faultsim.batch_s": "sim.faultsim.batch",
    "sim.parallel.evaluate_s": "sim.parallel.evaluate",
    "sim.parallel.pack_s": "sim.parallel.pack",
    "supervisor.run_s": "supervisor.run",
    "compression.flow.self_s": "compression.flow",
    "compression.expand_s": "compression.expand",
    "compression.solve_s": "compression.solve",
    "bist.flow.self_s": "bist.flow",
    "bist.prpg_s": "bist.prpg",
    "bist.signature_s": "bist.signature",
}

#: Per-layer metric -> the span whose calls it counts.
CALL_METRICS = {
    "atpg.podem.calls": "atpg.podem",
    "atpg.guided.calls": "atpg.guided",
    "atpg.dalg.calls": "atpg.dalg",
    "atpg.portfolio.calls": "atpg.portfolio",
    "sim.faultsim.single_calls": "sim.faultsim.single",
    "sim.faultsim.batch_calls": "sim.faultsim.batch",
    "compression.expand_calls": "compression.expand",
    "compression.solve_calls": "compression.solve",
}

#: Program counters (``repro.obs``) reported as per-layer metrics.
COUNTER_METRICS = (
    "faultsim.events_propagated",
    "faultsim.words_evaluated",
    "faultsim.good_passes",
)

ENGINE_SPANS = ("atpg.podem", "atpg.guided", "atpg.dalg", "atpg.portfolio")

Name = Union[str, Callable[[tuple], str]]


class Recorder:
    """In-memory spans: ``[name, start, end, parent index, tag]`` each."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around the benchmark's own code (the root of a run)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Name,
        tag: Optional[Callable[[object], object]] = None,
    ) -> None:
        """Record every call of ``owner.attr`` as a span until :meth:`uninstall`.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.  ``tag`` maps the return value to a small
        JSON value stored on the span.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            index = recorder._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if tag is not None:
                recorder.spans[index][4] = tag(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _faultsim_name(args: tuple) -> str:
    # One-pattern calls are ATPG/EDT dynamic dropping; multi-pattern calls
    # are the batch passes.  The two sit on opposite sides of any
    # width or kernel choice, so they are separate layers.
    return "sim.faultsim.single" if len(args[1]) == 1 else "sim.faultsim.batch"


def _supervisor_tag(result) -> Dict[str, object]:
    stats = result.stats
    return {
        "jobs": stats.get("jobs", 1),
        "busy_s": sum(p["wall_time_s"] for p in stats.get("partitions", ())),
        "load_imbalance": stats.get("load_imbalance", 1.0),
        "retries": stats.get("retries", 0),
        "good_response_s": stats.get("good_response_s", 0.0),
    }


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries the per-layer metrics are measured at."""
    from repro.atpg import engine
    from repro.atpg.dalg import DAlgorithm
    from repro.atpg.guided import GuidedPodem
    from repro.atpg.podem import Podem
    from repro.atpg.portfolio import PortfolioAtpg
    from repro.bist.lbist import StumpsController
    from repro.circuit import benchmarks
    from repro.compression import flow
    from repro.compression.decompressor import Decompressor
    from repro.faults import collapse, stuck_at
    from repro.scan import insertion
    from repro.sim.faultsim import FaultSimulator
    from repro.sim.parallel import ParallelSimulator
    from repro.sim.supervisor import SupervisedPoolBackend

    status = lambda outcome: outcome.status  # noqa: E731
    for owner, attr, name, tag in (
        (benchmarks, "get_benchmark", "circuit.build", None),
        (insertion, "insert_scan", "circuit.build", None),
        (stuck_at, "full_fault_list", "faults.collapse", None),
        (collapse, "collapse_faults", "faults.collapse", None),
        (FaultSimulator, "__init__", "sim.compile", None),
        (FaultSimulator, "simulate", _faultsim_name, None),
        (ParallelSimulator, "evaluate_words", "sim.parallel.evaluate", None),
        (ParallelSimulator, "pack_block", "sim.parallel.pack", None),
        (engine, "run_atpg", "atpg.flow", None),
        (engine, "static_compact", "atpg.compact", None),
        (Podem, "generate", "atpg.podem", status),
        (GuidedPodem, "generate", "atpg.guided", status),
        (DAlgorithm, "generate", "atpg.dalg", status),
        (PortfolioAtpg, "generate", "atpg.portfolio", status),
        (SupervisedPoolBackend, "run", "supervisor.run", _supervisor_tag),
        (flow, "run_compressed_atpg", "compression.flow", None),
        (Decompressor, "expand", "compression.expand", None),
        (Decompressor, "solve_cube", "compression.solve", lambda v: v is not None),
        (StumpsController, "run", "bist.flow", None),
        (StumpsController, "generate_patterns", "bist.prpg", None),
        (StumpsController, "good_signature", "bist.signature", None),
    ):
        recorder.wrap(owner, attr, name, tag)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: List[list], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run; ``spans[0]`` is the run's root."""
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, seconds in zip(spans, own):
        self_s[span[0]] += seconds
        calls[span[0]] += 1
    metrics: Dict[str, float] = {
        metric: self_s[name] for metric, name in SELF_TIME_METRICS.items()
    }
    metrics.update({metric: calls[name] for metric, name in CALL_METRICS.items()})

    # Engine verdicts count once per fault: a portfolio's member calls sit
    # inside its own span.
    verdicts = [
        tag
        for name, _, _, parent, tag in spans
        if name in ENGINE_SPANS
        and (parent is None or spans[parent][0] not in ENGINE_SPANS)
    ]
    settled = sum(1 for tag in verdicts if tag in ("detected", "untestable"))
    metrics["atpg.settle_ratio"] = _ratio(settled, len(verdicts))
    metrics["atpg.aborted"] = sum(1 for tag in verdicts if tag == "aborted")

    solved = [tag for name, _, _, _, tag in spans if name == "compression.solve"]
    metrics["compression.encode_ratio"] = _ratio(sum(solved), len(solved))

    runs = [span for span in spans if span[0] == "supervisor.run"]
    busy = sum(tag["busy_s"] for _, _, _, _, tag in runs)
    capacity = sum(tag["jobs"] * (end - start) for _, start, end, _, tag in runs)
    metrics["supervisor.partition_busy_s"] = busy
    metrics["supervisor.parallel_efficiency"] = _ratio(busy, capacity)
    metrics["supervisor.load_imbalance"] = max(
        (tag["load_imbalance"] for *_, tag in runs), default=0.0
    )
    metrics["supervisor.retries"] = sum(tag["retries"] for *_, tag in runs)
    metrics["supervisor.good_response_s"] = sum(
        tag["good_response_s"] for *_, tag in runs
    )

    for name in COUNTER_METRICS:
        metrics[name] = counters[name]
    hits, misses = counters["goodcache.hits"], counters["goodcache.misses"]
    metrics["sim.goodcache.hit_ratio"] = _ratio(hits, hits + misses)

    _, start, end, _, _ = spans[0]
    metrics["trace.unattributed_frac"] = _ratio(own[0], end - start)
    return metrics


def trace_document(spans: List[list], **header: object) -> Dict[str, object]:
    """The ``trace_<workload>.json`` content: spans relative to the root."""
    epoch = spans[0][1]
    own = self_times(spans)
    return {
        **header,
        "spans": [
            {
                "name": name,
                "start_s": start - epoch,
                "end_s": end - epoch,
                "parent": parent,
                "self_s": seconds,
                "tag": tag,
            }
            for (name, start, end, parent, tag), seconds in zip(spans, own)
        ],
    }
