"""``repro.obs`` — dependency-free tracing, metrics, and run reports.

The toolkit's flows (fault simulation, ATPG, compression, LBIST, MBIST)
instrument themselves against *whatever observation is currently active*:

* :func:`observe` opens an :class:`~repro.obs.span.Observation` and makes
  it current for the duration of the ``with`` block;
* :func:`span`, :func:`add_counters`, :func:`counter`, :func:`gauge`,
  :func:`histogram`, and :func:`merge_metrics` all no-op (at a single
  list-lookup's cost) when nothing is active, so instrumented hot paths
  pay effectively nothing unless someone asked to watch — the CLI's
  ``--report``/``--profile`` flags, a benchmark, or a test.

Example::

    from repro import obs
    from repro.atpg.engine import run_atpg

    with obs.observe("repro.atpg", circuit="mac4") as o:
        run_atpg(netlist)
    report = obs.RunReport.from_observation(o)
    print(report.to_json())  # stable-schema JSON

Observations nest (the innermost wins), which keeps library code
composable: a benchmark can observe a whole sweep while each CLI-style
run inside it observes itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from .events import EventLog, TelemetryEvent, read_jsonl, stitch_payloads
from .metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    metric_id,
)
from .report import SCHEMA_VERSION, RunReport
from .span import Observation, Span
from .trace import chrome_trace, write_chrome_trace

__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Observation",
    "RunReport",
    "SCHEMA_VERSION",
    "Span",
    "TelemetryEvent",
    "add_counters",
    "chrome_trace",
    "counter",
    "current",
    "emit_event",
    "gauge",
    "histogram",
    "merge_events",
    "merge_metrics",
    "metric_id",
    "observe",
    "read_jsonl",
    "set_gauge",
    "span",
    "stitch_payloads",
    "write_chrome_trace",
]

# The active-observation stack.  Deliberately a plain module-level list:
# observations are per-run (CLI invocation, benchmark, test), workers in
# other processes build their own, and the no-op fast path must stay a
# single attribute load + truth test.
_ACTIVE: List[Observation] = []


def current() -> Optional[Observation]:
    """The innermost active observation, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def observe(name: str, **labels: object) -> Iterator[Observation]:
    """Open an observation and make it current inside the ``with`` block."""
    observation = Observation(name, **labels)
    _ACTIVE.append(observation)
    try:
        yield observation
    finally:
        observation.finish()
        if observation in _ACTIVE:
            _ACTIVE.remove(observation)


@contextmanager
def span(name: str, **labels: object) -> Iterator[Optional[Span]]:
    """A child span of the current observation (no-op when inactive)."""
    observation = current()
    if observation is None:
        yield None
        return
    with observation.span(name, **labels) as opened:
        yield opened


def add_counters(prefix: str, values: Dict[str, object], **labels: str) -> None:
    """Bulk-add numeric ``values`` as ``prefix.key`` counters (no-op when
    inactive).  Non-numeric values are skipped, so a raw stats dict works."""
    observation = current()
    if observation is not None:
        observation.add_counters(prefix, values, **labels)


def counter(name: str, **labels: str) -> Optional[Counter]:
    """The named counter of the current observation, or ``None``."""
    observation = current()
    return None if observation is None else observation.counter(name, **labels)


def gauge(name: str, **labels: str) -> Optional[Gauge]:
    """The named gauge of the current observation, or ``None``."""
    observation = current()
    return None if observation is None else observation.gauge(name, **labels)


def histogram(
    name: str, bounds: Sequence[float] = DEFAULT_BOUNDS, **labels: str
) -> Optional[Histogram]:
    """The named histogram of the current observation, or ``None``."""
    observation = current()
    return (
        None if observation is None else observation.histogram(name, bounds, **labels)
    )


def merge_metrics(payload: Optional[Dict[str, object]]) -> None:
    """Merge a serialized metric registry into the current observation.

    The supervised backend builds one registry per published partition
    result in the parent (workers ship none), merges them into the run's
    ``stats["metrics"]``, and folds that in here (in any order — the merge
    is associative and commutative).
    """
    observation = current()
    if observation is not None and payload:
        observation.merge_metrics(payload)


def set_gauge(name: str, value: object, **labels: str) -> None:
    """Set a gauge on the current observation (no-op when inactive)."""
    observation = current()
    if observation is not None and isinstance(value, (int, float)):
        observation.gauge(name, **labels).set(value)


def emit_event(kind: str, name: str = "", **kwargs: object) -> None:
    """Append a telemetry event to the current observation (no-op when
    inactive).  ``partition=``/``attempt=`` identify sharded work; other
    keywords land in the event's free-form ``args``."""
    observation = current()
    if observation is not None:
        observation.emit_event(kind, name, **kwargs)


def merge_events(payload: Optional[Dict[str, object]]) -> None:
    """Stitch a shipped worker event payload into the current observation.

    The parent half of the worker-events round trip: workers ship
    ``EventLog.to_payload()`` envelopes home inside
    ``FaultSimResult.stats`` and the parent re-bases each onto its own
    monotonic timeline (see :meth:`~repro.obs.events.EventLog.ingest`).
    """
    observation = current()
    if observation is not None and payload:
        observation.merge_events(payload)
