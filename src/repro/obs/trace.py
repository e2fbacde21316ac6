"""Chrome trace-event export: one timeline across every process.

Turns one observed run — the span tree a :class:`~repro.obs.report.RunReport`
serializes plus the stitched :mod:`~repro.obs.events` stream — into the
Chrome trace-event JSON format, viewable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* the parent process contributes one track holding the span tree as
  complete (``ph: "X"``) slices — ATPG phases, fault-sim passes, the
  good-machine response;
* every worker process contributes its own track, one slice per
  partition attempt (from ``partition_begin``/``partition_end`` event
  pairs), so load imbalance and retry gaps are visible at a glance;
* supervisor moments — retries, timeout kills, crashes, chaos
  injections, inline fallbacks, store publishes — render as instant
  (``ph: "i"``) markers;
* heartbeats carrying ``faults_graded`` render as a counter
  (``ph: "C"``) series, the campaign's live progress curve.

Timestamps are microseconds relative to the run's root span, on the
parent's monotonic clock — worker events were already re-based onto that
clock when they were stitched (see :meth:`repro.obs.events.EventLog.ingest`),
so slices from different processes line up without trusting any wall
clock.  Wired to every CLI subcommand as ``--trace out.trace.json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .events import (
    HEARTBEAT,
    INSTANT_KINDS,
    PARTITION_BEGIN,
    PARTITION_END,
    TelemetryEvent,
)
from .report import RunReport

#: ``pid`` used for the parent/span track when the report predates event
#: payloads (no clock record to take the real pid from).
FALLBACK_PID = 1


def chrome_trace(report: RunReport) -> Dict[str, object]:
    """Build a Chrome trace-event dict from one serialized run."""
    trace_events: List[Dict[str, object]] = []
    payload = report.events_payload or {}
    clock = payload.get("clock") or {}
    parent_pid = int(clock.get("pid", FALLBACK_PID)) or FALLBACK_PID
    epoch = payload.get("epoch_mono")

    _emit_process_meta(trace_events, parent_pid, f"{report.name} (parent)", 0)
    _emit_thread_meta(trace_events, parent_pid, parent_pid, "flow")
    if report.span:
        _span_slices(report.span, parent_pid, trace_events)

    events = [
        TelemetryEvent.from_dict(entry) for entry in payload.get("events", ())
    ]
    if events:
        if epoch is None:
            epoch = min(event.t_mono for event in events)
        _event_slices(events, float(epoch), parent_pid, trace_events)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "name": report.name,
            "labels": dict(report.labels),
            "schema_version": report.schema_version,
        },
    }


def write_chrome_trace(path: str, report: RunReport) -> str:
    """Serialize :func:`chrome_trace` of ``report`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(report), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Span tree -> complete slices on the parent track
# ----------------------------------------------------------------------


def _span_slices(
    span: Dict[str, object], pid: int, out: List[Dict[str, object]]
) -> None:
    out.append(
        {
            "ph": "X",
            "name": str(span.get("name", "?")),
            "cat": "span",
            "ts": round(float(span.get("start_s", 0.0)) * 1e6, 3),
            "dur": round(float(span.get("wall_time_s", 0.0)) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": dict(span.get("labels", {})),
        }
    )
    for child in span.get("children", []):
        _span_slices(child, pid, out)


# ----------------------------------------------------------------------
# Telemetry events -> worker tracks, instants, progress counter
# ----------------------------------------------------------------------


def _event_slices(
    events: List[TelemetryEvent],
    epoch: float,
    parent_pid: int,
    out: List[Dict[str, object]],
) -> None:
    def ts(event: TelemetryEvent) -> float:
        return round((event.t_mono - epoch) * 1e6, 3)

    # One named track per worker process, ordered below the parent.
    worker_pids = sorted(
        {event.pid for event in events if event.pid != parent_pid}
    )
    for order, pid in enumerate(worker_pids, start=1):
        _emit_process_meta(out, pid, f"worker pid={pid}", order)
        _emit_thread_meta(out, pid, pid, "partitions")

    open_partitions: Dict[Tuple[int, Optional[int], Optional[int]], TelemetryEvent] = {}
    for event in sorted(events, key=lambda item: item.t_mono):
        key = (event.pid, event.partition, event.attempt)
        if event.kind == PARTITION_BEGIN:
            open_partitions[key] = event
        elif event.kind == PARTITION_END:
            begin = open_partitions.pop(key, None)
            start = begin.t_mono if begin is not None else event.t_mono
            args: Dict[str, object] = {}
            if begin is not None:
                args.update(begin.args)
            args.update(event.args)
            out.append(
                {
                    "ph": "X",
                    "name": f"partition {event.partition}"
                    + (f" (attempt {event.attempt})" if event.attempt else ""),
                    "cat": "partition",
                    "ts": round((start - epoch) * 1e6, 3),
                    "dur": round(max(0.0, event.t_mono - start) * 1e6, 3),
                    "pid": event.pid,
                    "tid": event.pid,
                    "args": args,
                }
            )
        elif event.kind == HEARTBEAT and "faults_graded" in event.args:
            out.append(
                {
                    "ph": "C",
                    "name": "faults_graded",
                    "cat": "progress",
                    "ts": ts(event),
                    "pid": parent_pid,
                    "args": {
                        "faults_graded": event.args.get("faults_graded", 0)
                    },
                }
            )
        elif event.kind in INSTANT_KINDS:
            out.append(
                {
                    "ph": "i",
                    "s": "p",
                    "name": _instant_name(event),
                    "cat": event.kind,
                    "ts": ts(event),
                    "pid": event.pid if event.pid in worker_pids else parent_pid,
                    "tid": event.pid if event.pid in worker_pids else parent_pid,
                    "args": dict(event.args),
                }
            )
    # A begin with no matching end (killed worker): render what we know
    # as an instant so the timeline still shows the attempt started.
    for begin in open_partitions.values():
        out.append(
            {
                "ph": "i",
                "s": "p",
                "name": f"partition {begin.partition} (unfinished)",
                "cat": "partition",
                "ts": round((begin.t_mono - epoch) * 1e6, 3),
                "pid": begin.pid,
                "tid": begin.pid,
                "args": dict(begin.args),
            }
        )


def _instant_name(event: TelemetryEvent) -> str:
    base = event.name or event.kind
    if event.partition is not None:
        return f"{base} p{event.partition}"
    return base


def _emit_process_meta(
    out: List[Dict[str, object]], pid: int, name: str, sort_index: int
) -> None:
    out.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "args": {"name": name},
        }
    )
    out.append(
        {
            "ph": "M",
            "name": "process_sort_index",
            "pid": pid,
            "args": {"sort_index": sort_index},
        }
    )


def _emit_thread_meta(
    out: List[Dict[str, object]], pid: int, tid: int, name: str
) -> None:
    out.append(
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }
    )
