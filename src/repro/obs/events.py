"""Append-only telemetry event stream with cross-process stitching.

Spans (:mod:`repro.obs.span`) answer *how long* each region of a flow
took; the event stream answers *when things happened and in which
process* — partition begin/end on each worker, a failed shard, store
publishes, heartbeats.  Every :class:`TelemetryEvent` carries **both
clocks**:

* ``t_mono`` — ``time.perf_counter()`` in the emitting process.  Spacing
  between two events of one process is exact, but the zero point is
  per-process (perf_counter's epoch is unspecified).
* ``t_wall`` — ``time.time()``.  Comparable across processes but subject
  to NTP steps, so never used for durations.

Workers therefore ship their events home as a *payload*: the event list
plus a ``clock`` record holding the process's wall-minus-monotonic
offset.  :meth:`EventLog.ingest` stitches a payload onto the receiving
log's own monotonic timeline by re-basing each event through the wall
clock::

    t_mono' = t_mono + (worker_offset - parent_offset)

which preserves the worker's exact monotonic spacing while aligning its
zero point with the parent's — the per-process clock-skew normalization
a merged timeline needs.  The stitched log exports to Chrome trace-event
JSON via :mod:`repro.obs.trace` and to JSONL side files for ad-hoc
tooling.

Event payloads are plain JSON-safe dicts on purpose: they ride across
``multiprocessing`` pipes and home inside ``FaultSimResult.stats``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: Event kinds emitted by the toolkit.  The stream is open — consumers
#: must tolerate kinds they do not know — but these are the ones the
#: backends produce and the trace exporter styles.
SPAN_BEGIN = "span_begin"
SPAN_END = "span_end"
PARTITION_BEGIN = "partition_begin"
PARTITION_END = "partition_end"
HEARTBEAT = "heartbeat"
# A supervised shard failed (its reason in ``args``): the run stopped here.
CRASH = "crash"
# Shard-store results (repro.sim.store): first-write publishes, and
# duplicate publishes that converged on the same digest.
PUBLISH = "publish"
PUBLISH_CONFLICT = "publish_conflict"

#: Kinds rendered as instant markers on a timeline (everything that is a
#: moment, not a region).
INSTANT_KINDS = (HEARTBEAT, CRASH, PUBLISH, PUBLISH_CONFLICT)


@dataclass
class TelemetryEvent:
    """One timestamped telemetry instant.

    ``partition`` identifies the shard the event belongs to (``None``
    for whole-run events); ``args`` is free-form JSON-safe detail
    (reasons, counts).
    """

    kind: str
    name: str = ""
    t_mono: float = 0.0
    t_wall: float = 0.0
    pid: int = 0
    partition: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "t_mono": self.t_mono,
            "t_wall": self.t_wall,
            "pid": self.pid,
        }
        if self.partition is not None:
            payload["partition"] = self.partition
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TelemetryEvent":
        return cls(
            kind=str(payload.get("kind", "?")),
            name=str(payload.get("name", "")),
            t_mono=float(payload.get("t_mono", 0.0)),
            t_wall=float(payload.get("t_wall", 0.0)),
            pid=int(payload.get("pid", 0)),
            partition=payload.get("partition"),
            args=dict(payload.get("args", {})),
        )


class EventLog:
    """An append-only, per-process telemetry event stream.

    Each process owns one log per unit of shipped work (a worker owns one
    per shard; a backend owns one per campaign; an
    :class:`~repro.obs.span.Observation` owns one per run).  Emitting is
    append-only and cheap — one perf_counter read, one wall read, one
    list append — so it is safe from supervision loops.
    """

    def __init__(self):
        self.events: List[TelemetryEvent] = []
        self.pid = os.getpid()
        # The wall-minus-monotonic offset is this process's clock
        # identity: two samples of it differ only by scheduling jitter,
        # and the *difference* between two processes' offsets is exactly
        # the shift needed to stitch their monotonic timelines together.
        self.wall_minus_mono = time.time() - time.perf_counter()

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        kind: str,
        name: str = "",
        partition: Optional[int] = None,
        **args: object,
    ) -> TelemetryEvent:
        """Append one event stamped with both clocks of this process."""
        event = TelemetryEvent(
            kind=kind,
            name=name,
            t_mono=time.perf_counter(),
            t_wall=time.time(),
            pid=self.pid,
            partition=partition,
            args=dict(args),
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Shipping and stitching
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe envelope: clock identity plus the event list."""
        return {
            "clock": {"pid": self.pid, "wall_minus_mono": self.wall_minus_mono},
            "events": [event.to_dict() for event in self.events],
        }

    def ingest(self, payload: Optional[Dict[str, object]]) -> int:
        """Stitch a shipped payload onto this log's monotonic timeline.

        Every ingested event's ``t_mono`` is re-based through the wall
        clock (``t_mono + other_offset - my_offset``) so all events in
        this log share one zero point while keeping each source process's
        exact monotonic spacing.  ``pid``/``t_wall`` are preserved, so
        per-process tracks can still be reconstructed.  Returns the
        number of events added; tolerates ``None`` and empty payloads.
        """
        if not payload:
            return 0
        clock = payload.get("clock") or {}
        skew = float(clock.get("wall_minus_mono", self.wall_minus_mono))
        shift = skew - self.wall_minus_mono
        added = 0
        for entry in payload.get("events", ()):
            event = TelemetryEvent.from_dict(entry)
            event.t_mono += shift
            self.events.append(event)
            added += 1
        return added

    def merged(self) -> List[TelemetryEvent]:
        """All events sorted by (stitched) monotonic time."""
        return sorted(self.events, key=lambda event: event.t_mono)

    # ------------------------------------------------------------------
    # JSONL side files
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> str:
        """Append this log to a JSONL side file (one event per line).

        The first line of each appended block is the clock record, so a
        reader can stitch several processes' files the same way
        :meth:`ingest` stitches payloads.
        """
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "kind": "clock",
                        "pid": self.pid,
                        "wall_minus_mono": self.wall_minus_mono,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        return path


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a JSONL event side file into payloads :meth:`EventLog.ingest`
    accepts: one payload per ``clock`` record, torn trailing line tolerated."""
    payloads: List[Dict[str, object]] = []
    current: Optional[Dict[str, object]] = None
    with open(path, "r") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                break  # torn trailing line from a kill mid-write
            if line.get("kind") == "clock":
                current = {
                    "clock": {
                        "pid": line.get("pid", 0),
                        "wall_minus_mono": line.get("wall_minus_mono", 0.0),
                    },
                    "events": [],
                }
                payloads.append(current)
            elif current is not None:
                current["events"].append(line)
            else:  # eventless preamble: tolerate files without a clock line
                payloads.append({"clock": {}, "events": [line]})
                current = payloads[-1]
    return payloads


def stitch_payloads(payloads: Iterable[Dict[str, object]]) -> EventLog:
    """Convenience: a fresh log with every payload ingested and stitched."""
    log = EventLog()
    for payload in payloads:
        log.ingest(payload)
    return log
