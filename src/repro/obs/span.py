"""Hierarchical spans and the observation that collects them.

A :class:`Span` is one timed region of a flow — an ATPG phase, a
fault-simulation pass, an LBIST coverage loop — with a name, string
labels, and children nested inside it.  Durations come exclusively from
``time.perf_counter()`` (monotonic), never the wall clock, so a span's
end can never precede its start even across clock adjustments
(``tests/test_obs.py`` pins that).

An :class:`Observation` owns one root span plus a
:class:`~repro.obs.metrics.MetricRegistry`; it is the unit the CLI's
``--report``/``--profile`` flags create and the unit a
:class:`~repro.obs.report.RunReport` serializes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .events import EventLog
from .metrics import MetricRegistry


class Span:
    """One timed, labeled, nestable region."""

    __slots__ = ("name", "labels", "children", "_start", "_elapsed")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = {
            str(k): str(v) for k, v in (labels or {}).items()
        }
        self.children: List["Span"] = []
        self._start = time.perf_counter()
        self._elapsed: Optional[float] = None

    @property
    def start_mono(self) -> float:
        """``time.perf_counter()`` reading at span open (process-local)."""
        return self._start

    @property
    def wall_time_s(self) -> float:
        """Elapsed monotonic seconds (still ticking until finished)."""
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._start

    def finish(self) -> "Span":
        if self._elapsed is None:
            # perf_counter is monotonic, but defend the invariant anyway:
            # a span's duration is never negative.
            self._elapsed = max(0.0, time.perf_counter() - self._start)
        return self

    def child(self, name: str, labels: Optional[Dict[str, str]] = None) -> "Span":
        span = Span(name, labels)
        self.children.append(span)
        return span

    def to_dict(self, epoch: Optional[float] = None) -> Dict[str, object]:
        """Stable-schema dict: name, labels, start_s, wall_time_s, children.

        ``start_s`` is the span's open time relative to ``epoch`` (the
        root span's own start when omitted), which is what timeline
        exporters need to place slices without trusting the wall clock.
        """
        if epoch is None:
            epoch = self._start
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "start_s": max(0.0, self._start - epoch),
            "wall_time_s": self.wall_time_s,
            "children": [child.to_dict(epoch) for child in self.children],
        }

    def tree_lines(self, indent: int = 0) -> List[str]:
        """Human-readable indented rendering (the ``--profile`` output)."""
        label_text = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(self.labels.items())) + "]"
            if self.labels
            else ""
        )
        lines = [f"{'  ' * indent}{self.name:<24s} {self.wall_time_s * 1e3:10.2f} ms{label_text}"]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


class Observation:
    """One traced run: a root span, nested child spans, and metrics."""

    def __init__(self, name: str, **labels: object):
        self.metrics = MetricRegistry()
        self.events = EventLog()
        self.root = Span(name, {str(k): str(v) for k, v in labels.items()})
        self._stack: List[Span] = [self.root]

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    @property
    def current_span(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """Open a child span of the innermost open span."""
        child = self.current_span.child(
            name, {str(k): str(v) for k, v in labels.items()}
        )
        self._stack.append(child)
        try:
            yield child
        finally:
            child.finish()
            # Tolerate out-of-order closes (a crashed generator mid-tree):
            # pop back to the parent of the closing span.
            if child in self._stack:
                while self._stack[-1] is not child:
                    self._stack.pop().finish()
                self._stack.pop()

    def finish(self) -> "Observation":
        while len(self._stack) > 1:
            self._stack.pop().finish()
        self.root.finish()
        return self

    # ------------------------------------------------------------------
    # Metrics passthrough
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: str):
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: str):
        return self.metrics.gauge(name, **labels)

    def add_counters(
        self, prefix: str, values: Dict[str, object], **labels: str
    ) -> None:
        """Bulk-add numeric ``values`` as counters named ``prefix.key``.

        Non-numeric entries (engine names, nested partition lists) are
        skipped, which lets callers feed a ``FaultSimResult.stats`` dict
        straight in without curating it first.
        """
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.metrics.counter(f"{prefix}.{key}", **labels).add(value)

    # ------------------------------------------------------------------
    # Telemetry events passthrough
    # ------------------------------------------------------------------

    def emit_event(self, kind: str, name: str = "", **kwargs: object):
        """Append a telemetry event to this observation's event log."""
        return self.events.emit(kind, name, **kwargs)

    def merge_events(self, payload: Optional[Dict[str, object]]) -> int:
        """Stitch a shipped worker event payload onto this timeline."""
        return self.events.ingest(payload)
