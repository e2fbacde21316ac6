"""RunReport: the serialized form of one observed run.

A RunReport is the single schema every flow in the toolkit reports
through — CLI ``--report`` files, ``BENCH_*.json`` entries, and anything
a test wants to snapshot.  The schema is *append-only*: new code may add
keys but must never remove or rename them (``tests/test_report_schema.py``
holds the key tree to that), so downstream consumers written against an
old report keep working.

Top-level schema (version 1)::

    {
      "schema_version": 1,
      "name": "repro.atpg",
      "labels": {"command": "atpg", ...},
      "generated_unix_s": 1754500000.0,
      "meta": {...},                      # argv, circuit, free-form
      "span": {"name", "labels", "start_s", "wall_time_s", "children": [...]},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "payload": ...,                     # optional: bench rows, etc.
      "events": {"clock": {...}, "events": [...], "epoch_mono": ...}  # optional
    }
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .span import Observation

#: Current report schema version.  Bump only for *incompatible* changes;
#: additive keys do not require a bump.
SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """One run's span tree, metrics, and metadata in stable-schema form."""

    name: str
    labels: Dict[str, str] = field(default_factory=dict)
    span: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    payload: object = None
    generated_unix_s: float = 0.0
    schema_version: int = SCHEMA_VERSION
    #: Stitched telemetry event payload (see ``repro.obs.events``):
    #: ``{"clock": {...}, "events": [...], "epoch_mono": <root span start>}``.
    #: Empty dict when the run emitted no events; serialized as the
    #: optional ``events`` key (schema-additive).
    events_payload: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_observation(
        cls,
        observation: Observation,
        meta: Optional[Dict[str, object]] = None,
        payload: object = None,
    ) -> "RunReport":
        observation.finish()
        events_payload: Dict[str, object] = {}
        if len(observation.events):
            events_payload = observation.events.to_payload()
            # Anchor the event timeline to the span timeline: spans
            # serialize relative to the root's start, so exporters need
            # that same zero point in monotonic terms.
            events_payload["epoch_mono"] = observation.root.start_mono
        return cls(
            name=observation.root.name,
            labels=dict(observation.root.labels),
            span=observation.root.to_dict(),
            metrics=observation.metrics.to_dict(),
            meta=dict(meta or {}),
            payload=payload,
            generated_unix_s=time.time(),
            events_payload=events_payload,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        report: Dict[str, object] = {
            "schema_version": self.schema_version,
            "name": self.name,
            "labels": dict(self.labels),
            "generated_unix_s": self.generated_unix_s,
            "meta": dict(self.meta),
            "span": self.span,
            "metrics": self.metrics,
        }
        if self.payload is not None:
            report["payload"] = self.payload
        if self.events_payload:
            report["events"] = self.events_payload
        return report

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunReport":
        version = payload.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"not a RunReport: bad schema_version {version!r}")
        return cls(
            name=payload.get("name", "?"),
            labels=dict(payload.get("labels", {})),
            span=dict(payload.get("span", {})),
            metrics=dict(payload.get("metrics", {})),
            meta=dict(payload.get("meta", {})),
            payload=payload.get("payload"),
            generated_unix_s=payload.get("generated_unix_s", 0.0),
            schema_version=version,
            events_payload=dict(payload.get("events", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Schema-compat support
    # ------------------------------------------------------------------

    def key_paths(self) -> List[str]:
        """Sorted structural key paths of the serialized report.

        List elements collapse to ``[]`` so the paths describe the shape,
        not the cardinality — the golden-schema test snapshots these and
        asserts later versions only ever *add* paths.
        """
        paths: set = set()
        _collect_paths(self.to_dict(), "", paths)
        return sorted(paths)


def _collect_paths(node: object, prefix: str, paths: set) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            _collect_paths(value, path, paths)
    elif isinstance(node, list):
        path = f"{prefix}[]"
        for item in node:
            _collect_paths(item, path, paths)
