"""Typed metrics with deterministic, associative merge semantics.

Three metric kinds, chosen so that per-partition metrics from supervised
fault-sim workers merge back into the parent *exactly* like
the fault results themselves min-merge — independent of worker count,
completion order, and partition order:

* :class:`Counter` — a monotone sum.  Merge adds values; integer counters
  (events, words, faults) merge exactly, so the merged total is
  bit-identical however the partials are grouped.
* :class:`Gauge` — a point-in-time value.  Merge takes the maximum, the
  only order-free choice that needs no timestamps.
* :class:`Histogram` — fixed-boundary buckets plus count/total/min/max.
  Merge adds bucket counts element-wise, so distributions from any number
  of workers fold into one.

All three merges are associative and commutative (for integer
observations, exactly; ``tests/test_obs_properties.py`` holds them to
that with hypothesis).  :class:`MetricRegistry` keys metrics by
``(name, sorted labels)`` and round-trips through plain dicts so worker
registries can travel across process boundaries inside
``FaultSimResult.stats``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram boundaries: a seconds-oriented geometric ladder that
#: also buckets small integer observations sensibly.  The last bucket is
#: implicit +Inf.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)

#: Key type inside a registry: metric name plus sorted label pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_id(name: str, labels: Dict[str, str]) -> str:
    """Stable textual identity: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in _label_key(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A summed metric.  ``add`` accumulates; merge is addition."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: Number = 0):
        self.value: Number = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Counter":
        return cls(payload.get("value", 0))


class Gauge:
    """A point-in-time value.  ``set`` overwrites; merge keeps the max."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, value: Optional[Number] = None):
        self.value: Optional[Number] = value

    def set(self, value: Number) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value is None:
            return
        if self.value is None or other.value > self.value:
            self.value = other.value

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Gauge":
        return cls(payload.get("value"))


class Histogram:
    """Fixed-boundary bucketed distribution (Prometheus-style, cumulative
    only at export time — internal counts are per-bucket).

    ``bounds`` are the inclusive upper edges; one implicit overflow bucket
    collects everything above the last edge.  Merging requires identical
    bounds — a deliberate error otherwise, since silently resampling
    would break the associativity guarantee.
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bounds must be non-empty and sorted, got {bounds!r}")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        position = len(self.bounds)
        for index, edge in enumerate(self.bounds):
            if value <= edge:
                position = index
                break
        self.bucket_counts[position] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        histogram = cls(tuple(payload["bounds"]))
        counts = list(payload.get("bucket_counts", []))
        if len(counts) != len(histogram.bucket_counts):
            raise ValueError(
                f"bucket_counts length {len(counts)} does not match "
                f"{len(histogram.bounds)} bounds"
            )
        histogram.bucket_counts = counts
        histogram.count = payload.get("count", 0)
        histogram.total = payload.get("total", 0)
        histogram.min = payload.get("min")
        histogram.max = payload.get("max")
        return histogram


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricRegistry:
    """All metrics of one observation, keyed by name + labels.

    ``merge`` folds another registry in (creating missing metrics), which
    is how per-partition worker metrics come home: each worker serializes
    its registry with :meth:`to_dict`, the dict rides back inside the
    partial result's ``stats``, and the parent merges them in any order —
    the totals are independent of worker count and completion order.
    """

    def __init__(self):
        self._metrics: Dict[MetricKey, object] = {}
        self._labels: Dict[MetricKey, Dict[str, str]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, name: str, labels: Dict[str, str], kind: str, factory):
        key: MetricKey = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
            self._labels[key] = {str(k): str(v) for k, v in labels.items()}
        elif metric.kind != kind:
            raise TypeError(
                f"metric {metric_id(name, labels)!r} already registered "
                f"as {metric.kind}, requested as {kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, labels, "counter", Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, labels, "gauge", Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS, **labels: str
    ) -> Histogram:
        return self._get(name, labels, "histogram", lambda: Histogram(bounds))

    def items(self) -> Iterable[Tuple[str, Dict[str, str], object]]:
        """``(name, labels, metric)`` triples in sorted key order."""
        for key in sorted(self._metrics):
            yield key[0], self._labels[key], self._metrics[key]

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold ``other`` into this registry (associative, commutative)."""
        for key in sorted(other._metrics):
            theirs = other._metrics[key]
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(theirs.bounds)
                else:
                    mine = type(theirs)()
                self._metrics[key] = mine
                self._labels[key] = dict(other._labels[key])
            elif mine.kind != theirs.kind:
                raise TypeError(
                    f"metric {metric_id(key[0], dict(key[1]))!r} is a "
                    f"{mine.kind} here but a {theirs.kind} in the merged "
                    f"registry"
                )
            mine.merge(theirs)
        return self

    def merge_dict(self, payload: Dict[str, object]) -> "MetricRegistry":
        """Merge a registry previously serialized with :meth:`to_dict`."""
        return self.merge(MetricRegistry.from_dict(payload))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Stable-schema dict: one section per kind, keyed by metric id."""
        sections: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        section_of = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for name, labels, metric in self.items():
            entry = {"name": name, "labels": dict(labels)}
            entry.update(metric.to_dict())
            sections[section_of[metric.kind]][metric_id(name, labels)] = entry
        return sections

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MetricRegistry":
        registry = cls()
        kind_of = {"counters": Counter, "gauges": Gauge, "histograms": Histogram}
        for section, metric_cls in kind_of.items():
            for entry in payload.get(section, {}).values():
                labels = {str(k): str(v) for k, v in entry.get("labels", {}).items()}
                key: MetricKey = (entry["name"], _label_key(labels))
                registry._metrics[key] = metric_cls.from_dict(entry)
                registry._labels[key] = labels
        return registry
