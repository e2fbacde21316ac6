"""Typed metrics: counters and gauges keyed by name and labels.

* :class:`Counter` — a monotone sum (events, words, faults, seconds).
* :class:`Gauge` — a point-in-time value; the last ``set`` wins.

Every metric lives in the parent process.  Fault-simulation counters are
published from a finished run's ``FaultSimResult.stats`` by
``FaultSimulator._publish``, the same way for every engine and worker
count, so a RunReport's counters and the stats dict are one record.
:meth:`MetricRegistry.to_dict` is the RunReport ``metrics`` section; its
``histograms`` section stays (always empty) because the report schema
only grows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

Number = Union[int, float]

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
    """A summed metric: ``add`` accumulates."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: Number = 0):
        self.value: Number = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """A point-in-time value: ``set`` overwrites."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, value: Optional[Number] = None):
        self.value: Optional[Number] = value

    def set(self, value: Number) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class MetricRegistry:
    """All metrics of one observation, keyed by name + labels."""

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

    def items(self) -> Iterable[Tuple[str, Dict[str, str], object]]:
        """``(name, labels, metric)`` triples in sorted key order."""
        for key in sorted(self._metrics):
            yield key[0], self._labels[key], self._metrics[key]

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Stable-schema dict: one section per kind, keyed by metric id."""
        sections: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, labels, metric in self.items():
            entry = {"name": name, "labels": dict(labels)}
            entry.update(metric.to_dict())
            sections[metric.kind + "s"][metric_id(name, labels)] = entry
        return sections
