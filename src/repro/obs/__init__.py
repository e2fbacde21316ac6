"""``repro.obs`` — dependency-free tracing, metrics, and run reports.

The toolkit's flows (fault simulation, ATPG, compression, LBIST, MBIST)
instrument themselves against *whatever observation is currently active*:

* :func:`observe` opens an :class:`~repro.obs.span.Observation` and makes
  it current for the duration of the ``with`` block;
* :func:`span`, :func:`add_counters`, :func:`counter`, :func:`set_gauge`
  and :func:`emit_event` all no-op (at a single list-lookup's cost) when
  nothing is active, so instrumented hot paths pay effectively nothing
  unless someone asked to watch — the CLI's ``--report``/``--profile``
  flags, a benchmark, or a test.

Example::

    from repro import obs
    from repro.atpg.engine import run_atpg
    from repro.obs.report import RunReport

    with obs.observe("repro.atpg", circuit="mac4") as o:
        run_atpg(netlist)
    report = RunReport.from_observation(o)
    print(report.to_json())  # stable-schema JSON

Observations nest (the innermost wins), which keeps library code
composable: a benchmark can observe a whole sweep while each CLI-style
run inside it observes itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .metrics import Counter
from .span import Observation, Span

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


def set_gauge(name: str, value: object, **labels: str) -> None:
    """Set a gauge on the current observation (no-op when inactive)."""
    observation = current()
    if observation is not None and isinstance(value, (int, float)):
        observation.gauge(name, **labels).set(value)


def emit_event(kind: str, name: str = "", **kwargs: object) -> None:
    """Append a telemetry event to the current observation (no-op when
    inactive).  ``partition=`` identifies sharded work; other keywords
    land in the event's free-form ``args``."""
    observation = current()
    if observation is not None:
        observation.emit_event(kind, name, **kwargs)
