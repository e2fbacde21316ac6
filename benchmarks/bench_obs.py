"""Observability — Table: instrumentation overhead and stitching cost.

The obs layer's contract is that instrumented hot paths pay effectively
nothing unless someone is watching.  This benchmark pins that contract
with numbers and records them to ``BENCH_obs.json``:

* ``e3_xN`` / ``e3_observed_xN`` — replicated E3-style fault-simulation
  campaigns without and with an active observation (spans + counters +
  telemetry events all live).  The deterministic work counters
  (``events_propagated``, ``detected``) double as the regression gate's
  drift check.
* ``noop_hook`` — per-call cost of the inactive fast path
  (``obs.emit_event`` / ``obs.counter`` with no observation active),
  plus its projected share of one E3 campaign.  Acceptance pin: that
  share stays under ``OVERHEAD_BOUND`` (2%).
* ``stitch_xN`` — cost of re-basing and merging worker event payloads
  (:func:`repro.obs.events.stitch_payloads`) at trace-export scale.

``python -m benchmarks.bench_obs --smoke`` runs a small circuit with
fewer replicates in a few seconds and writes ``BENCH_obs_smoke.json``
— the envelope CI gates against ``benchmarks/baselines/``.
"""

import os
import sys
import time

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.obs.events import HEARTBEAT, SPAN_BEGIN, EventLog, stitch_payloads
from repro.sim.faultsim import FaultSimulator

from .util import print_table, run_once, write_bench_json

FULL_SIZE = (12, 480, 3)
FULL_PATTERNS = 256
FULL_REPLICATES = 5
SMOKE_SIZE = (8, 90, 1)
SMOKE_PATTERNS = 64
SMOKE_REPLICATES = 3
NOOP_CALLS = 200_000
FULL_STITCH = (16, 2_000)  # (sources, events per source)
SMOKE_STITCH = (8, 500)
OVERHEAD_BOUND = 0.02  # inactive hooks must cost <2% of an E3 campaign


def _setup(size, n_patterns):
    netlist = generators.random_circuit(*size[:2], seed=size[2])
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=size[2])
    return netlist, simulator, faults, patterns


def _e3_rows(simulator, faults, patterns, replicates):
    """The E3 campaign, replicated plain and replicated under observation."""
    rows = []
    hooks_per_run = 0
    for rep in range(replicates):
        assert obs.current() is None  # the plain runs must hit the no-op path
        start = time.perf_counter()
        result = simulator.simulate(patterns, faults, drop=False)
        rows.append(
            {
                "name": f"e3_x{rep}",
                "wall_time_s": time.perf_counter() - start,
                "events_propagated": result.stats.get("events_propagated", 0),
                "faults": result.total_faults,
                "detected": len(result.detected),
            }
        )
    for rep in range(replicates):
        start = time.perf_counter()
        with obs.observe("bench.obs.e3") as observation:
            result = simulator.simulate(patterns, faults, drop=False)
        hooks_per_run = (
            len(observation.events)
            + len(observation.metrics)
            + len(observation.root.tree_lines())
        )
        rows.append(
            {
                "name": f"e3_observed_x{rep}",
                "wall_time_s": time.perf_counter() - start,
                "events_propagated": result.stats.get("events_propagated", 0),
                "detected": len(result.detected),
            }
        )
    return rows, hooks_per_run


def _noop_row(e3_wall_s, hooks_per_run):
    """Microbench the inactive fast path and project it onto one campaign."""
    assert obs.current() is None
    calls = NOOP_CALLS
    start = time.perf_counter()
    for _ in range(calls // 2):
        obs.emit_event(SPAN_BEGIN, "noop")
        obs.add_counters("bench.noop", {})
    elapsed = time.perf_counter() - start
    per_call_s = elapsed / calls
    projected = per_call_s * hooks_per_run
    return {
        "name": "noop_hook",
        "calls": calls,
        "wall_time_s": elapsed,
        "per_call_ns": per_call_s * 1e9,
        "hooks_per_run": hooks_per_run,
        "overhead_fraction": projected / e3_wall_s if e3_wall_s else 0.0,
    }


def _stitch_rows(replicates, stitch):
    """Worker-payload re-basing + merge at trace-export scale."""
    sources, events_per_source = stitch
    payloads = []
    for source in range(sources):
        log = EventLog()
        log.wall_minus_mono += float(source)  # force per-source re-basing
        for index in range(events_per_source):
            log.emit(HEARTBEAT, "hb", partition=source, faults_graded=index)
        payloads.append(log.to_payload())
    rows = []
    stitch_payloads(payloads)  # warm-up: allocator + dict churn
    for rep in range(replicates):
        start = time.perf_counter()
        merged = stitch_payloads(payloads)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "name": f"stitch_x{rep}",
                "sources": sources,
                "events": len(merged),
                "wall_time_s": elapsed,
            }
        )
    return rows


def _measure(size, n_patterns, replicates, stitch):
    netlist, simulator, faults, patterns = _setup(size, n_patterns)
    rows, hooks_per_run = _e3_rows(simulator, faults, patterns, replicates)
    e3_walls = sorted(
        row["wall_time_s"] for row in rows if row["name"].startswith("e3_x")
    )
    e3_median = e3_walls[len(e3_walls) // 2]
    rows.append(_noop_row(e3_median, hooks_per_run))
    rows.extend(_stitch_rows(replicates, stitch))
    for row in rows:
        row["circuit"] = netlist.name
    return rows


def _check_and_write(rows, name):
    noop = next(row for row in rows if row["name"] == "noop_hook")
    assert noop["overhead_fraction"] < OVERHEAD_BOUND, noop
    path = write_bench_json(
        name, {"cpu_count": os.cpu_count() or 1, "rows": rows}
    )
    print(f"wrote {path}")
    return noop


def test_obs_overhead(benchmark):
    rows = run_once(
        benchmark, _measure, FULL_SIZE, FULL_PATTERNS, FULL_REPLICATES, FULL_STITCH
    )
    print_table("Observability: instrumentation overhead", rows)
    _check_and_write(rows, "obs")


def _run_smoke():
    """Quick CI envelope: small circuit, same row shape, same 2% pin."""
    rows = _measure(SMOKE_SIZE, SMOKE_PATTERNS, SMOKE_REPLICATES, SMOKE_STITCH)
    print_table("obs smoke", rows)
    noop = _check_and_write(rows, "obs_smoke")
    print(
        f"OK: inactive hook {noop['per_call_ns']:.0f}ns/call, "
        f"{noop['overhead_fraction'] * 100:.4f}% of an E3 campaign"
    )
    return 0


if __name__ == "__main__":
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
