"""Dispatch — Table: fault-simulation backend scaling (serial/ppsfp/supervised).

Times the backends of :mod:`repro.sim.dispatch` on generated circuits of
increasing size and records the rows to ``BENCH_dispatch.json`` for
cross-run comparison.  The supervised backend is measured at 1 and 2
workers against single-process PPSFP; identical detection results across
every backend and worker count double as the differential correctness
check.

With real parallelism (>=2 CPUs) the 2-worker supervised run should beat
single-process PPSFP on the largest circuit (asserted when enough cores
are available).  On a single-core host the supervised rows still run —
they measure dispatch overhead honestly — but the speedup assertion is
skipped and the core count is recorded in the JSON.
"""

import os
import time

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.supervisor import SupervisedPoolBackend

from .util import print_table, run_once, write_bench_json

# (n_inputs, n_gates, seed) — the standard generated-circuit ladder; the
# last entry is the "largest generated circuit" of the acceptance check.
SIZES = [(8, 120, 1), (10, 240, 2), (12, 480, 3)]
N_PATTERNS = 256
SUPERVISED_JOBS = (1, 2)
# Serial is O(faults x patterns x gates) in pure Python — minutes on the
# larger rungs — so it is timed only up to this gate count and reported as
# None above it (ppsfp is the meaningful single-process baseline there).
SERIAL_GATE_LIMIT = 150


def _time_backend(simulator, patterns, faults, **kwargs):
    start = time.perf_counter()
    result = simulator.simulate(patterns, faults, drop=False, **kwargs)
    return result, time.perf_counter() - start


def _compare(n_inputs, n_gates, seed):
    netlist = generators.random_circuit(n_inputs, n_gates, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, N_PATTERNS, seed=seed)

    serial = None
    serial_s = None
    if n_gates <= SERIAL_GATE_LIMIT:
        serial, serial_s = _time_backend(simulator, patterns, faults, engine="serial")
    ppsfp, ppsfp_s = _time_backend(simulator, patterns, faults, engine="ppsfp")

    row = {
        "circuit": netlist.name,
        "faults": len(faults),
        "serial_s": serial_s,
        "ppsfp_s": ppsfp_s,
    }
    supervised_stats = {}
    for jobs in SUPERVISED_JOBS:
        supervised, supervised_s = _time_backend(
            simulator, patterns, faults, engine=SupervisedPoolBackend(jobs=jobs)
        )
        assert supervised.detected == ppsfp.detected  # differential check
        assert supervised.undetected == ppsfp.undetected
        row[f"supervised{jobs}_s"] = supervised_s
        supervised_stats[jobs] = {
            "wall_time_s": supervised_s,
            "speedup_vs_ppsfp": ppsfp_s / supervised_s if supervised_s else float("inf"),
            "load_imbalance": supervised.stats["load_imbalance"],
            "partitions": len(supervised.stats["partitions"]),
        }
    if serial is not None:
        assert serial.detected == ppsfp.detected
    best_jobs = max(SUPERVISED_JOBS)
    row["speedup_x"] = supervised_stats[best_jobs]["speedup_vs_ppsfp"]
    row["imbalance"] = supervised_stats[best_jobs]["load_imbalance"]
    return row, supervised_stats


def _run_all():
    rows = []
    detail = {}
    for size in SIZES:
        row, supervised_stats = _compare(*size)
        rows.append(row)
        detail[row["circuit"]] = supervised_stats
    return rows, detail


# Acceptance: the 2-worker supervised run beats single-process PPSFP by
# this factor on the largest circuit.  Only meaningful with real
# parallelism, so the assertion is capability-gated on the core count —
# and the gate's verdict is recorded in the envelope instead of vanishing
# into stdout.
REQUIRED_CORES = max(SUPERVISED_JOBS)
MIN_SPEEDUP = 1.2


def test_dispatch_backend_scaling(benchmark):
    rows, detail = run_once(benchmark, _run_all)
    print_table("Dispatch: serial vs ppsfp vs supervised", rows)
    cores = os.cpu_count() or 1
    asserted = cores >= REQUIRED_CORES
    skipped_reason = (
        None
        if asserted
        else f"host has {cores} CPU core(s), speedup assertion needs "
        f">={REQUIRED_CORES} for real parallelism"
    )
    path = write_bench_json(
        "dispatch",
        {
            "n_patterns": N_PATTERNS,
            "cpu_count": cores,
            "supervised_jobs": list(SUPERVISED_JOBS),
            "rows": rows,
            "supervised_detail": detail,
            "speedup_assertion": {
                "cpu_count": cores,
                "required_cores": REQUIRED_CORES,
                "min_speedup_x": MIN_SPEEDUP,
                "asserted": asserted,
                "skipped_reason": skipped_reason,
            },
        },
    )
    print(f"wrote {path} (cpu_count={cores})")
    for row in rows:
        if row["serial_s"] is not None:
            assert row["serial_s"] > row["ppsfp_s"]  # PPSFP wins vs serial
    if asserted:
        assert rows[-1]["speedup_x"] > MIN_SPEEDUP
    else:
        print(f"(speedup assertion skipped: {skipped_reason})")
