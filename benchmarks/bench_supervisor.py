"""Supervisor — Table: supervision and checkpoint overhead.

Times one fault-simulation campaign on a generated circuit under four
regimes and records the rows to ``BENCH_supervisor.json``:

* ``ppsfp``           — the single-process baseline;
* ``supervised``      — same campaign under the supervisor, no failures
  (per-partition processes + validation, against real parallelism);
* ``store``           — the supervised campaign publishing every shard
  to a fresh shard store (the checkpoint write path);
* ``resume``          — the same runner re-run against the complete
  store (every shard merged from disk; the checkpoint read path).

Every regime must produce a detection map bit-identical to single-process
PPSFP — the timing sweep doubles as the differential correctness check
(a failed worker stops its run, so no regime can hide one).
Acceptance pin: a clean supervised run stays within 3x of the ppsfp
baseline (with two or more cores it is usually faster; the bound only
guards against the supervision loop going quadratic).

``python -m benchmarks.bench_supervisor --smoke`` runs a small circuit
through all four regimes in a few seconds for CI, asserting identity but
not timing ratios (containers are too noisy for that).
"""

import os
import sys
import tempfile
import time

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import SupervisedPoolBackend

from .util import print_table, run_once, write_bench_json

FULL_SIZE = (12, 480, 3)  # matches bench_dispatch's largest rung
FULL_PATTERNS = 256
SMOKE_SIZE = (8, 90, 1)
SMOKE_PATTERNS = 64
JOBS = 4
PARTITIONS = 8
OVERHEAD_BOUND_X = 3.0


def _setup(size, n_patterns):
    netlist = generators.random_circuit(*size[:2], seed=size[2])
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=size[2])
    return netlist, simulator, faults, patterns


def _timed(backend, simulator, patterns, faults):
    start = time.perf_counter()
    result = backend.run(simulator, patterns, faults, drop=False)
    return result, time.perf_counter() - start


def _campaign(size, n_patterns, store_dir):
    netlist, simulator, faults, patterns = _setup(size, n_patterns)
    start = time.perf_counter()
    reference = simulator.simulate(patterns, faults, drop=False)
    base_s = time.perf_counter() - start

    regimes = []

    def check(name, result, seconds, **extra):
        assert result.detected == reference.detected, name
        assert result.undetected == reference.undetected, name
        regimes.append({"regime": name, "wall_time_s": seconds, **extra})

    regimes.append({"regime": "ppsfp", "wall_time_s": base_s})
    clean, clean_s = _timed(
        SupervisedPoolBackend(jobs=JOBS, partitions=PARTITIONS),
        simulator, patterns, faults,
    )
    check(
        "supervised", clean, clean_s,
        overhead_x=clean_s / base_s if base_s else 0.0,
    )

    def store_backend():
        root = os.path.join(store_dir, netlist.name)
        return SupervisedPoolBackend(
            jobs=JOBS, partitions=PARTITIONS,
            store=ShardStore(root),
        )

    full, full_s = _timed(store_backend(), simulator, patterns, faults)
    assert full.stats["store"]["shards_graded_here"] == PARTITIONS
    check("store", full, full_s)
    resumed, resumed_s = _timed(store_backend(), simulator, patterns, faults)
    assert resumed.stats["store"]["shards_graded_here"] == 0
    check("resume", resumed, resumed_s)

    for row in regimes:
        row["circuit"] = netlist.name
        row["faults"] = len(faults)
    return regimes


def test_supervision_overhead(benchmark):
    with tempfile.TemporaryDirectory() as store_dir:
        rows = run_once(benchmark, _campaign, FULL_SIZE, FULL_PATTERNS, store_dir)
    print_table("Supervisor: supervision and checkpoint overhead", rows)
    path = write_bench_json(
        "supervisor",
        {
            "jobs": JOBS,
            "partitions": PARTITIONS,
            "cpu_count": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"wrote {path}")
    supervised = next(r for r in rows if r["regime"] == "supervised")
    assert supervised["overhead_x"] < OVERHEAD_BOUND_X


def _run_smoke():
    """Quick CI check: all four regimes, identical detection maps."""
    with tempfile.TemporaryDirectory() as store_dir:
        rows = _campaign(SMOKE_SIZE, SMOKE_PATTERNS, store_dir)
    print_table("supervisor smoke", rows)
    print("OK: supervised/store/resume all bit-identical to ppsfp")
    return 0


if __name__ == "__main__":
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
