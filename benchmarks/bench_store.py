"""Shard store — Table: store overhead and the resume path.

Times one fault-simulation campaign on a generated circuit under three
store regimes and records the rows to ``BENCH_store.json``:

* ``supervised`` — the supervised baseline over its private store;
* ``store``      — the same campaign published shard by shard to an
  explicit store (publish + merge-from-store overhead on top of
  supervision);
* ``resume``     — a re-run against the finished store: every shard is
  already published, so this measures the pure merge/verify path
  (``already_complete``).

Every regime must produce a detection map bit-identical to
single-process PPSFP — the timing sweep doubles as the differential
correctness check.  The deterministic counters (published shards,
conflicts) are recorded per row so ``repro obs gate`` pins them exactly
while wall times get the usual median/MAD noise band.

``python -m benchmarks.bench_store --smoke`` runs a small circuit
through all three regimes (three replicates each for MAD grouping) and
writes ``BENCH_store_smoke.json`` for the CI gate.
"""

import os
import shutil
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

FULL_SIZE = (12, 480, 3)
FULL_PATTERNS = 256
SMOKE_SIZE = (8, 90, 1)
SMOKE_PATTERNS = 64
JOBS = 2
PARTITIONS = 6
REPLICATES = 3


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


def _campaign(size, n_patterns, work_dir, replicates):
    netlist, simulator, faults, patterns = _setup(size, n_patterns)
    reference = simulator.simulate(patterns, faults, drop=False)

    rows = []

    def check(name, result, seconds, **extra):
        assert result.detected == reference.detected, name
        assert result.undetected == reference.undetected, name
        rows.append(
            {
                "name": name,
                "circuit": netlist.name,
                "faults": len(faults),
                "wall_time_s": seconds,
                **extra,
            }
        )

    for rep in range(replicates):
        base, base_s = _timed(
            SupervisedPoolBackend(jobs=JOBS, partitions=PARTITIONS),
            simulator, patterns, faults,
        )
        check(f"supervised_x{rep}", base, base_s)

        root = os.path.join(work_dir, f"store-{rep}")
        fresh, fresh_s = _timed(
            SupervisedPoolBackend(
                jobs=JOBS, partitions=PARTITIONS, store=ShardStore(root),
            ),
            simulator, patterns, faults,
        )
        stats = fresh.stats["store"]
        assert stats["published"] == PARTITIONS
        check(
            f"store_x{rep}", fresh, fresh_s,
            published=stats["published"],
            publish_conflicts=stats["publish_conflicts"],
        )

        resumed, resumed_s = _timed(
            SupervisedPoolBackend(
                jobs=JOBS, partitions=PARTITIONS, store=ShardStore(root),
            ),
            simulator, patterns, faults,
        )
        stats = resumed.stats["store"]
        assert stats["already_complete"] is True
        check(f"resume_x{rep}", resumed, resumed_s, published=stats["published"])
        shutil.rmtree(root)

    return rows


def test_store_overhead(benchmark):
    with tempfile.TemporaryDirectory() as work_dir:
        rows = run_once(
            benchmark, _campaign, FULL_SIZE, FULL_PATTERNS, work_dir, REPLICATES
        )
    print_table("Shard store: publish overhead and resume", rows)
    path = write_bench_json(
        "store",
        {
            "jobs": JOBS,
            "partitions": PARTITIONS,
            "cpu_count": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"wrote {path}")


def _run_smoke():
    """Quick CI check: all three regimes, identical detection maps."""
    with tempfile.TemporaryDirectory() as work_dir:
        rows = _campaign(SMOKE_SIZE, SMOKE_PATTERNS, work_dir, REPLICATES)
    print_table("store smoke", rows)
    path = write_bench_json(
        "store_smoke",
        {
            "jobs": JOBS,
            "partitions": PARTITIONS,
            "cpu_count": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"wrote {path}")
    print("OK: supervised/store/resume all bit-identical to ppsfp")
    return 0


if __name__ == "__main__":
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
