"""E3 — Table: fault-simulation engine comparison.

Claim: bit-parallel PPSFP with fault dropping is one to two orders of
magnitude faster than serial (one fault, one pattern) simulation — the
reason every production grader uses it.  Fault dropping alone contributes
a large factor.

Regenerates: per circuit, wall time for serial vs PPSFP (both no-drop, for
a fair per-work comparison) plus PPSFP with dropping and the supervised
multiprocess backend; identical detection sets double as a correctness
check.
See ``bench_dispatch.py`` for the dedicated backend-scaling table.
"""

import os
import time

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.supervisor import SupervisedPoolBackend

from .util import print_table, run_once

CIRCUITS = ["c17", "add8", "alu4", "mul4"]
N_PATTERNS = 256  # several 64-pattern words, so fault dropping can bite


def _compare(name):
    netlist = benchmarks.get_benchmark(name)
    simulator = FaultSimulator(netlist)
    faults = full_fault_list(netlist)
    patterns = random_patterns(simulator.view.num_inputs, N_PATTERNS, seed=1)

    start = time.perf_counter()
    serial = simulator.simulate(patterns, faults, drop=False, engine="serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    ppsfp = simulator.simulate(patterns, faults, drop=False, engine="ppsfp")
    ppsfp_s = time.perf_counter() - start

    start = time.perf_counter()
    dropped = simulator.simulate(patterns, faults, drop=True, engine="ppsfp")
    drop_s = time.perf_counter() - start

    jobs = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    supervised = simulator.simulate(
        patterns, faults, drop=False, engine=SupervisedPoolBackend(jobs=jobs)
    )
    supervised_s = time.perf_counter() - start

    assert serial.detected == ppsfp.detected == supervised.detected  # engines agree
    return {
        "circuit": name,
        "faults": len(faults),
        "serial_s": serial_s,
        "ppsfp_s": ppsfp_s,
        "ppsfp_drop_s": drop_s,
        f"supervised{jobs}_s": supervised_s,
        "speedup_x": serial_s / ppsfp_s if ppsfp_s else float("inf"),
        "drop_speedup_x": serial_s / drop_s if drop_s else float("inf"),
    }


def _run_all():
    return [_compare(name) for name in CIRCUITS]


def test_e3_engine_comparison(benchmark):
    rows = run_once(benchmark, _run_all)
    print_table("E3: serial vs PPSFP fault simulation", rows)
    for row in rows:
        if row["circuit"] != "c17":  # tiny circuits amortize nothing
            assert row["speedup_x"] > 3
            assert row["drop_speedup_x"] > row["speedup_x"]
