"""E1 — ATPG summary table.

Claim (tutorial: "DFT technologies" / ATPG basics): deterministic ATPG with
a random-pattern warm-up reaches ~100 % coverage of testable stuck-at
faults with a compact pattern set, across circuit styles, and the
deterministic phase is what closes the gap the random phase leaves.

Regenerates: one row per benchmark circuit with pattern count, fault
counts, fault/test coverage, untestable/aborted counts, and CPU time.

``python -m benchmarks.bench_e1_atpg --smoke`` is the engine-portfolio
CI envelope: PODEM-only vs the portfolio on a random-pattern-resistant
circuit at a deliberately tight backtrack budget, so a hard-fault tail
exists for the portfolio to close.  Each engine contributes
``<engine>_x<N>`` replicate rows (the ``repro obs gate`` convention)
carrying wall time plus the deterministic campaign counters (verdicts,
the engines' ``atpg.implications`` work counter, and the fault
simulator's ``faultsim.events_propagated`` / ``faultsim.words_evaluated``
work counters), written to
``BENCH_atpg_smoke.json`` and gated against
``baselines/BENCH_atpg_smoke.json``.
"""

import sys
import time

from repro import obs
from repro.atpg.engine import atpg_table_row, run_atpg
from repro.circuit import benchmarks, generators

from .util import print_table, run_once, write_bench_json

CIRCUITS = ["c17", "s27", "add8", "mul4", "mul8", "alu8", "mac4", "pe4", "rand200"]

# --smoke: tight enough that PODEM alone strands a hard-fault tail, small
# enough to finish in seconds on one CI core.
SMOKE_ENGINES = ("podem", "portfolio")
SMOKE_REPLICATES = 2
SMOKE_BACKTRACK_LIMIT = 16
SMOKE_SEED = 1

# --ladder: the E1b hard-fault-tail experiment (EXPERIMENTS.md) — the
# replicated accelerator array at a rising backtrack budget.
LADDER_CIRCUIT = "mac4_x32"
LADDER_LIMITS = (4, 16, 64)


def _run_all():
    rows = []
    for name in CIRCUITS:
        netlist = benchmarks.get_benchmark(name)
        result = run_atpg(netlist, seed=1)
        rows.append(atpg_table_row(netlist, result))
    return rows


def test_e1_atpg_summary(benchmark):
    rows = run_once(benchmark, _run_all)
    print_table("E1: ATPG summary (stuck-at)", rows)
    for row in rows:
        assert row["test_coverage"] >= 0.75
    # The non-random circuits should all close to 100 % test coverage.
    for row in rows:
        if not str(row["circuit"]).startswith("rand"):
            assert row["test_coverage"] == 1.0


def _smoke_campaign(engine):
    netlist = generators.random_resistant(14, cones=3)
    with obs.observe("bench.atpg_smoke", engine=engine) as observation:
        start = time.perf_counter()
        result = run_atpg(
            netlist,
            engine=engine,
            seed=SMOKE_SEED,
            random_batches=2,
            backtrack_limit=SMOKE_BACKTRACK_LIMIT,
        )
        wall = time.perf_counter() - start
    counters = {
        leaf: observation.metrics.counter(name).value
        for leaf, name in (
            ("implications", "atpg.implications"),
            ("events_propagated", "faultsim.events_propagated"),
            ("words_evaluated", "faultsim.words_evaluated"),
        )
    }
    return result, wall, counters


def _run_smoke():
    rows = []
    settled = {}
    for engine in SMOKE_ENGINES:
        replicates = []
        for rep in range(SMOKE_REPLICATES):
            result, wall, counters = _smoke_campaign(engine)
            summary = result.summary()
            replicates.append(result)
            rows.append(
                {
                    "name": f"{engine}_x{rep}",
                    "engine": engine,
                    "wall_time_s": wall,
                    "detected": result.detected,
                    "faults": result.total_faults,
                    "patterns_simulated": len(result.patterns),
                    "proved_untestable": summary["proved_untestable"],
                    "aborted": len(result.aborted),
                    "test_coverage": summary["test_coverage"],
                    **counters,
                }
            )
        # Same seed, same engine: campaigns must be bit-identical.
        first, second = replicates
        assert first.patterns == second.patterns, engine
        assert first.aborted == second.aborted, engine
        assert set(first.untestable) == set(second.untestable), engine
        settled[engine] = first.detected + len(first.untestable)
    print_table("E1: ATPG engine smoke (podem vs portfolio)", rows)
    path = write_bench_json(
        "atpg_smoke",
        {
            "circuit": "rand_resistant14c3",
            "backtrack_limit": SMOKE_BACKTRACK_LIMIT,
            "seed": SMOKE_SEED,
            "rows": rows,
        },
    )
    print(f"wrote {path}")
    if settled["portfolio"] < settled["podem"]:
        print(
            f"FAIL: portfolio settled {settled['portfolio']} faults "
            f"< podem-only {settled['podem']}"
        )
        return 1
    print(
        f"OK: portfolio settled {settled['portfolio']} faults "
        f"(podem-only {settled['podem']})"
    )
    return 0


def _run_ladder():
    """Regenerate the E1b hard-fault-tail table (PODEM vs portfolio on
    the replicated MAC array, backtrack-budget ladder)."""
    rows = []
    for limit in LADDER_LIMITS:
        for engine in SMOKE_ENGINES:
            netlist = benchmarks.get_benchmark(LADDER_CIRCUIT)
            start = time.perf_counter()
            result = run_atpg(
                netlist,
                engine=engine,
                seed=SMOKE_SEED,
                random_batches=2,
                backtrack_limit=limit,
            )
            wall = time.perf_counter() - start
            summary = result.summary()
            rows.append(
                {
                    "backtrack_limit": limit,
                    "engine": engine,
                    "detected": result.detected,
                    "proved_untestable": summary["proved_untestable"],
                    "aborted": len(result.aborted),
                    "fault_coverage": round(summary["fault_coverage"], 4),
                    "test_coverage": round(summary["test_coverage"], 4),
                    "patterns": len(result.patterns),
                    "wall_s": round(wall, 2),
                }
            )
    print_table(f"E1b: hard-fault tail on {LADDER_CIRCUIT}", rows)
    return 0


if __name__ == "__main__":
    if "--ladder" in sys.argv:
        sys.exit(_run_ladder())
    sys.exit(_run_smoke() if "--smoke" in sys.argv else 0)
