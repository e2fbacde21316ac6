"""E2 — Figure: fault coverage vs pattern count.

Claim: random-pattern coverage rises steeply then *saturates* below 100 %
(random-resistant faults), and a deterministic top-off closes the gap with
a handful of additional patterns.  This is the canonical figure motivating
deterministic ATPG and test points.

Regenerates: coverage(n) series for random patterns on a random-resistant
circuit, plus the deterministic top-off end point.
"""

from repro.atpg.engine import run_atpg
from repro.bist.lbist import coverage_curve
from repro.circuit import generators

from .util import print_series, run_once


def _run():
    netlist = generators.random_resistant(14, cones=4)
    points = coverage_curve(netlist, 1024, checkpoint_every=128)
    # A deeper backtrack budget lets PODEM *prove* the redundant residue
    # untestable instead of aborting, so test coverage closes to 100 %.
    atpg = run_atpg(netlist, seed=2, backtrack_limit=256)
    return netlist, points, atpg


def test_e2_coverage_curve(benchmark):
    netlist, points, atpg = run_once(benchmark, _run)
    series = [
        {"patterns": int(p["patterns"]), "random_coverage": p["coverage"]}
        for p in points
    ]
    series.append(
        {
            "patterns": f"+{len(atpg.patterns)} deterministic",
            "random_coverage": atpg.test_coverage,
        }
    )
    print_series("E2: coverage vs patterns (random saturates, ATPG closes)", series)
    random_final = points[-1]["coverage"]
    # Saturation: the last 3 checkpoints gain almost nothing.
    assert points[-1]["coverage"] - points[-3]["coverage"] < 0.02
    # Deterministic top-off beats saturated random coverage.
    assert atpg.test_coverage > random_final
    assert atpg.test_coverage == 1.0
