"""E10 — Table: diagnosis resolution, raw vs through the compactor.

Claim: effect-cause diagnosis pins a logged failure to a handful of
equivalent suspects when raw responses are visible; behind an XOR
compactor the observation is lossy, so resolution degrades somewhat but
the defect still lands in the top suspect set — the trade compressed-scan
diagnosis lives with.

Regenerates: average suspect-set size and defect-hit rate for raw
effect-cause diagnosis and for compactor-aware diagnosis on the same
injected defect population.
"""

import random

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.compression.compactor import CompactorConfig, XorCompactor
from repro.diagnosis.compactor_diag import CompactedDiagnoser
from repro.diagnosis.effect_cause import EffectCauseDiagnoser, inject_and_observe
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator

from .util import print_table, run_once

N_DEFECTS = 10


def _run():
    netlist = generators.random_sequential(6, 90, 16, seed=9)
    design = insert_scan(netlist, n_chains=4)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, _ = partition_faults(design, faults)
    atpg = run_atpg(design.netlist, faults=capture, seed=2)
    patterns = atpg.patterns
    simulator = FaultSimulator(design.netlist)

    rng = random.Random(4)
    defects = rng.sample(capture, N_DEFECTS)

    raw_diagnoser = EffectCauseDiagnoser(design.netlist, capture)
    raw_hits, raw_sizes = 0, []
    for defect in defects:
        observed = inject_and_observe(simulator, patterns, defect)
        if not observed:
            continue
        result = raw_diagnoser.diagnose(patterns, observed)
        raw_sizes.append(len(result.top_suspects))
        if defect in result.top_suspects:
            raw_hits += 1

    compactor = XorCompactor(CompactorConfig(design.n_chains, 2, seed=3))
    compact_diagnoser = CompactedDiagnoser(design, compactor, capture)
    compact_hits, compact_sizes = 0, []
    for defect in defects:
        observed = compact_diagnoser.compacted_signature(patterns, defect)
        if not observed:
            continue
        ranked = compact_diagnoser.diagnose(patterns, observed)
        best = ranked[0][1]
        top = [fault for fault, score in ranked if score == best]
        compact_sizes.append(len(top))
        if defect in top:
            compact_hits += 1

    return {
        "raw": (raw_hits, raw_sizes),
        "compact": (compact_hits, compact_sizes),
        "defects": len(defects),
    }


def test_e10_diagnosis_resolution(benchmark):
    data = run_once(benchmark, _run)
    raw_hits, raw_sizes = data["raw"]
    compact_hits, compact_sizes = data["compact"]
    rows = [
        {
            "observation": "raw responses",
            "defects": len(raw_sizes),
            "hit_rate": raw_hits / max(1, len(raw_sizes)),
            "avg_suspects": sum(raw_sizes) / max(1, len(raw_sizes)),
        },
        {
            "observation": "XOR-compacted",
            "defects": len(compact_sizes),
            "hit_rate": compact_hits / max(1, len(compact_sizes)),
            "avg_suspects": sum(compact_sizes) / max(1, len(compact_sizes)),
        },
    ]
    print_table("E10: diagnosis resolution raw vs compacted", rows)
    assert rows[0]["hit_rate"] >= 0.9
    assert rows[1]["hit_rate"] >= 0.7
    # Compaction cannot *improve* average resolution.
    assert rows[1]["avg_suspects"] >= rows[0]["avg_suspects"] - 1e-9
