"""Ablations for the design choices DESIGN.md records.

A1  Decompressor warm-up cycles: without them, some scan cells are
    uncontrollable (zero equations) and encoding success suffers.
A2  Static compaction: merging compatible cubes cuts deterministic pattern
    count without losing coverage.
A3  Fault dropping in the ATPG random phase: dropping is what makes the
    random phase nearly free.
A4  X-masking in the compactor: with X-producing responses, masking
    recovers detections an unmasked XOR tree loses.
"""

import time

from repro.atpg.engine import run_atpg
from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.circuit.values import X
from repro.compression.compactor import CompactorConfig, XorCompactor, greedy_x_mask
from repro.compression.decompressor import Decompressor, EdtConfig, encoding_probability
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator

from .util import print_table, run_once


def _a1_warmup():
    rows = []
    for warmup in (0, 4, 8):
        config = EdtConfig(
            n_channels=2, n_chains=8, chain_length=16, warmup_cycles=warmup
        )
        decompressor = Decompressor(config)
        equations = decompressor.cell_equations()
        dead = sum(
            1
            for cycle in range(config.chain_length)
            for chain in range(config.n_chains)
            if equations[cycle][chain] == 0
        )
        success = dict(encoding_probability(decompressor, [16], seed=3))[16]
        rows.append(
            {
                "warmup_cycles": warmup,
                "uncontrollable_cells": dead,
                "p_encode_16_care_bits": success,
            }
        )
    return rows


def test_ablation_warmup(benchmark):
    rows = run_once(benchmark, _a1_warmup)
    print_table("A1: decompressor warm-up cycles", rows)
    assert rows[0]["uncontrollable_cells"] > 0
    assert rows[-1]["uncontrollable_cells"] == 0
    assert rows[-1]["p_encode_16_care_bits"] >= rows[0]["p_encode_16_care_bits"]


def _a2_compaction():
    netlist = benchmarks.get_benchmark("alu8")
    with_compact = run_atpg(netlist, random_batches=0, compact=True, seed=4)
    without = run_atpg(netlist, random_batches=0, compact=False, seed=4)
    return {
        "patterns_compacted": len(with_compact.patterns),
        "patterns_loose": len(without.patterns),
        "cov_compacted": with_compact.test_coverage,
        "cov_loose": without.test_coverage,
    }


def test_ablation_static_compaction(benchmark):
    row = run_once(benchmark, _a2_compaction)
    print_table("A2: static compaction", [row])
    assert row["patterns_compacted"] <= row["patterns_loose"]
    assert row["cov_compacted"] == row["cov_loose"] == 1.0


def _a3_dropping():
    netlist = benchmarks.get_benchmark("mul8")
    simulator = FaultSimulator(netlist)
    faults = full_fault_list(netlist)
    patterns = random_patterns(simulator.view.num_inputs, 256, seed=5)
    start = time.perf_counter()
    simulator.simulate(patterns, faults, drop=True)
    drop_s = time.perf_counter() - start
    start = time.perf_counter()
    simulator.simulate(patterns, faults, drop=False)
    nodrop_s = time.perf_counter() - start
    return {"drop_s": drop_s, "nodrop_s": nodrop_s, "speedup_x": nodrop_s / drop_s}


def test_ablation_fault_dropping(benchmark):
    row = run_once(benchmark, _a3_dropping)
    print_table("A3: fault dropping", [row])
    assert row["speedup_x"] > 2


def _a4_x_masking():
    compactor = XorCompactor(CompactorConfig(n_chains=8, n_channels=2, seed=1))
    import random as _random

    rng = _random.Random(6)
    recovered, lost = 0, 0
    trials = 200
    for _ in range(trials):
        # One X-dirty chain; a single-bit fault effect on another chain.
        good = [[rng.randint(0, 1) for _ in range(6)] for _ in range(8)]
        dirty = rng.randrange(8)
        for cycle in range(6):
            good[dirty][cycle] = X
        faulty = [row[:] for row in good]
        victim = rng.choice([c for c in range(8) if c != dirty])
        cycle = rng.randrange(6)
        faulty[victim][cycle] ^= 1
        unmasked = compactor.observable_difference(good, faulty)
        density = [1.0 if c == dirty else 0.0 for c in range(8)]
        mask = greedy_x_mask(density, budget=1)
        masked = compactor.observable_difference(good, faulty, mask)
        if masked and not unmasked:
            recovered += 1
        if not masked and unmasked:
            lost += 1
    return {"trials": trials, "recovered_by_mask": recovered, "lost_by_mask": lost}


def test_ablation_x_masking(benchmark):
    row = run_once(benchmark, _a4_x_masking)
    print_table("A4: X-masking in the compactor", [row])
    assert row["recovered_by_mask"] > 0
    assert row["lost_by_mask"] == 0
