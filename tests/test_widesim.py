"""Wide-word engine: width properties and good-machine caching.

The full width × backend × kernel agreement matrix lives in
``test_conformance.py``; this file keeps the wide-word specifics —
hypothesis width-invariance properties, pack/unpack roundtrips, width
validation, sequential-engine lane handling, and flow threading.

The good-machine response cache is covered separately: repeated identical
pattern blocks must stop costing good-machine passes, with or without the
cache the results must match, and the LRU byte budget must actually bound
the cache.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.goodcache import DEFAULT_CACHE, GoodMachineCache
from repro.sim.parallel import (
    WORD_WIDTHS,
    ParallelSimulator,
    pack_patterns,
    unpack_word,
)

SMALL = dict(max_examples=10, deadline=None)
seeds = st.integers(0, 10**6)


def _universe(netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return faults


def small_circuit(seed):
    rng = random.Random(seed)
    return generators.random_circuit(
        rng.randint(4, 8), rng.randint(15, 45), seed=seed
    )


class TestWidthInvariance:
    """Width plumbing the conformance matrix doesn't sweep."""

    @pytest.mark.parametrize("width", WORD_WIDTHS)
    def test_responses_identical_across_widths(self, width):
        netlist = generators.random_sequential(5, 45, 6, seed=77)
        base = ParallelSimulator(netlist)
        wide = ParallelSimulator(netlist, word_width=width)
        patterns = random_patterns(base.view.num_inputs, 130, seed=77)
        assert wide.responses(patterns) == base.responses(patterns)

    def test_invalid_width_rejected(self):
        # A float or bool must fail here, not later inside simulate.
        for width in (0, -64, 1.5, 64.0, True, False, "64", None):
            with pytest.raises(ValueError, match="word_width"):
                ParallelSimulator(benchmarks.c17(), word_width=width)
            with pytest.raises(ValueError, match="word_width"):
                FaultSimulator(benchmarks.c17(), word_width=width)


class TestWidthProperties:
    """Hypothesis: width invariance over random circuits."""

    @settings(**SMALL)
    @given(seed=seeds, width=st.sampled_from((256, 1024)))
    def test_wide_ppsfp_equals_64_and_serial(self, seed, width):
        netlist = small_circuit(seed)
        faults = _universe(netlist)
        patterns = random_patterns(len(netlist.inputs), 90, seed=seed)
        base = FaultSimulator(netlist).simulate(patterns, faults, engine="ppsfp")
        wide = FaultSimulator(netlist, word_width=width)
        ppsfp = wide.simulate(patterns, faults, engine="ppsfp")
        serial = wide.simulate(patterns, faults, engine="serial")
        assert ppsfp.detected == base.detected
        assert ppsfp.undetected == base.undetected
        assert serial.detected == base.detected
        assert ppsfp.coverage == base.coverage

    @settings(**SMALL)
    @given(
        seed=seeds,
        width=st.integers(1, 300),
        n_patterns=st.integers(1, 80),
        n_bits=st.integers(1, 12),
    )
    def test_pack_unpack_roundtrip_any_width(self, seed, width, n_patterns, n_bits):
        rng = random.Random(seed)
        patterns = [
            [rng.randint(0, 1) for _ in range(n_bits)] for _ in range(n_patterns)
        ]
        for bit in range(n_bits):
            word = pack_patterns(patterns, bit)
            assert unpack_word(word, n_patterns) == [p[bit] for p in patterns]
        # Packing through a width-limited simulator's reused buffer gives
        # the same words as the standalone packer.
        netlist = generators.parity_tree(n_bits)
        sim = ParallelSimulator(netlist, word_width=width)
        chunk = patterns[:width]
        assert sim.pack_block(chunk) == [
            pack_patterns(chunk, bit) for bit in range(n_bits)
        ]


class TestGoodMachineCache:
    def test_repeat_blocks_hit_cache(self):
        netlist = generators.random_circuit(6, 45, seed=9)
        cache = GoodMachineCache()
        simulator = FaultSimulator(netlist, word_width=256, cache=cache)
        faults = _universe(netlist)
        patterns = random_patterns(len(netlist.inputs), 256, seed=9)

        first = simulator.simulate(patterns, faults, drop=False)
        assert first.stats["good_passes"] > 0
        assert first.stats["good_cache_misses"] > 0

        second = simulator.simulate(patterns, faults, drop=False)
        assert second.detected == first.detected
        assert second.stats["good_passes"] == 0
        assert second.stats["good_cache_hits"] > 0

    def test_cache_shared_across_simulator_instances(self):
        """The key is the netlist *structure*, not the instance."""
        cache = GoodMachineCache()
        netlist_a = generators.random_circuit(6, 40, seed=4)
        netlist_b = generators.random_circuit(6, 40, seed=4)  # identical twin
        patterns = random_patterns(len(netlist_a.inputs), 64, seed=4)
        sim_a = ParallelSimulator(netlist_a, cache=cache)
        sim_b = ParallelSimulator(netlist_b, cache=cache)
        first = sim_a.responses(patterns)
        assert cache.misses > 0 and cache.hits == 0
        second = sim_b.responses(patterns)
        assert second == first
        assert cache.hits > 0

    def test_disabled_cache_identical_results(self):
        netlist = generators.random_sequential(4, 35, 5, seed=6)
        faults = _universe(netlist)
        patterns = random_patterns(
            FaultSimulator(netlist).view.num_inputs, 128, seed=6
        )
        cached = FaultSimulator(netlist, word_width=256).simulate(patterns, faults)
        uncached = FaultSimulator(netlist, word_width=256, cache=None).simulate(
            patterns, faults
        )
        assert uncached.detected == cached.detected
        assert uncached.undetected == cached.undetected
        assert uncached.stats["good_cache_hits"] == 0
        assert uncached.stats["good_cache_misses"] == 0

    def test_byte_budget_evicts_lru(self):
        cache = GoodMachineCache(max_bytes=4096)
        for i in range(64):
            cache.put(("sig", 64, (i,)), [i] * 20, 64)
        assert cache.stats()["approx_bytes"] <= 4096
        assert cache.evictions > 0
        # The most recent entry survives; the oldest is gone.
        assert cache.get(("sig", 64, (63,))) is not None
        assert cache.get(("sig", 64, (0,))) is None

    def test_oversized_entry_not_cached(self):
        cache = GoodMachineCache(max_bytes=128)
        cache.put(("sig", 4096, (1,)), [0] * 10_000, 4096)
        assert cache.get(("sig", 4096, (1,))) is None
        assert len(cache) == 0

    def test_run_atpg_topoff_replays_cached_blocks(self):
        """Acceptance pin: the top-off loop of ``run_atpg`` reuses the
        good-machine blocks computed in phase 2 instead of recomputing
        them."""
        from repro.atpg.engine import run_atpg

        # Random-resistant cones force static compaction to merge cubes and
        # lose phase-2 detections, so the top-off loop actually runs; every
        # fill it grades was already simulated in phase 2.
        netlist = generators.random_resistant(12, 4)
        DEFAULT_CACHE.clear()
        baseline_hits = DEFAULT_CACHE.hits
        result = run_atpg(netlist, seed=3, random_batches=2)
        assert result.fault_coverage > 0.5
        assert DEFAULT_CACHE.hits > baseline_hits

    def test_repeated_flow_replays_from_cache(self):
        """Re-running the same flow (same structure, same seed) costs zero
        good-machine passes for every previously seen block."""
        netlist = generators.random_circuit(6, 45, seed=14)
        faults = _universe(netlist)
        patterns = random_patterns(len(netlist.inputs), 192, seed=14)
        cache = GoodMachineCache()
        first = FaultSimulator(netlist, word_width=256, cache=cache).simulate(
            patterns, faults, drop=False
        )
        # A *fresh* simulator over a structurally identical netlist.
        twin = generators.random_circuit(6, 45, seed=14)
        second = FaultSimulator(twin, word_width=256, cache=cache).simulate(
            patterns, faults, drop=False
        )
        assert second.detected == first.detected
        assert second.stats["good_passes"] == 0
        assert second.stats["good_cache_hits"] == first.stats["good_passes"]

    def test_default_cache_stats_shape(self):
        stats = DEFAULT_CACHE.stats()
        for key in ("entries", "approx_bytes", "hits", "misses", "evictions"):
            assert key in stats


class TestFlowWidthThreading:
    """``word_width`` reaches LBIST, the one flow that takes it, without
    changing results; ATPG and compressed ATPG run at the default width."""

    def test_lbist_width_invariant(self):
        from repro.bist.lbist import StumpsController

        netlist = generators.random_sequential(4, 40, 6, seed=12)
        base = StumpsController(netlist).run(128)
        wide = StumpsController(netlist, word_width=1024).run(128)
        assert wide.final_coverage == base.final_coverage
        assert wide.signature == base.signature
        assert wide.coverage_points == base.coverage_points

    def test_cli_word_width_flag(self, capsys):
        from repro.cli import main

        assert main(["lbist", "c17", "--patterns", "128"]) == 0
        base = capsys.readouterr().out
        assert main(["lbist", "c17", "--patterns", "128", "--word-width", "256"]) == 0
        assert capsys.readouterr().out == base
        assert "final coverage" in base

    def test_stats_report_width(self):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist, word_width=4096)
        faults = _universe(netlist)
        patterns = random_patterns(len(netlist.inputs), 32, seed=0)
        result = simulator.simulate(patterns, faults)
        assert result.stats["word_width"] == 4096
        assert result.stats["words_evaluated"] > 0
