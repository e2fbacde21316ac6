"""Dispatch-layer mechanics: partitioning, merging, stats, flow threading.

The full cross-backend × cross-kernel × cross-width agreement matrix
lives in ``test_conformance.py``; this file keeps what is specific to
the dispatch layer itself — deterministic partitioning, min-merge
semantics, degenerate edge cases (1 worker, 0 faults), stats
instrumentation and the name → engine map.
"""

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults import collapse_faults, full_fault_list
from repro.sim.dispatch import (
    BACKEND_NAMES,
    default_partition_count,
    merge_results,
    partition_faults,
)
from repro.sim.faultsim import FaultSimResult, FaultSimulator


def _universe(netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return faults


class TestDispatchEdgeCases:
    """Degenerate inputs the conformance matrix doesn't sweep."""

    def test_single_worker_edge_case(self):
        netlist = generators.random_circuit(6, 40, seed=7)
        simulator = FaultSimulator(netlist)
        faults = _universe(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 96, seed=7)
        reference = simulator.simulate(patterns, faults, engine="ppsfp")
        one = simulator.simulate(patterns, faults, engine="supervised", jobs=1)
        assert one.detected == reference.detected
        assert one.undetected == reference.undetected

    def test_zero_fault_edge_case(self):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 16, seed=0)
        for engine in BACKEND_NAMES:
            result = simulator.simulate(patterns, [], engine=engine)
            assert result.total_faults == 0
            assert result.detected == {}
            assert result.undetected == []
            assert result.coverage == 1.0

    def test_worker_count_never_changes_results(self):
        """Same seed → same partitions → same merge, for any jobs value."""
        netlist = generators.random_circuit(7, 50, seed=5)
        simulator = FaultSimulator(netlist)
        faults = _universe(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=5)
        runs = [
            simulator.simulate(
                patterns, faults, engine="supervised", jobs=jobs, seed=9
            )
            for jobs in (1, 2, 3, 4)
        ]
        for other in runs[1:]:
            assert other.detected == runs[0].detected
            assert other.undetected == runs[0].undetected


class TestPartitioning:
    def test_partitions_deterministic_given_seed(self):
        netlist = generators.random_circuit(6, 40, seed=3)
        faults = _universe(netlist)
        a = partition_faults(faults, 4, seed=11)
        b = partition_faults(faults, 4, seed=11)
        assert a == b
        c = partition_faults(faults, 4, seed=12)
        assert a != c  # a different seed shuffles differently

    def test_partitions_cover_universe_exactly(self):
        netlist = generators.random_circuit(6, 40, seed=3)
        faults = _universe(netlist)
        shards = partition_faults(faults, 5, seed=0)
        flattened = [fault for shard in shards for fault in shard]
        assert sorted(flattened) == sorted(faults)
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_grouped_partitions_keep_each_region_in_one_shard(self):
        netlist = generators.random_circuit(8, 120, seed=21)
        simulator = FaultSimulator(netlist, cache=None)
        faults = _universe(netlist)
        key = simulator.fault_region
        sizes = {}
        for fault in faults:
            sizes[key(fault)] = sizes.get(key(fault), 0) + 1
        assert max(sizes.values()) > 1  # some region holds several faults
        shards = partition_faults(faults, 6, seed=4, key=key)
        flattened = [fault for shard in shards for fault in shard]
        assert sorted(flattened) == sorted(faults)
        home = {}
        for index, shard in enumerate(shards):
            for fault in shard:
                assert home.setdefault(key(fault), index) == index
        loads = [len(shard) for shard in shards]
        assert max(loads) - min(loads) <= max(sizes.values())

    def test_grouped_partitions_deterministic_given_seed(self):
        netlist = generators.random_circuit(8, 120, seed=21)
        key = FaultSimulator(netlist, cache=None).fault_region
        faults = _universe(netlist)
        a = partition_faults(faults, 6, seed=4, key=key)
        assert a == partition_faults(faults, 6, seed=4, key=key)
        assert a != partition_faults(faults, 6, seed=5, key=key)

    def test_grouped_partitions_never_exceed_the_group_count(self):
        faults = _universe(benchmarks.c17())
        shards = partition_faults(faults, 8, seed=0, key=lambda fault: fault.value)
        assert len(shards) == 2
        assert [len({fault.value for fault in shard}) for shard in shards] == [1, 1]

    def test_partition_count_independent_of_jobs(self):
        assert default_partition_count(0) == 0
        assert default_partition_count(1) == 1
        assert default_partition_count(100) == 8
        assert default_partition_count(10_000) >= 32

    def test_min_merge_keeps_earliest_detection(self):
        fault = ("f", 0)
        a = FaultSimResult(total_faults=1, detected={fault: 7}, patterns_simulated=8)
        b = FaultSimResult(total_faults=1, detected={fault: 3}, patterns_simulated=4)
        merged = merge_results([a, b], [fault], 16, drop=True)
        assert merged.detected == {fault: 3}
        assert merged.patterns_simulated == 8
        assert merged.undetected == []


class TestStatsInstrumentation:
    def test_supervised_stats_totals(self):
        netlist = generators.random_circuit(7, 55, seed=21)
        simulator = FaultSimulator(netlist)
        faults = _universe(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=21)
        result = simulator.simulate(patterns, faults, engine="supervised", jobs=2)
        stats = result.stats
        assert stats["engine"] == "supervised"
        assert stats["jobs"] == 2
        assert stats["faults_simulated"] == len(faults)
        partitions = stats["partitions"]
        assert sum(p["faults"] for p in partitions) == len(faults)
        assert sum(p["detected"] for p in partitions) == len(result.detected)
        assert stats["events_propagated"] == sum(
            p["events_propagated"] for p in partitions
        )
        assert stats["words_evaluated"] > 0
        assert stats["wall_time_s"] > 0
        assert stats["load_imbalance"] >= 1.0

    def test_single_process_stats_present(self):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 32, seed=2)
        for engine in ("serial", "ppsfp"):
            result = simulator.simulate(patterns, faults, engine=engine)
            assert result.stats["engine"] == engine
            assert result.stats["faults_simulated"] == len(faults)
            assert result.stats["words_evaluated"] > 0

    def test_simulate_maps_every_backend_name(self):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 16, seed=4)
        for name in BACKEND_NAMES:
            result = simulator.simulate(patterns, faults, engine=name, jobs=2)
            assert result.stats["engine"] == name
        for unknown in ("gpu", "pool"):
            with pytest.raises(ValueError, match="unknown engine"):
                simulator.simulate(patterns, faults, engine=unknown)


class TestExplicitSubsetCoverage:
    def test_total_faults_reflects_requested_universe(self):
        """An explicit subset + dropping must report coverage over exactly
        the requested universe — duplicates must not inflate it."""
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        subset = faults[:6]
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=13)
        for engine in BACKEND_NAMES:
            result = simulator.simulate(patterns, subset, drop=True, engine=engine)
            assert result.total_faults == len(subset)
            assert result.coverage == len(result.detected) / len(subset)

    @pytest.mark.parametrize("engine", BACKEND_NAMES)
    def test_duplicate_faults_deduplicated(self, engine):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        doubled = faults[:4] + faults[:4] + [faults[0]]
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=13)
        result = simulator.simulate(patterns, doubled, drop=True, engine=engine)
        assert result.total_faults == 4
        assert len(result.detected) + len(result.undetected) == 4
        assert len(set(result.undetected)) == len(result.undetected)
        assert result.coverage <= 1.0


class TestFlowThreading:
    """The backend choice reaches the ATPG and compression flows."""

    def test_run_atpg_supervised_backend_matches_ppsfp(self):
        from repro.atpg.engine import run_atpg

        netlist = generators.random_circuit(6, 40, seed=17)
        base = run_atpg(netlist, seed=3, backend="ppsfp")
        pooled = run_atpg(netlist, seed=3, backend="supervised", jobs=2)
        assert pooled.fault_coverage == base.fault_coverage
        assert pooled.detected == base.detected
        assert len(pooled.patterns) == len(base.patterns)
