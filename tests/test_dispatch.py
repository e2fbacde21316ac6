"""Dispatch-layer mechanics: partitioning, stats.

The full cross-backend × cross-kernel × cross-width agreement matrix
lives in ``test_conformance.py``; this file keeps what is specific to
the dispatch layer itself — deterministic partitioning, degenerate
edge cases (1 worker, 0 faults), stats instrumentation and the name →
engine map.  ``"supervised"`` names the
CLI's ``--backend`` choice; ``simulate`` takes it as a configured
:class:`SupervisedPoolBackend`.
"""

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.circuit.compiled import core_classes
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.dispatch import (
    BACKEND_NAMES,
    default_partition_count,
    partition_faults,
)
from repro.sim.faultsim import FaultSimulator
from repro.sim.supervisor import SupervisedPoolBackend


def _universe(netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return faults


def _engine(name, **options):
    """What ``simulate(engine=...)`` takes for a ``--backend`` name."""
    return SupervisedPoolBackend(**options) if name == "supervised" else name


class TestDispatchEdgeCases:
    """Degenerate inputs the conformance matrix doesn't sweep."""

    def test_single_worker_edge_case(self):
        netlist = generators.random_circuit(6, 40, seed=7)
        simulator = FaultSimulator(netlist)
        faults = _universe(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 96, seed=7)
        reference = simulator.simulate(patterns, faults, engine="ppsfp")
        one = simulator.simulate(
            patterns, faults, engine=SupervisedPoolBackend(jobs=1)
        )
        assert one.detected == reference.detected
        assert one.undetected == reference.undetected

    def test_zero_fault_edge_case(self):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 16, seed=0)
        for name in BACKEND_NAMES:
            result = simulator.simulate(patterns, [], engine=_engine(name))
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
                patterns, faults, engine=SupervisedPoolBackend(jobs=jobs, seed=9)
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

    def test_every_image_of_a_region_shares_its_shard(self):
        """On identical cores the key is (class, local root), so a shard
        holds every copy's image of its regions, and the supervised
        counters equal in-process PPSFP's."""
        netlist = benchmarks.replicate_netlist(generators.mac_unit(2), 4)
        netlist.finalize()
        simulator = FaultSimulator(netlist, cache=None)
        place = core_classes(netlist).place
        faults = _universe(netlist)
        shards = partition_faults(
            faults, default_partition_count(len(faults)), key=simulator.fault_region
        )
        home = {}
        for index, shard in enumerate(shards):
            for fault in shard:
                spot = place[fault.gate]
                image = fault if spot is None else (spot[:2], fault.pin, fault.value)
                assert home.setdefault(image, index) == index
        assert any(place[fault.gate] is not None for fault in faults)
        patterns = random_patterns(simulator.view.num_inputs, 200, seed=3)
        for drop in (True, False):
            flat = simulator.simulate(patterns, faults, drop=drop)
            sharded = simulator.simulate(
                patterns, faults, drop=drop, engine=SupervisedPoolBackend(jobs=2)
            )
            assert sharded.detected == flat.detected
            for counter in ("events_propagated", "words_evaluated"):
                assert sharded.stats[counter] == flat.stats[counter], counter

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


class TestStatsInstrumentation:
    def test_supervised_stats_totals(self):
        netlist = generators.random_circuit(7, 55, seed=21)
        simulator = FaultSimulator(netlist)
        faults = _universe(netlist)
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=21)
        result = simulator.simulate(
            patterns, faults, engine=SupervisedPoolBackend(jobs=2)
        )
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
            result = simulator.simulate(
                patterns, faults, engine=_engine(name, jobs=2)
            )
            assert result.stats["engine"] == name
        # The supervised pool is configured where it is built, not by name.
        for unknown in ("gpu", "pool", "supervised"):
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
        for name in BACKEND_NAMES:
            result = simulator.simulate(
                patterns, subset, drop=True, engine=_engine(name)
            )
            assert result.total_faults == len(subset)
            assert result.coverage == len(result.detected) / len(subset)

    @pytest.mark.parametrize("engine", BACKEND_NAMES)
    def test_duplicate_faults_deduplicated(self, engine):
        netlist = benchmarks.c17()
        simulator = FaultSimulator(netlist)
        faults = full_fault_list(netlist)
        doubled = faults[:4] + faults[:4] + [faults[0]]
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=13)
        result = simulator.simulate(
            patterns, doubled, drop=True, engine=_engine(engine)
        )
        assert result.total_faults == 4
        assert len(result.detected) + len(result.undetected) == 4
        assert len(set(result.undetected)) == len(result.undetected)
        assert result.coverage <= 1.0
