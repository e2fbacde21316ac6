"""Property tests for the published fault-simulation counters.

``FaultSimResult.stats`` is the one record of a run, and
``FaultSimulator._publish`` turns it into counters the same way for
every engine.  So on these netlists, which have no identical cores, the
supervised backend's counters equal the in-process PPSFP reference for
any worker count, and a supervised run resumed after a failed shard
publishes exactly what its ``stats`` hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import ShardFailedError, SupervisedPoolBackend
from tests.worker_failures import failing_shards

TINY = dict(max_examples=4, deadline=None)  # spawns process pools

seeds = st.integers(0, 10**6)


class TestPartitionMergeInvariance:
    """End-to-end mirror of the dispatch differential: however the fault
    universe is sharded, and whether shards were graded here or merged
    from the store, the published counters are the run's stats."""

    @settings(**TINY)
    @given(seed=seeds)
    def test_worker_count_never_changes_counters(self, seed):
        """Published faultsim counters match the single-process reference
        for any --jobs, like detected maps do in test_dispatch."""
        netlist = generators.random_circuit(5, 30, seed=seed % 997)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 48, seed=seed)

        keys = (
            "faultsim.faults_simulated",
            "faultsim.faults_detected",
            "faultsim.events_propagated",
            "faultsim.words_evaluated",
            "faultsim.patterns_simulated",
        )

        def counters(engine):
            with obs.observe("run") as observation:
                result = simulator.simulate(patterns, faults, engine=engine)
            values = {key: observation.counter(key).value for key in keys}
            return values, result

        reference, ppsfp = counters("ppsfp")
        for jobs in (1, 2):
            supervised, result = counters(
                SupervisedPoolBackend(jobs=jobs, seed=3)
            )
            assert supervised == reference
            assert result.detected == ppsfp.detected
            assert result.undetected == ppsfp.undetected

    def test_resumed_run_publishes_its_stats(self, tmp_path):
        """A run resumed after a failed shard, which merges some shards
        from the store, still leaves counters equal to stats."""
        netlist = generators.random_circuit(6, 60, seed=1)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=1)

        def backend():
            return SupervisedPoolBackend(
                jobs=1, partitions=4, store=ShardStore(str(tmp_path))
            )

        with failing_shards({1}, "exit"), obs.observe("failed") as failed:
            with pytest.raises(ShardFailedError):
                simulator.simulate(patterns, faults, engine=backend())
        # A failed run has no result, so it publishes no counters.
        assert failed.counter("faultsim.runs").value == 0
        with obs.observe("run") as observation:
            result = simulator.simulate(patterns, faults, engine=backend())

        stats = result.stats
        assert stats["store"]["shards_graded_here"] == 3
        expected = {
            "faultsim.faults_simulated": stats["faults_simulated"],
            "faultsim.faults_detected": len(result.detected),
            "faultsim.events_propagated": stats["events_propagated"],
            "faultsim.words_evaluated": stats["words_evaluated"],
        }
        for key, value in expected.items():
            assert observation.counter(key).value == value, key
