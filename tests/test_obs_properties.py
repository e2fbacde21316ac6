"""Property tests for the published fault-simulation counters.

``FaultSimResult.stats`` is the one record of a run, and
``FaultSimulator._publish`` turns it into counters the same way for
every engine.  So the supervised backend's counters equal the in-process
PPSFP reference for any worker count, and a degraded supervised run
publishes exactly what its ``stats`` hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.chaos import ChaosPlan
from repro.sim.faultsim import FaultSimulator
from repro.sim.supervisor import SupervisedPoolBackend, SupervisorConfig

TINY = dict(max_examples=4, deadline=None)  # spawns process pools

seeds = st.integers(0, 10**6)


class TestPartitionMergeInvariance:
    """End-to-end mirror of the dispatch differential: however the fault
    universe is sharded and whatever happens to the shards, the published
    counters are the run's stats."""

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

    def test_degraded_run_publishes_its_stats(self):
        """A shard lost for good still leaves counters equal to stats."""
        netlist = generators.random_circuit(6, 60, seed=1)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=1)
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            config=SupervisorConfig(
                max_retries=0, inline_fallback=False, backoff_s=0.0
            ),
            chaos=ChaosPlan.parse(["1:crash"]),
        )
        with obs.observe("run") as observation:
            result = simulator.simulate(patterns, faults, engine=backend)

        stats = result.stats
        assert [row["partition"] for row in stats["failed_partitions"]] == [1]
        expected = {
            "faultsim.faults_simulated": stats["faults_simulated"],
            "faultsim.faults_detected": len(result.detected),
            "faultsim.events_propagated": stats["events_propagated"],
            "faultsim.words_evaluated": stats["words_evaluated"],
            "supervisor.failed_partitions": 1,
        }
        for key, value in expected.items():
            assert observation.counter(key).value == value, key
