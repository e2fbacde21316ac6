"""Property tests for the metric merge laws (``repro.obs.metrics``).

The observability layer's core claim is that per-partition worker metrics
merge back into the parent exactly like fault results min-merge: the
totals are independent of how the partials are grouped (associativity),
of the order they arrive in (commutativity), and — end to end — of the
supervised backend's worker count and partition order.  Hypothesis holds all three.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.obs.metrics import MetricRegistry
from repro.sim.dispatch import partition_faults, partition_metrics
from repro.sim.faultsim import FaultSimulator
from repro.sim.supervisor import SupervisedPoolBackend

SMALL = dict(max_examples=12, deadline=None)
TINY = dict(max_examples=4, deadline=None)  # spawns process pools

seeds = st.integers(0, 10**6)

# Histogram bounds are part of a metric's identity; merges require equal
# bounds, so the strategy picks from a fixed palette per metric name.
_BOUNDS = (1.0, 10.0, 100.0)

# One operation on a registry.  Names are derived from the kind so a
# generated registry never has kind conflicts (a separate unit test pins
# that conflicting kinds raise).
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("counter"),
            st.integers(0, 3),
            st.integers(0, 1000),
        ),
        st.tuples(
            st.just("gauge"),
            st.integers(0, 3),
            st.integers(-50, 50),
        ),
        st.tuples(
            st.just("histogram"),
            st.integers(0, 3),
            st.integers(0, 200),
        ),
    ),
    max_size=20,
)


def _build(ops):
    registry = MetricRegistry()
    for kind, index, value in ops:
        labels = {"part": str(index % 2)} if index % 2 else {}
        if kind == "counter":
            registry.counter(f"c{index}", **labels).add(value)
        elif kind == "gauge":
            registry.gauge(f"g{index}", **labels).set(value)
        else:
            registry.histogram(f"h{index}", bounds=_BOUNDS, **labels).observe(value)
    return registry


def _copy(registry):
    return MetricRegistry.from_dict(registry.to_dict())


class TestMergeLaws:
    @settings(**SMALL)
    @given(a=_ops, b=_ops)
    def test_merge_commutative(self, a, b):
        left = _build(a).merge(_build(b))
        right = _build(b).merge(_build(a))
        assert left.to_dict() == right.to_dict()

    @settings(**SMALL)
    @given(a=_ops, b=_ops, c=_ops)
    def test_merge_associative(self, a, b, c):
        ra, rb, rc = _build(a), _build(b), _build(c)
        left = _copy(ra).merge(_copy(rb)).merge(_copy(rc))
        right = _copy(ra).merge(_copy(rb).merge(_copy(rc)))
        assert left.to_dict() == right.to_dict()

    @settings(**SMALL)
    @given(ops=_ops)
    def test_empty_is_identity(self, ops):
        registry = _build(ops)
        merged = _copy(registry).merge(MetricRegistry())
        assert merged.to_dict() == registry.to_dict()
        absorbed = MetricRegistry().merge(_copy(registry))
        assert absorbed.to_dict() == registry.to_dict()

    @settings(**SMALL)
    @given(ops=_ops, seed=seeds)
    def test_serialized_roundtrip_preserves_merge(self, ops, seed):
        """merge_dict(to_dict(r)) == merge(r): the process-pipe encoding
        loses nothing."""
        registry = _build(ops)
        via_dict = MetricRegistry().merge_dict(registry.to_dict())
        assert via_dict.to_dict() == registry.to_dict()


class TestPartitionMergeInvariance:
    """End-to-end mirror of the dispatch differential: however the fault
    universe is sharded and whatever order the shards come home in, the
    merged worker metrics are identical."""

    @settings(**SMALL)
    @given(seed=seeds, parts=st.integers(1, 6))
    def test_partition_order_irrelevant(self, seed, parts):
        netlist = generators.random_circuit(5, 30, seed=seed % 997)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 48, seed=seed)
        payloads = [
            partition_metrics(simulator.simulate(patterns, shard, drop=False))
            for shard in partition_faults(faults, parts, seed=seed)
        ]

        forward = MetricRegistry()
        for payload in payloads:
            forward.merge_dict(payload)
        shuffled = list(payloads)
        random.Random(seed).shuffle(shuffled)
        backward = MetricRegistry()
        for payload in shuffled:
            backward.merge_dict(payload)
        assert forward.to_dict() == backward.to_dict()

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
