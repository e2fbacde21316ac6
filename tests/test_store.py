"""Lease-based shared shard store: multi-runner campaign differentials.

The store's contract extends the supervisor's to a second failure
domain, the host: for ANY host-level chaos schedule — a runner killed
outright, stalling its lease renewals, or partitioned from the store —
the survivors' merged result must be bit-identical to a clean
single-runner run (same detected map, same first-detection indices,
same undetected list), with zero leaked leases and temp files at exit.
The lease primitives themselves are pinned both by unit tests with an
injectable clock and by a hypothesis interleaving property: no shard is
ever double-graded into the merge, and every shard terminates ``done``.
"""

import hashlib
import json
import multiprocessing
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faults.stuck_at import full_fault_list
from repro.obs.events import LEASE_CLAIM, LEASE_LOST, LEASE_STEAL, PUBLISH
from repro.sim.chaos import (
    HOST_KILL_EXIT_CODE,
    ChaosPlan,
    HostChaosInjection,
    HostChaosPlan,
)
from repro.sim.faultsim import FaultSimResult, FaultSimulator
from repro.sim.store import (
    CampaignKey,
    ShardStore,
    StoreCorruptionError,
    StoreMismatchError,
    fault_digest,
    pattern_digest,
    read_store_progress,
    result_digest,
    serialize_partial,
    validate_store_args,
)
from repro.sim.supervisor import SupervisedPoolBackend, SupervisorConfig


def _key(**overrides) -> CampaignKey:
    fields = dict(
        signature="sig", patterns="pat", faults="flt",
        seed=0, partitions=4, drop=True,
    )
    fields.update(overrides)
    return CampaignKey(**fields)


def _partial(shard: int) -> FaultSimResult:
    """A deterministic fake shard result (identical for every grader)."""
    partial = FaultSimResult(total_faults=2)
    partial.detected[StuckAtFault(f"g{shard}", "out", 0)] = shard
    partial.undetected = [StuckAtFault(f"g{shard}", "out", 1)]
    partial.patterns_simulated = 8
    partial.stats["wall_time_s"] = 0.125 * shard  # nondeterministic IRL
    return partial


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


def _store(root, runner="r0", lease_s=10.0, clock=None):
    return ShardStore(
        root, runner_id=runner, lease_s=lease_s,
        clock=clock if clock is not None else FakeClock(),
    )


class TestValidation:
    def test_good_args_pass(self):
        validate_store_args(runner_id="runner-1.a_b", lease_s=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(runner_id=""),
            dict(runner_id=None),
            dict(runner_id="x" * 65),
            dict(runner_id="has space"),
            dict(runner_id="slash/y"),
            dict(lease_s=0),
            dict(lease_s=-1.0),
            dict(lease_s="soon"),
        ],
    )
    def test_bad_args_rejected(self, kwargs):
        with pytest.raises(ValueError):
            validate_store_args(**kwargs)

    def test_host_chaos_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            SupervisedPoolBackend(host_chaos=HostChaosPlan.parse(["r0:kill"]))

    def test_bad_injection_rejected(self):
        with pytest.raises(ValueError):
            HostChaosInjection("meteor")
        with pytest.raises(ValueError):
            HostChaosInjection("kill", after_publishes=-1)
        with pytest.raises(ValueError):
            HostChaosPlan.parse(["r0:kill@soon"])
        with pytest.raises(ValueError):
            HostChaosPlan.parse(["no-colon"])

    def test_parse_specs(self):
        plan = HostChaosPlan.parse(["r1:kill@2", "r0:partition@1,0.5"])
        assert plan.for_runner("r1") == HostChaosInjection("kill", 2, 0.0)
        assert plan.for_runner("r0") == HostChaosInjection("partition", 1, 0.5)
        assert plan.for_runner("r9") is None


class TestDigests:
    def test_pattern_digest_deterministic_and_sensitive(self):
        patterns = [[0, 1, 0], [1, 1, 1]]
        assert pattern_digest(patterns) == pattern_digest([list(p) for p in patterns])
        assert pattern_digest(patterns) != pattern_digest([[0, 1, 0]])
        assert pattern_digest(patterns) != pattern_digest([[1, 1, 1], [0, 1, 0]])
        flipped = [[0, 1, 1], [1, 1, 1]]
        assert pattern_digest(patterns) != pattern_digest(flipped)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.booleans(),
                    st.integers(-1000, 1000),
                    st.integers(0, 255).map(np.uint8),
                    st.integers(-(2 ** 40), 2 ** 40).map(np.int64),
                ),
                max_size=12,
            ),
            max_size=6,
        ),
    )
    def test_pattern_digest_matches_per_bit_reference(self, patterns):
        """The packed digest hashes exactly the per-bit bytes, so stores
        created before it still attach."""
        reference = hashlib.sha256(f"{len(patterns)}:".encode())
        for pattern in patterns:
            reference.update(bytes(int(bit) & 1 for bit in pattern))
            reference.update(b";")
        expected = reference.hexdigest()[:24]
        assert pattern_digest(patterns) == expected
        # numpy int64 rows, whose raw buffer is 8 bytes per bit.
        rows = [np.array([int(bit) for bit in p], dtype=np.int64) for p in patterns]
        assert pattern_digest(rows) == expected

    def test_fault_digest_order_insensitive(self):
        a = StuckAtFault(3, 0, 1)
        b = StuckAtFault(7, -1, 0)
        assert fault_digest([a, b]) == fault_digest([b, a])
        assert fault_digest([a, b]) != fault_digest([a])
        assert fault_digest([a]) != fault_digest([StuckAtFault(3, 0, 0)])

    def test_campaign_key_binds_every_dimension(self):
        netlist = generators.random_circuit(6, 35, seed=5)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(
            FaultSimulator(netlist).view.num_inputs, 64, seed=5
        )
        base = CampaignKey.build(netlist, patterns, faults, 0, 8, True)
        assert base == CampaignKey.build(netlist, patterns, faults, 0, 8, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 1, 8, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 0, 9, True)
        assert base != CampaignKey.build(netlist, patterns, faults, 0, 8, False)
        assert base != CampaignKey.build(netlist, patterns[:-1], faults, 0, 8, True)
        other = benchmarks.c17()
        other_faults, _ = collapse_faults(other, full_fault_list(other))
        key_other = CampaignKey.build(
            other, patterns, other_faults, 0, 8, True
        )
        assert base.signature != key_other.signature


class TestCampaignIdentity:
    def test_initialize_pins_and_attaches(self, tmp_path):
        store = _store(tmp_path)
        assert store.initialize(_key(), 4) is True
        peer = _store(tmp_path, runner="r1")
        assert peer.initialize(_key(), 4) is False  # attached, not created
        assert peer.n_shards == 4

    def test_mismatch_names_fields(self, tmp_path):
        _store(tmp_path).initialize(_key(), 4)
        with pytest.raises(StoreMismatchError) as excinfo:
            _store(tmp_path, runner="r1").initialize(
                _key(patterns="other", seed=9), 4
            )
        message = str(excinfo.value)
        assert "patterns" in message and "seed" in message
        assert "signature" not in message

    def test_shard_count_mismatch_rejected(self, tmp_path):
        _store(tmp_path).initialize(_key(), 4)
        with pytest.raises(StoreMismatchError, match="n_shards"):
            _store(tmp_path, runner="r1").initialize(_key(), 5)


class TestLeaseLifecycle:
    def test_claim_then_peer_blocked_until_expiry(self, tmp_path):
        clock = FakeClock()
        mine = _store(tmp_path, runner="r0", clock=clock)
        peer = _store(tmp_path, runner="r1", clock=clock)
        mine.initialize(_key(), 2)
        peer.initialize(_key(), 2)
        lease = mine.try_claim(0)
        assert lease is not None and lease.runner == "r0"
        assert mine.try_claim(0) is None  # own live lease: not re-claimable
        assert peer.try_claim(0) is None  # live peer holds it
        clock.t += 10.1  # past the deadline: stealable
        stolen = peer.try_claim(0)
        assert stolen is not None and stolen.stolen_from == "r0"
        assert peer.steals == 1
        kinds = [event.kind for event in peer.events.events]
        assert LEASE_STEAL in kinds

    def test_renew_extends_and_loses_after_steal(self, tmp_path):
        clock = FakeClock()
        mine = _store(tmp_path, runner="r0", clock=clock)
        peer = _store(tmp_path, runner="r1", clock=clock)
        mine.initialize(_key(), 1)
        peer.initialize(_key(), 1)
        lease = mine.try_claim(0)
        clock.t += 6.0
        renewed = mine.renew(lease)
        assert renewed is not None
        assert renewed.deadline == pytest.approx(clock.t + 10.0)
        clock.t += 10.1
        assert peer.try_claim(0) is not None  # steal
        assert mine.renew(renewed) is None  # lost: stealer owns it now
        kinds = [event.kind for event in mine.events.events]
        assert LEASE_LOST in kinds

    def test_own_orphaned_lease_reclaimed_at_once(self, tmp_path):
        """A runner reattaching under its own id does not wait out the
        live lease its dead predecessor left; peers still do."""
        clock = FakeClock()
        dead = _store(tmp_path, runner="r0", clock=clock)
        dead.initialize(_key(), 1)
        assert dead.try_claim(0) is not None  # then the host dies
        peer = _store(tmp_path, runner="r1", clock=clock)
        peer.initialize(_key(), 1)
        assert peer.try_claim(0) is None  # a peer must wait for expiry
        reborn = _store(tmp_path, runner="r0", clock=clock)
        reborn.initialize(_key(), 1)
        lease = reborn.try_claim(0)
        assert lease is not None and lease.stolen_from == "r0"
        assert reborn.try_claim(0) is None  # now held in-process: live

    def test_release_frees_the_shard(self, tmp_path):
        clock = FakeClock()
        mine = _store(tmp_path, runner="r0", clock=clock)
        peer = _store(tmp_path, runner="r1", clock=clock)
        mine.initialize(_key(), 1)
        peer.initialize(_key(), 1)
        lease = mine.try_claim(0)
        mine.release(lease)
        assert peer.try_claim(0) is not None  # immediately claimable

    def test_needs_renewal_at_half_life(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, clock=clock)
        store.initialize(_key(), 1)
        lease = store.try_claim(0)
        assert not store.needs_renewal(lease)
        clock.t += 5.1  # less than half the 10s lease remains
        assert store.needs_renewal(lease)

    def test_claim_of_done_shard_refused(self, tmp_path):
        store = _store(tmp_path)
        store.initialize(_key(), 1)
        lease = store.try_claim(0)
        store.publish(0, _partial(0))
        assert store.try_claim(0) is None
        assert lease.shard == 0  # publish released the lease
        assert store.leases() == {}


class TestPublish:
    def test_first_write_wins_and_duplicates_converge(self, tmp_path):
        clock = FakeClock()
        mine = _store(tmp_path, runner="r0", clock=clock)
        peer = _store(tmp_path, runner="r1", clock=clock)
        mine.initialize(_key(), 1)
        peer.initialize(_key(), 1)
        assert mine.publish(0, _partial(0)) is True
        # A racing duplicate (identical grading, different wall stats —
        # the digest must ignore them) converges silently.
        duplicate = _partial(0)
        duplicate.stats["wall_time_s"] = 99.0
        assert peer.publish(0, duplicate) is False
        assert peer.publish_conflicts == 1
        results = peer.load_results()
        assert results[0].detected == _partial(0).detected
        assert results[0].stats["published_by"] == "r0"

    def test_publish_and_load_identity(self, tmp_path):
        """A real shard result survives publish → load field for field."""
        netlist = generators.random_circuit(6, 35, seed=5)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=5)
        partial = simulator.simulate(patterns, faults[:10])
        store = _store(tmp_path)
        store.initialize(_key(), 1)
        assert store.publish(0, partial) is True
        restored = store.load_results()[0]
        assert restored.detected == partial.detected
        assert restored.undetected == partial.undetected
        assert restored.total_faults == partial.total_faults
        assert restored.patterns_simulated == partial.patterns_simulated
        assert restored.stats["published_by"] == "r0"

    def test_divergent_duplicate_is_corruption(self, tmp_path):
        clock = FakeClock()
        mine = _store(tmp_path, runner="r0", clock=clock)
        peer = _store(tmp_path, runner="r1", clock=clock)
        mine.initialize(_key(), 1)
        peer.initialize(_key(), 1)
        mine.publish(0, _partial(0))
        divergent = _partial(0)
        divergent.detected[StuckAtFault("g0", "out", 0)] = 7  # different index
        with pytest.raises(StoreCorruptionError, match="diverge"):
            peer.publish(0, divergent)

    def test_tampered_result_file_detected_on_load(self, tmp_path):
        store = _store(tmp_path)
        store.initialize(_key(), 1)
        store.publish(0, _partial(0))
        path = os.path.join(str(tmp_path), "shards", "00000.result")
        payload = json.load(open(path))
        payload["partial"]["detected"][0][3] = 99
        os.unlink(path)  # result files are link-protected: replace whole file
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(StoreCorruptionError, match="corrupt"):
            store.load_results()

    def test_digest_ignores_stats(self):
        one, two = _partial(3), _partial(3)
        two.stats["wall_time_s"] = 1e9
        two.stats["metrics"] = {"different": True}
        assert result_digest(serialize_partial(3, one)) == result_digest(
            serialize_partial(3, two)
        )

    def test_sweep_removes_stale_leases_of_done_shards(self, tmp_path):
        clock = FakeClock()
        dead = _store(tmp_path, runner="dead", clock=clock)
        live = _store(tmp_path, runner="live", clock=clock)
        dead.initialize(_key(), 1)
        live.initialize(_key(), 1)
        dead.try_claim(0)  # never released: the runner "died"
        clock.t += 10.1
        live.publish(0, _partial(0))  # publish does not require the lease
        assert live.leases() != {}
        assert live.sweep() == 1
        assert live.leases() == {}


# Interleaving ops: (action, runner, shard).  ``advance`` moves the
# shared fake clock by 6s — two of them expire a 10s lease.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["claim", "renew", "publish", "release", "advance"]),
        st.integers(0, 1),
        st.integers(0, 2),
    ),
    max_size=40,
)


class TestLeaseLifecycleProperties:
    @given(ops=_ops)
    @settings(max_examples=30, deadline=None)
    def test_any_interleaving_converges(self, ops):
        """No double grade into the merge; every shard terminates done."""
        root = tempfile.mkdtemp(prefix="repro_store_prop_")
        clock = FakeClock()
        n_shards = 3
        stores = [
            _store(root, runner=f"r{i}", clock=clock) for i in range(2)
        ]
        for store in stores:
            store.initialize(_key(partitions=n_shards), n_shards)
        held = [dict(), dict()]
        partials = {shard: _partial(shard) for shard in range(n_shards)}
        wins = {shard: 0 for shard in range(n_shards)}

        def publish(store, shard):
            if store.publish(shard, partials[shard]):
                wins[shard] += 1

        for action, runner, shard in ops:
            store = stores[runner]
            if action == "advance":
                clock.t += 6.0
            elif action == "claim":
                lease = store.try_claim(shard)
                if lease is not None:
                    held[runner][shard] = lease
            elif action == "renew":
                lease = held[runner].get(shard)
                if lease is not None:
                    renewed = store.renew(lease)
                    if renewed is None:
                        held[runner].pop(shard)
                    else:
                        held[runner][shard] = renewed
            elif action == "publish":
                lease = held[runner].pop(shard, None)
                if lease is not None:
                    publish(store, shard)
            elif action == "release":
                lease = held[runner].pop(shard, None)
                if lease is not None:
                    store.release(lease)
            # First-write-wins: never more than one winning publish per
            # shard, no matter the interleaving.
            assert all(count <= 1 for count in wins.values())
            # The filesystem is the lock: at most one lease file per shard.
            live = stores[0].leases()
            assert len(live) <= n_shards

        # Drain: one surviving runner steals whatever is left and finishes.
        survivor = stores[0]
        for _ in range(n_shards * 3):
            if len(survivor.done_indices()) == n_shards:
                break
            clock.t += 11.0  # everything outstanding expires
            for shard in range(n_shards):
                if survivor.is_done(shard):
                    continue
                lease = survivor.try_claim(shard)
                if lease is not None:
                    publish(survivor, shard)
        assert sorted(survivor.done_indices()) == list(range(n_shards))
        # Exactly one winning grade per shard reached the merge, and the
        # merged bytes are the winner's.
        assert all(count == 1 for count in wins.values())
        results = survivor.load_results()
        for shard in range(n_shards):
            assert results[shard].detected == partials[shard].detected
            assert results[shard].undetected == partials[shard].undetected
        survivor.sweep()
        assert survivor.leases() == {}


# ----------------------------------------------------------------------
# Campaign differentials (real simulations, real processes)
# ----------------------------------------------------------------------


def _setup(n_inputs=6, n_gates=40, seed=7, n_patterns=96):
    netlist = generators.random_circuit(n_inputs, n_gates, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=seed)
    reference = simulator.simulate(patterns, faults, engine="ppsfp")
    return simulator, faults, patterns, reference


def _assert_identical(result, reference):
    assert result.detected == reference.detected
    assert result.undetected == reference.undetected
    assert result.total_faults == reference.total_faults


def _run_runner(root, runner_id, netlist, patterns, faults, queue,
                host_chaos=None, lease_s=1.0, partitions=6, jobs=2):
    """One independent runner process (the unit host chaos kills)."""
    store = ShardStore(root, runner_id=runner_id, lease_s=lease_s)
    backend = SupervisedPoolBackend(
        jobs=jobs, seed=0, partitions=partitions,
        config=SupervisorConfig(),
        store=store, host_chaos=host_chaos,
    )
    result = FaultSimulator(netlist).simulate(patterns, faults, engine=backend)
    queue.put(
        {
            "runner": runner_id,
            "detected": sorted(
                (f.gate, f.pin, f.value, first)
                for f, first in result.detected.items()
            ),
            "undetected": sorted(
                (f.gate, f.pin, f.value) for f in result.undetected
            ),
            "total": result.total_faults,
            "store": result.stats["store"],
        }
    )


def _launch_fleet(root, netlist, patterns, faults, runner_ids, **kwargs):
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    processes = [
        context.Process(
            target=_run_runner,
            args=(root, runner_id, netlist, patterns, faults, queue),
            kwargs=kwargs,
        )
        for runner_id in runner_ids
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    exit_codes = {
        runner_id: process.exitcode
        for runner_id, process in zip(runner_ids, processes)
    }
    reports = []
    while not queue.empty():
        reports.append(queue.get())
    return exit_codes, reports


def _assert_report_identical(report, reference):
    assert report["total"] == reference.total_faults
    assert report["detected"] == sorted(
        (f.gate, f.pin, f.value, first)
        for f, first in reference.detected.items()
    )
    assert report["undetected"] == sorted(
        (f.gate, f.pin, f.value) for f in reference.undetected
    )


def _assert_clean_exit(root):
    shards_dir = os.path.join(str(root), "shards")
    leases = [n for n in os.listdir(shards_dir) if n.endswith(".lease")]
    assert leases == [], f"leaked leases: {leases}"
    tmp = [n for n in os.listdir(shards_dir) if n.startswith(".tmp-")]
    assert tmp == [], f"leaked temp files: {tmp}"


class TestStoreCampaigns:
    def test_single_runner_matches_ppsfp(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        store = ShardStore(str(tmp_path), runner_id="solo", lease_s=5.0)
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4, store=store
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        _assert_identical(result, reference)
        stats = result.stats["store"]
        assert stats["shards_graded_here"] == 4
        assert stats["published"] == 4
        assert stats["steals"] == 0
        assert not stats["finished_by_peers"]
        kinds = [event.kind for event in store.events.events]
        assert LEASE_CLAIM in kinds and PUBLISH in kinds
        _assert_clean_exit(tmp_path)

    def test_event_payloads_reach_result_stats(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        store = ShardStore(str(tmp_path), runner_id="solo", lease_s=5.0)
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=3, store=store
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        payloads = result.stats["events"]
        kinds = {
            event["kind"]
            for payload in payloads
            for event in payload["events"]
        }
        assert LEASE_CLAIM in kinds and PUBLISH in kinds
        # Worker partition timelines were stitched in too.
        assert "partition_begin" in kinds

    def test_second_runner_finished_by_peers(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        first = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="r0", lease_s=5.0),
        )
        simulator.simulate(patterns, faults, engine=first)
        late = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="r1", lease_s=5.0),
        )
        result = FaultSimulator(simulator.netlist).simulate(
            patterns, faults, engine=late
        )
        _assert_identical(result, reference)
        stats = result.stats["store"]
        assert stats["finished_by_peers"]
        assert stats["shards_graded_here"] == 0
        assert all(
            row["source"] == "peer" for row in result.stats["partitions"]
        )
        _assert_clean_exit(tmp_path)

    def test_empty_campaign_not_finished_by_peers(self, tmp_path):
        """Zero shards: nothing for a peer to have finished (the CLI would
        otherwise report exit 5, "nothing left to grade")."""
        simulator, _, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0,
            store=ShardStore(str(tmp_path), runner_id="r0", lease_s=5.0),
        )
        result = backend.run(simulator, patterns, [])
        assert result.total_faults == 0 and result.detected == {}
        stats = result.stats["store"]
        assert stats["n_shards"] == 0
        assert stats["finished_by_peers"] is False
        _assert_clean_exit(tmp_path)

    def test_mismatched_campaign_rejected(self, tmp_path):
        simulator, faults, patterns, _ = _setup()
        first = SupervisedPoolBackend(
            jobs=1, seed=0, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="r0"),
        )
        simulator.simulate(patterns, faults, engine=first)
        wrong_seed = SupervisedPoolBackend(
            jobs=1, seed=1, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="r1"),
        )
        with pytest.raises(StoreMismatchError, match="seed"):
            FaultSimulator(simulator.netlist).simulate(
                patterns, faults, engine=wrong_seed
            )

    def test_three_concurrent_runners_bit_identical(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        exit_codes, reports = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults,
            ["r0", "r1", "r2"],
        )
        assert set(exit_codes.values()) == {0}
        assert len(reports) == 3
        for report in reports:
            _assert_report_identical(report, reference)
        graded = sum(report["store"]["shards_graded_here"] for report in reports)
        assert graded >= 6  # every shard graded at least once, somewhere
        _assert_clean_exit(tmp_path)

    def test_host_kill_differential(self, tmp_path):
        """The acceptance scenario: 3 runners, one killed mid-campaign.

        Survivors must steal the dead runner's shards and produce results
        bit-identical to clean single-runner PPSFP, with the steal visible
        in the telemetry and nothing leaked.
        """
        simulator, faults, patterns, reference = _setup()
        plan = HostChaosPlan.parse(["r1:kill@1"])
        # The doomed runner goes first, alone, so the kill lands
        # deterministically: it claims shards, publishes one, and dies
        # hard still holding at least one lease.
        exit_codes, reports = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults,
            ["r1"], host_chaos=plan, lease_s=0.8,
        )
        assert exit_codes["r1"] == HOST_KILL_EXIT_CODE
        assert reports == []  # killed mid-campaign: no result escaped
        progress = read_store_progress(str(tmp_path))
        assert not progress["complete"]
        assert progress["leased"] >= 1  # the dead runner's leases linger
        # Survivors arrive, wait out the dead runner's lease deadline,
        # steal its shards, and finish the campaign.
        exit_codes, reports = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults,
            ["r0", "r2"], host_chaos=plan, lease_s=0.8,
        )
        assert exit_codes == {"r0": 0, "r2": 0}
        assert len(reports) == 2
        for report in reports:
            _assert_report_identical(report, reference)
        progress = read_store_progress(str(tmp_path))
        assert progress["complete"]
        assert progress["steals"] >= 1  # the steal is visible in telemetry
        _assert_clean_exit(tmp_path)

    def test_killed_runner_reattaches_without_waiting_out_its_lease(
        self, tmp_path
    ):
        """Resume after a host kill: the same runner id, re-run against
        the same store, reclaims its own dead leases at once — it must not
        sit out a 30 s lease it knows is orphaned."""
        simulator, faults, patterns, reference = _setup()
        exit_codes, _ = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults, ["r1"],
            host_chaos=HostChaosPlan.parse(["r1:kill@1"]),
            lease_s=30.0,
        )
        assert exit_codes["r1"] == HOST_KILL_EXIT_CODE
        assert read_store_progress(str(tmp_path))["leased"] >= 1
        start = time.monotonic()
        exit_codes, reports = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults, ["r1"],
            lease_s=30.0,
        )
        assert time.monotonic() - start < 5.0
        assert exit_codes == {"r1": 0}
        (report,) = reports
        _assert_report_identical(report, reference)
        assert 1 <= report["store"]["shards_graded_here"] < 6
        _assert_clean_exit(tmp_path)

    def test_host_stall_converges(self, tmp_path):
        """A stalled runner keeps grading while peers steal its shards;
        the double grades must converge first-write-wins."""
        simulator, faults, patterns, reference = _setup()
        plan = HostChaosPlan.parse(["r0:stall@0,0.0"])
        exit_codes, reports = _launch_fleet(
            str(tmp_path), simulator.netlist, patterns, faults,
            ["r0", "r1"], host_chaos=plan, lease_s=0.5,
        )
        assert set(exit_codes.values()) == {0}
        for report in reports:
            _assert_report_identical(report, reference)
        _assert_clean_exit(tmp_path)

    def test_host_partition_converges(self, tmp_path):
        """A runner partitioned from the store queues publishes and lands
        them late, idempotently, once the window heals."""
        simulator, faults, patterns, reference = _setup()
        store = ShardStore(str(tmp_path), runner_id="r0", lease_s=5.0)
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4,
            config=SupervisorConfig(),
            store=store,
            host_chaos=HostChaosPlan.parse(["r0:partition@1,0.3"]),
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        _assert_identical(result, reference)
        assert result.stats["store"]["published"] == 4
        _assert_clean_exit(tmp_path)

    def test_worker_chaos_still_recovers_in_store_mode(self, tmp_path):
        """Worker-level chaos composes with the store: a crashing worker
        is retried locally, not surrendered to peers."""
        from repro.sim.chaos import ChaosPlan

        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="r0", lease_s=5.0),
            chaos=ChaosPlan.parse(["1:crash"]),
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        _assert_identical(result, reference)
        assert result.stats["worker_crashes"] == 1
        assert result.stats["retries"] == 1
        _assert_clean_exit(tmp_path)

    def test_resume_after_failed_campaign_matches_ppsfp(self, tmp_path):
        """Kill a campaign's shard for good (no retries, no fallback),
        re-run against the same store: only that shard is graded."""
        simulator, faults, patterns, reference = _setup()
        root = str(tmp_path / "resume")
        crashed = SupervisedPoolBackend(
            jobs=2, partitions=6,
            chaos=ChaosPlan.parse(["4:crash"]),
            config=SupervisorConfig(max_retries=0, inline_fallback=False),
            store=ShardStore(root, runner_id="r0"),
        ).run(simulator, patterns, faults)
        assert len(crashed.stats["failed_partitions"]) == 1
        assert crashed.coverage < reference.coverage

        resumed = SupervisedPoolBackend(
            jobs=2, partitions=6, store=ShardStore(root, runner_id="r0"),
        ).run(simulator, patterns, faults)
        assert resumed.stats["store"]["shards_graded_here"] == 1
        _assert_identical(resumed, reference)
        sources = {p["partition"]: p["source"] for p in resumed.stats["partitions"]}
        assert sources[4] == "worker"  # the only shard re-graded
        assert sum(source == "peer" for source in sources.values()) == 5
        _assert_clean_exit(root)

    def test_rewritten_result_refused_against_current_campaign(self, tmp_path):
        """A published result rewritten consistently (digest recomputed)
        but no longer grading its shard is refused, never merged."""
        simulator, faults, patterns, _ = _setup()
        root = str(tmp_path / "tampered")

        def rerun():
            return SupervisedPoolBackend(
                jobs=2, partitions=4, store=ShardStore(root, runner_id="r0"),
            ).run(simulator, patterns, faults)

        rerun()
        path = os.path.join(root, "shards", "00002.result")
        payload = json.load(open(path))
        partial = payload["partial"]
        partial["undetected"] = partial["undetected"][:-1] or partial["undetected"]
        partial["total"] -= 1
        payload["digest"] = result_digest(partial)
        os.unlink(path)  # result files are link-protected: replace whole file
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(StoreCorruptionError, match="shard 2"):
            rerun()

    def test_progress_view_fields(self, tmp_path):
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4,
            store=ShardStore(str(tmp_path), runner_id="viewer"),
        )
        simulator.simulate(patterns, faults, engine=backend)
        progress = read_store_progress(str(tmp_path))
        assert progress["partitions_done_count"] == 4
        assert progress["partitions_total"] == 4
        assert progress["complete"]
        assert progress["leased"] == 0
        assert progress["runners"]["viewer"]["published"] == 4
        assert progress["faults_graded"] > 0
