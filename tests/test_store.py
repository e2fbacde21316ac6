"""Shard store: publish/merge primitives and kill-and-resume differentials.

The store's contract extends the supervisor's to a killed run: a
campaign killed at any point and re-run against the same directory must
merge a result bit-identical to a clean single-process PPSFP run (same
detected map, same first-detection indices, same undetected list),
grade only the shards with no published result, and leave no temp file
behind.  The publish primitives are pinned by unit tests: first write
wins, a duplicate converges on the same digest, and a divergent or
tampered result is refused.
"""

import hashlib
import inspect
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.cli import main
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faults.stuck_at import full_fault_list
from repro.obs.events import HEARTBEAT, PUBLISH
from repro.sim.dispatch import partition_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import (
    CampaignKey,
    ShardStore,
    StoreCorruptionError,
    StoreMismatchError,
    pattern_digest,
    plan_digest,
    read_store_progress,
    result_digest,
)
from repro.sim.supervisor import ShardFailedError, SupervisedPoolBackend
from tests.worker_failures import failing_shards


def _key(**overrides) -> CampaignKey:
    fields = dict(
        signature="sig", patterns="pat", plan="plan",
        seed=0, partitions=4, drop=True,
    )
    fields.update(overrides)
    return CampaignKey(**fields)


def _record(shard: int) -> dict:
    """A deterministic fake shard record (identical for every grader)."""
    return {
        "index": shard,
        "patterns_simulated": 8,
        "firsts": [shard, -1],
        "stats": {"wall_time_s": 0.125 * shard},  # nondeterministic IRL
    }


def _rewrite(path, edit):
    """Apply ``edit`` to the JSON file at ``path``; store files are
    link-protected, so the whole file is replaced."""
    payload = json.load(open(path))
    edit(payload)
    os.unlink(path)
    with open(path, "w") as handle:
        json.dump(payload, handle)


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

    def test_plan_digest_order_sensitive(self):
        """Records are positional, so the plan digest pins every shard's
        faults and their order, and the shard boundaries."""
        a = StuckAtFault(3, 0, 1)
        b = StuckAtFault(7, -1, 0)
        assert plan_digest([[a, b]]) == plan_digest([[a, b]])
        assert plan_digest([[a, b]]) != plan_digest([[b, a]])
        assert plan_digest([[a], [b]]) != plan_digest([[b], [a]])
        assert plan_digest([[a, b]]) != plan_digest([[a], [b]])
        assert plan_digest([[a, b]]) != plan_digest([[a]])
        assert plan_digest([[a]]) != plan_digest([[StuckAtFault(3, 0, 0)]])

    def test_campaign_key_binds_every_dimension(self):
        netlist = generators.random_circuit(6, 35, seed=5)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(
            FaultSimulator(netlist).view.num_inputs, 64, seed=5
        )
        shards = partition_faults(faults, 8)
        base = CampaignKey.build(netlist, patterns, shards, 0, True)
        assert base == CampaignKey.build(netlist, patterns, shards, 0, True)
        assert base != CampaignKey.build(netlist, patterns, shards, 1, True)
        assert base != CampaignKey.build(
            netlist, patterns, partition_faults(faults, 9), 0, True
        )
        assert base != CampaignKey.build(
            netlist, patterns, shards[::-1], 0, True
        )
        assert base != CampaignKey.build(netlist, patterns, shards, 0, False)
        assert base != CampaignKey.build(netlist, patterns[:-1], shards, 0, True)
        other = benchmarks.c17()
        other_faults, _ = collapse_faults(other, full_fault_list(other))
        key_other = CampaignKey.build(
            other, patterns, partition_faults(other_faults, 8), 0, True
        )
        assert base.signature != key_other.signature


class TestCampaignIdentity:
    def test_initialize_pins_and_attaches(self, tmp_path):
        assert ShardStore(tmp_path).initialize(_key(), 4) is True
        rerun = ShardStore(tmp_path)
        assert rerun.initialize(_key(), 4) is False  # attached, not created
        assert rerun.attach()["n_shards"] == 4

    def test_mismatch_names_fields(self, tmp_path):
        ShardStore(tmp_path).initialize(_key(), 4)
        with pytest.raises(StoreMismatchError) as excinfo:
            ShardStore(tmp_path).initialize(_key(patterns="other", seed=9), 4)
        message = str(excinfo.value)
        assert "patterns" in message and "seed" in message
        assert "signature" not in message

    def test_shard_count_mismatch_rejected(self, tmp_path):
        ShardStore(tmp_path).initialize(_key(), 4)
        with pytest.raises(StoreMismatchError, match="n_shards"):
            ShardStore(tmp_path).initialize(_key(), 5)


class TestPublish:
    def test_first_write_wins_and_duplicates_converge(self, tmp_path):
        mine = ShardStore(tmp_path)
        other = ShardStore(tmp_path)
        mine.initialize(_key(), 1)
        other.initialize(_key(), 1)
        assert mine.publish(_record(0)) is True
        # A duplicate (identical grading, different wall stats — the
        # digest must ignore them) converges silently.
        duplicate = _record(0)
        duplicate["stats"]["wall_time_s"] = 99.0
        assert other.publish(duplicate) is False
        assert other.publish_conflicts == 1
        records = other.load_results()
        assert records[0]["firsts"] == _record(0)["firsts"]
        assert records[0]["stats"]["wall_time_s"] == 0.0  # the winner's bytes

    def test_publish_and_load_identity(self, tmp_path):
        """A real shard record survives publish → load field for field,
        keeping only the work counters and wall time of its stats."""
        netlist = generators.random_circuit(6, 35, seed=5)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=5)
        shard = faults[:10]
        graded = simulator.simulate(patterns, shard)
        record = {
            "index": 0,
            "patterns_simulated": graded.patterns_simulated,
            "firsts": [graded.detected.get(fault, -1) for fault in shard],
            "stats": dict(graded.stats),
        }
        store = ShardStore(tmp_path)
        store.initialize(_key(), 1)
        assert store.publish(record) is True
        restored = store.load_results()[0]
        for field in ("index", "patterns_simulated", "firsts"):
            assert restored[field] == record[field]
        assert restored["stats"] == {
            k: graded.stats[k]
            for k in ("events_propagated", "words_evaluated", "wall_time_s")
        }

    def test_divergent_duplicate_is_corruption(self, tmp_path):
        mine = ShardStore(tmp_path)
        other = ShardStore(tmp_path)
        mine.initialize(_key(), 1)
        other.initialize(_key(), 1)
        mine.publish(_record(0))
        divergent = _record(0)
        divergent["firsts"][0] = 7  # different first-detection index
        with pytest.raises(StoreCorruptionError, match="diverge"):
            other.publish(divergent)

    def test_tampered_result_file_detected_on_load(self, tmp_path):
        store = ShardStore(tmp_path)
        store.initialize(_key(), 1)
        store.publish(_record(0))
        path = os.path.join(str(tmp_path), "shards", "00000.result")

        def tamper(payload):
            payload["record"]["firsts"][0] = 99

        _rewrite(path, tamper)
        with pytest.raises(StoreCorruptionError, match="corrupt"):
            store.load_results()

    def test_digest_ignores_stats(self):
        one, two = _record(3), _record(3)
        two["stats"]["wall_time_s"] = 1e9
        two["stats"]["metrics"] = {"different": True}
        assert result_digest(one) == result_digest(two)
        for field, value in (
            ("index", 4), ("patterns_simulated", 9), ("firsts", [3, 0]),
        ):
            assert result_digest(one) != result_digest(dict(one, **{field: value}))

    def test_misplaced_result_file_refused(self, tmp_path):
        """A record is positional: one filed under another shard's name
        (digest intact) is never merged against that shard."""
        store = ShardStore(tmp_path)
        store.initialize(_key(), 2)
        store.publish(_record(0))
        shards_dir = os.path.join(str(tmp_path), "shards")
        os.link(
            os.path.join(shards_dir, "00000.result"),
            os.path.join(shards_dir, "00001.result"),
        )
        with pytest.raises(StoreCorruptionError, match="misplaced"):
            store.load_results()

    def test_result_file_of_another_version_refused(self, tmp_path):
        store = ShardStore(tmp_path)
        store.initialize(_key(), 1)
        store.publish(_record(0))

        def downgrade(payload):
            payload["version"] = 1

        _rewrite(os.path.join(str(tmp_path), "shards", "00000.result"), downgrade)
        with pytest.raises(StoreMismatchError, match="version"):
            store.load_results()


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


def _run_runner(root, netlist, patterns, faults, queue):
    """One independent runner process on ``root``."""
    backend = SupervisedPoolBackend(
        jobs=2, seed=0, partitions=6, store=ShardStore(root)
    )
    result = FaultSimulator(netlist).simulate(patterns, faults, engine=backend)
    queue.put(
        {
            "detected": sorted(
                (f.gate, f.pin, f.value, first)
                for f, first in result.detected.items()
            ),
            "undetected": sorted(
                (f.gate, f.pin, f.value) for f in result.undetected
            ),
            "total": result.total_faults,
        }
    )


def _hold_publishes(limit):
    """Block this process's ``ShardStore.publish`` for good after
    ``limit`` publishes: the runner then holds exactly ``limit``
    published shards until it is killed.  Self-contained, so a ``python
    -c`` runner can take its source."""
    import time

    from repro.sim.store import ShardStore

    publish = ShardStore.publish
    published = []

    def held(self, record):
        if len(published) >= limit:
            time.sleep(3600)
        published.append(record["index"])
        return publish(self, record)

    ShardStore.publish = held


def _run_doomed_runner(root, netlist, patterns, faults):
    """A runner that publishes five shards and then blocks, in a session
    of its own so that one ``killpg`` takes it down with its workers, as
    a host death would."""
    os.setsid()
    _hold_publishes(5)
    backend = SupervisedPoolBackend(
        jobs=2, seed=0, partitions=6, store=ShardStore(root),
    )
    FaultSimulator(netlist).simulate(patterns, faults, engine=backend)


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
    leftovers = [
        name for name in os.listdir(shards_dir)
        if name.endswith(".lease") or name.startswith(".tmp-")
    ]
    assert leftovers == [], f"leaked files: {leftovers}"


def _repro(*args, launch=("-m", "repro"), **kwargs):
    """``python -m repro ARGS`` in a child process, from this source tree
    (``launch`` replaces ``-m repro``, e.g. with a ``-c`` program)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, *launch, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src), **kwargs,
    )


#: ``python -c`` program: ``repro ARGV`` holding after five publishes.
_HELD_REPRO = (
    inspect.getsource(_hold_publishes)
    + "\nimport sys\nfrom repro.cli import main\n"
    + "_hold_publishes(5)\nsys.exit(main(sys.argv[1:]))\n"
)


class TestStoreCampaigns:
    def test_single_runner_matches_ppsfp(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        store = ShardStore(str(tmp_path))
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4, store=store
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        _assert_identical(result, reference)
        stats = result.stats["store"]
        assert stats["shards_graded_here"] == 4
        assert stats["published"] == 4
        assert stats["publish_conflicts"] == 0
        assert not stats["already_complete"]
        kinds = [event.kind for event in store.events.events]
        assert kinds.count(PUBLISH) == 4 and HEARTBEAT in kinds
        _assert_clean_exit(tmp_path)

    def test_event_payloads_reach_result_stats(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=3, store=ShardStore(str(tmp_path))
        )
        result = simulator.simulate(patterns, faults, engine=backend)
        payloads = result.stats["events"]
        kinds = {
            event["kind"]
            for payload in payloads
            for event in payload["events"]
        }
        assert PUBLISH in kinds
        # Worker partition timelines were stitched in too.
        assert "partition_begin" in kinds

    def test_rerun_of_finished_campaign_already_complete(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        first = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4, store=ShardStore(str(tmp_path)),
        )
        simulator.simulate(patterns, faults, engine=first)
        late = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4, store=ShardStore(str(tmp_path)),
        )
        result = FaultSimulator(simulator.netlist).simulate(
            patterns, faults, engine=late
        )
        _assert_identical(result, reference)
        stats = result.stats["store"]
        assert stats["already_complete"]
        assert stats["shards_graded_here"] == 0
        assert all(
            row["source"] == "store" for row in result.stats["partitions"]
        )
        _assert_clean_exit(tmp_path)

    def test_empty_campaign_not_already_complete(self, tmp_path):
        """Zero shards: nothing an earlier run could have finished (the CLI
        would otherwise report exit 5, "nothing left to grade")."""
        simulator, _, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, store=ShardStore(str(tmp_path)),
        )
        result = backend.run(simulator, patterns, [])
        assert result.total_faults == 0 and result.detected == {}
        stats = result.stats["store"]
        assert stats["n_shards"] == 0
        assert stats["already_complete"] is False
        _assert_clean_exit(tmp_path)

    def test_mismatched_campaign_rejected(self, tmp_path):
        simulator, faults, patterns, _ = _setup()
        first = SupervisedPoolBackend(
            jobs=1, seed=0, partitions=4, store=ShardStore(str(tmp_path)),
        )
        simulator.simulate(patterns, faults, engine=first)
        wrong_seed = SupervisedPoolBackend(
            jobs=1, seed=1, partitions=4, store=ShardStore(str(tmp_path)),
        )
        with pytest.raises(StoreMismatchError, match="seed"):
            FaultSimulator(simulator.netlist).simulate(
                patterns, faults, engine=wrong_seed
            )

    def test_store_of_another_version_refused(self, tmp_path, capsys):
        """A store pinned by another format version is refused up front,
        naming ``version``, and the CLI reports it as a bad store (exit 2)
        instead of merging it."""
        patterns = str(tmp_path / "c17.pat")
        assert main(["atpg", "c17", "-o", patterns]) == 0
        store = str(tmp_path / "store")
        campaign = ["fsim", "c17", patterns, "--store", store, "--jobs", "1"]
        assert main(campaign) == 0
        graded = sorted(os.listdir(os.path.join(store, "shards")))

        def bump(payload):
            payload["version"] = 99

        _rewrite(os.path.join(store, "campaign.json"), bump)
        capsys.readouterr()
        assert main(campaign) == 2
        assert "version" in capsys.readouterr().err
        with pytest.raises(StoreMismatchError, match="version"):
            ShardStore(store).attach()
        assert sorted(os.listdir(os.path.join(store, "shards"))) == graded

    def test_reordered_universe_is_a_mismatch(self, tmp_path):
        """Records are positional against the shard plan: the same faults
        in another order make another campaign, refused (naming ``plan``)
        before any shard is graded."""
        simulator, faults, patterns, _ = _setup()
        root = str(tmp_path / "reordered")
        with failing_shards({5}, "exit"), pytest.raises(ShardFailedError):
            SupervisedPoolBackend(
                jobs=1, partitions=6, store=ShardStore(root),
            ).run(simulator, patterns, faults)
        shards_dir = os.path.join(root, "shards")
        published = sorted(os.listdir(shards_dir))
        assert len(published) == 5
        with pytest.raises(StoreMismatchError, match="plan"):
            SupervisedPoolBackend(
                jobs=2, partitions=6, store=ShardStore(root),
            ).run(simulator, patterns, faults[::-1])
        assert sorted(os.listdir(shards_dir)) == published

    def test_two_concurrent_runners_bit_identical(self, tmp_path):
        """Two runners started on one store by mistake both grade the
        missing shards; their duplicate publishes converge, and both
        merges equal PPSFP."""
        simulator, faults, patterns, reference = _setup()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        runners = [
            context.Process(
                target=_run_runner,
                args=(str(tmp_path), simulator.netlist, patterns, faults, queue),
            )
            for _ in range(2)
        ]
        for runner in runners:
            runner.start()
        reports = [queue.get(timeout=120) for _ in runners]
        for runner in runners:
            runner.join(timeout=120)
        assert [runner.exitcode for runner in runners] == [0, 0]
        for report in reports:
            _assert_report_identical(report, reference)
        _assert_clean_exit(tmp_path)

    def test_host_kill_differential(self, tmp_path):
        """Kill -9 a ``repro fsim --store`` run mid-campaign, as a host
        death would, and re-run it: the re-run grades only the shard the
        kill interrupted and prints the in-process result."""
        patterns = str(tmp_path / "alu4.pat")
        assert main(["atpg", "alu4", "-o", patterns, "--seed", "3"]) == 0
        store = str(tmp_path / "store")
        shards_dir = os.path.join(store, "shards")
        campaign = ["fsim", "alu4", patterns, "--store", store,
                    "--jobs", "2", "--partitions", "6"]
        doomed = _repro(
            *campaign, launch=("-c", _HELD_REPRO), start_new_session=True
        )
        try:
            # Five shards get published, then the runner blocks until killed.
            deadline = time.monotonic() + 60.0
            while True:
                assert doomed.poll() is None, doomed.communicate()
                names = (
                    os.listdir(shards_dir) if os.path.isdir(shards_dir) else []
                )
                results = [n for n in names if n.endswith(".result")]
                if len(results) == 5 and not any(
                    n.startswith(".tmp-") for n in names
                ):
                    break
                assert time.monotonic() < deadline, names
                time.sleep(0.02)
        finally:
            os.killpg(doomed.pid, signal.SIGKILL)
            doomed.communicate()
        assert doomed.returncode == -signal.SIGKILL

        plain = _repro("fsim", "alu4", patterns)
        resumed = _repro(*campaign)
        plain_out, _ = plain.communicate(timeout=120)
        resumed_out, resumed_err = resumed.communicate(timeout=120)
        assert plain.returncode == 0
        assert resumed.returncode == 0, resumed_err

        def detected_line(out):
            return [line for line in out.splitlines() if "faults detected" in line]

        assert detected_line(resumed_out) == detected_line(plain_out) != []
        assert f"store {store}: 1/6 shards graded here" in resumed_out
        _assert_clean_exit(store)

    def test_killed_runner_reattaches_without_waiting_out_its_lease(
        self, tmp_path
    ):
        """Resume after a host kill: a runner killed mid-campaign leaves
        no lease behind, so a re-run against the same store starts at
        once and grades only what the dead runner never published."""
        simulator, faults, patterns, reference = _setup()
        context = multiprocessing.get_context("fork")
        doomed = context.Process(
            target=_run_doomed_runner,
            args=(str(tmp_path), simulator.netlist, patterns, faults),
        )
        doomed.start()
        shards_dir = os.path.join(str(tmp_path), "shards")
        try:
            # Five shards get published, then the runner blocks until killed.
            deadline = time.monotonic() + 60.0
            while True:
                assert doomed.exitcode is None
                names = (
                    os.listdir(shards_dir) if os.path.isdir(shards_dir) else []
                )
                results = [n for n in names if n.endswith(".result")]
                if len(results) == 5 and not any(
                    n.startswith(".tmp-") for n in names
                ):
                    break
                assert time.monotonic() < deadline, names
                time.sleep(0.02)
        finally:
            os.killpg(doomed.pid, signal.SIGKILL)
            doomed.join(timeout=30)
        assert doomed.exitcode == -signal.SIGKILL
        assert not read_store_progress(str(tmp_path))["complete"]
        _assert_clean_exit(tmp_path)  # nothing for the re-run to wait out
        start = time.monotonic()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=6, store=ShardStore(str(tmp_path))
        )
        result = FaultSimulator(simulator.netlist).simulate(
            patterns, faults, engine=backend
        )
        assert time.monotonic() - start < 5.0
        _assert_identical(result, reference)
        assert result.stats["store"]["shards_graded_here"] == 1
        assert not result.stats["store"]["already_complete"]
        _assert_clean_exit(tmp_path)

    def test_resume_after_failed_campaign_matches_ppsfp(self, tmp_path):
        """Fail a campaign's last shard, re-run against the same store:
        only that shard is graded."""
        simulator, faults, patterns, reference = _setup()
        root = str(tmp_path / "resume")
        with failing_shards({5}, "exit"):
            with pytest.raises(ShardFailedError, match="shard 5"):
                SupervisedPoolBackend(
                    jobs=1, partitions=6, store=ShardStore(root),
                ).run(simulator, patterns, faults)

        resumed = SupervisedPoolBackend(
            jobs=2, partitions=6, store=ShardStore(root),
        ).run(simulator, patterns, faults)
        assert resumed.stats["store"]["shards_graded_here"] == 1
        _assert_identical(resumed, reference)
        sources = {p["partition"]: p["source"] for p in resumed.stats["partitions"]}
        assert sources[5] == "worker"  # the only shard re-graded
        assert sum(source == "store" for source in sources.values()) == 5
        _assert_clean_exit(root)

    def test_rewritten_result_refused_against_current_campaign(self, tmp_path):
        """A published result rewritten consistently (digest recomputed)
        but no longer grading its shard is refused, never merged."""
        simulator, faults, patterns, _ = _setup()
        root = str(tmp_path / "tampered")

        def rerun():
            return SupervisedPoolBackend(
                jobs=2, partitions=4, store=ShardStore(root),
            ).run(simulator, patterns, faults)

        rerun()
        path = os.path.join(root, "shards", "00002.result")

        def truncate(payload):
            record = payload["record"]
            record["firsts"] = record["firsts"][:-1]
            payload["digest"] = result_digest(record)

        _rewrite(path, truncate)
        with pytest.raises(StoreCorruptionError, match="shard 2"):
            rerun()

    def test_progress_view_fields(self, tmp_path):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, seed=0, partitions=4, store=ShardStore(str(tmp_path)),
        )
        simulator.simulate(patterns, faults, engine=backend)
        progress = read_store_progress(str(tmp_path))
        assert progress["partitions_done"] == [0, 1, 2, 3]
        assert progress["partitions_done_count"] == 4
        assert progress["partitions_total"] == 4
        assert progress["complete"]
        assert progress["faults_graded"] == reference.total_faults
        assert progress["detected"] == len(reference.detected)
