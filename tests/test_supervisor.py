"""Supervised fault-sim pool: chaos-injection differential harness.

The supervisor's contract mirrors the dispatch layer's, under fire: for
ANY injected failure schedule — workers crashing, hanging, raising, or
returning corrupt partials — the recovered merged result must be
bit-identical to single-process PPSFP (same detected map, same
first-detection indices, same undetected list).  When recovery is
impossible, the run must degrade into an explicit partial result, never
a traceback.
"""

import multiprocessing
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.chaos import CRASH_EXIT_CODE, ChaosError, ChaosPlan
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import (
    SupervisedPoolBackend,
    SupervisorConfig,
    _Slot,
    validate_partial,
)


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


def _assert_nothing_recovered(result):
    # Identity alone is not enough: the inline fallback rescues a broken
    # worker path bit-identically.
    for counter in ("worker_crashes", "retries", "inline_fallbacks"):
        assert result.stats[counter] == 0, counter


class TestCleanRuns:
    @pytest.mark.parametrize("index", range(3))
    def test_matches_ppsfp(self, index):
        circuits = [
            benchmarks.c17(),
            generators.random_circuit(5, 30, seed=101),
            generators.random_sequential(4, 40, 5, seed=303),
        ]
        netlist = circuits[index]
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 64, seed=index)
        for drop in (True, False):
            reference = simulator.simulate(patterns, faults, drop=drop)
            supervised = simulator.simulate(
                patterns, faults, drop=drop, engine=SupervisedPoolBackend(jobs=2)
            )
            _assert_identical(supervised, reference)
            assert supervised.patterns_simulated == reference.patterns_simulated
            stats = supervised.stats
            assert stats["engine"] == "supervised"
            assert stats["worker_crashes"] == 0
            assert stats["retries"] == 0
            assert "failed_partitions" not in stats

    def test_partitions_override_threads_through(self):
        simulator, faults, patterns, reference = _setup()
        result = simulator.simulate(
            patterns, faults, engine=SupervisedPoolBackend(jobs=2, partitions=3)
        )
        _assert_identical(result, reference)
        assert result.stats["n_partitions"] == 3
        assert len(result.stats["partitions"]) == 3

    def test_zero_faults(self):
        simulator, _, patterns, _ = _setup()
        result = simulator.simulate(patterns, [], engine=SupervisedPoolBackend())
        assert result.total_faults == 0
        assert result.detected == {} and result.undetected == []


class TestChaosRecovery:
    def test_crash_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.parse(["2:crash,crash"])
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["worker_crashes"] == 2
        assert result.stats["retries"] == 2
        partition2 = next(
            p for p in result.stats["partitions"] if p["partition"] == 2
        )
        assert partition2["attempts"] == 3  # two crashes + one clean run

    def test_hang_killed_and_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.parse(["1:hang"]),
            config=SupervisorConfig(timeout_s=0.5),
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["timeouts"] == 1

    def test_raise_reported_and_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.parse(["0:raise"])
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["worker_crashes"] == 1  # error message, not timeout

    def test_corrupt_result_rejected_and_recovered(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.parse(["3:corrupt"])
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["invalid_results"] == 1

    def test_poisoned_partition_falls_back_inline(self):
        """Crashing every pool attempt forces the parent to grade inline."""
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2, chaos=ChaosPlan.parse(["4:crash,crash,crash"])
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["inline_fallbacks"] == 1
        partition4 = next(
            p for p in result.stats["partitions"] if p["partition"] == 4
        )
        assert partition4["source"] == "inline"

    def test_multiple_simultaneous_failures(self):
        simulator, faults, patterns, reference = _setup()
        chaos = ChaosPlan(
            schedule={0: ("crash",), 2: ("corrupt", "crash"), 5: ("raise",)}
        )
        backend = SupervisedPoolBackend(jobs=3, chaos=chaos)
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert result.stats["retries"] == 4


class TestGracefulDegradation:
    def test_unrecoverable_partition_yields_partial_result(self):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.parse(["3:crash,crash,crash"]),
            config=SupervisorConfig(inline_fallback=False),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1 and failed[0]["partition"] == 3
        assert failed[0]["faults"] > 0 and failed[0]["attempts"] == 3
        # The failed shard's faults stay conservatively undetected: the
        # result is a lower bound on coverage, and all accounting holds.
        assert result.coverage < reference.coverage
        assert result.stats["coverage_lower_bound"] == result.coverage
        assert set(result.detected) < set(reference.detected)
        assert all(
            result.detected[f] == reference.detected[f] for f in result.detected
        )
        assert len(result.detected) + len(result.undetected) == len(faults)

    def test_inline_chaos_defeats_the_fallback(self):
        """A schedule long enough to cover the inline attempt is fatal."""
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan(schedule={1: ("crash", "crash", "crash", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1
        assert "inline fallback failed" in failed[0]["reason"]
        assert result.stats["inline_fallbacks"] == 1

    def test_inline_crash_injection_cannot_kill_the_parent(self):
        """A crash scheduled for the inline attempt degrades to a failed
        shard — it must never ``os._exit`` the supervising process."""
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            chaos=ChaosPlan.parse(["0:crash,crash"]),
            config=SupervisorConfig(max_retries=0),
        )
        result = backend.run(simulator, patterns, faults)
        failed = result.stats["failed_partitions"]
        assert len(failed) == 1 and failed[0]["partition"] == 0
        assert "injected crash" in failed[0]["reason"]


def _record(result, shard):
    """The positional shard record of an in-process grading of ``shard``."""
    return {
        "index": 0,
        "patterns_simulated": result.patterns_simulated,
        "firsts": [result.detected.get(fault, -1) for fault in shard],
        "stats": {},
    }


class TestValidation:
    def test_validate_partial_accepts_clean_result(self):
        simulator, faults, patterns, _ = _setup()
        shard = faults[:5]
        record = _record(simulator.simulate(patterns, shard), shard)
        assert validate_partial(record, shard, len(patterns)) is None

    def test_validate_partial_rejects_structural_damage(self):
        simulator, faults, patterns, _ = _setup()
        shard = faults[:5]
        clean = _record(simulator.simulate(patterns, shard), shard)
        assert any(first >= 0 for first in clean["firsts"])

        def damaged(firsts):
            return validate_partial(
                dict(clean, firsts=firsts), shard, len(patterns)
            )

        assert "5 shard faults" in damaged(clean["firsts"][:-1])
        assert "5 shard faults" in damaged(clean["firsts"] + [-1])
        for entry in (len(patterns), len(patterns) + 1, -2, 1.0, "3", None):
            assert "out of range" in damaged(clean["firsts"][:-1] + [entry])

    def test_config_and_argument_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SupervisedPoolBackend(jobs=0)
        with pytest.raises(ValueError, match="partitions"):
            SupervisedPoolBackend(partitions=-1)
        with pytest.raises(ValueError, match="seed"):
            SupervisedPoolBackend(seed=-3)
        with pytest.raises(ValueError, match="timeout_s"):
            SupervisedPoolBackend(config=SupervisorConfig(timeout_s=0))
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedPoolBackend(config=SupervisorConfig(max_retries=-1))
        with pytest.raises(ValueError, match="chaos mode"):
            ChaosPlan(schedule={0: ("explode",)})
        with pytest.raises(ValueError, match="partition index"):
            ChaosPlan(schedule={-1: ("crash",)})
        # A NaN deadline never trips and a NaN backoff never elapses, so
        # either would leave a hung or retried shard waiting forever.
        for name in ("timeout_s", "backoff_s"):
            with pytest.raises(ValueError, match=name):
                SupervisorConfig(**{name: float("nan")}).validate()


class _RacyWorker:
    """A worker that sends its result and exits just after the parent's
    first look at it: the parent's later looks see both."""

    exitcode = 0

    def __init__(self):
        self.looks = 0

    def _finished(self):
        self.looks += 1
        return self.looks > 1

    def is_alive(self):
        return not self._finished()

    def poll(self):
        return self._finished()

    def recv(self):
        return ("ok", "the record")

    def join(self, timeout=None):
        pass

    def close(self):
        pass


class TestPolling:
    def test_result_sent_just_before_exit_is_read(self):
        """Small records let a worker send and exit between two looks;
        its result must be read, not reported as a crash."""
        worker = _RacyWorker()
        slot = _Slot(0, 0, worker, worker, None)
        outcome = SupervisedPoolBackend(jobs=1)._poll_slot(slot, 0.0)
        assert outcome == ("ok", "the record")


class TestWorkersShareTheSimulator:
    """Workers grade on the caller's compiled simulator, never their own."""

    def test_workers_build_no_simulator(self, monkeypatch):
        simulator, faults, patterns, reference = _setup()

        def no_build(self, *args, **kwargs):
            raise RuntimeError("a FaultSimulator was built mid-campaign")

        # Inherited by the forked workers: a worker that builds its own
        # simulator fails, and only the inline fallback would rescue it.
        monkeypatch.setattr(FaultSimulator, "__init__", no_build)
        result = SupervisedPoolBackend(jobs=2, partitions=4).run(
            simulator, patterns, faults
        )
        _assert_identical(result, reference)
        _assert_nothing_recovered(result)

    def test_spawn_context_grades_identically(self, monkeypatch):
        """Without fork the simulator is pickled to the worker."""
        simulator, faults, patterns, reference = _setup(n_gates=25, n_patterns=32)
        monkeypatch.setattr(
            SupervisedPoolBackend, "_context",
            staticmethod(lambda: multiprocessing.get_context("spawn")),
        )
        result = SupervisedPoolBackend(jobs=2, partitions=2).run(
            simulator, patterns, faults
        )
        _assert_identical(result, reference)
        _assert_nothing_recovered(result)

    @pytest.mark.parametrize("width", [1, 64])
    def test_pickled_simulator_grades_identically(self, width):
        netlist = generators.random_circuit(6, 40, seed=7)
        simulator = FaultSimulator(netlist, word_width=width)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 96, seed=7)
        copy = pickle.loads(pickle.dumps(simulator))
        assert copy.word_width == width
        for drop in (True, False):
            _assert_identical(
                copy.simulate(patterns, faults, drop=drop),
                simulator.simulate(patterns, faults, drop=drop),
            )


class TestChaosPlan:
    def test_schedule_semantics(self):
        plan = ChaosPlan(schedule={2: ("crash", "hang")})
        assert plan.mode_for(2, 0) == "crash"
        assert plan.mode_for(2, 1) == "hang"
        assert plan.mode_for(2, 2) is None  # past the schedule: clean
        assert plan.mode_for(0, 0) is None  # unscheduled partition: clean

    def test_parse_round_trip(self):
        plan = ChaosPlan.parse(["2:crash,crash", "0:hang", "2:raise"])
        assert plan.schedule == {2: ("crash", "crash", "raise"), 0: ("hang",)}
        with pytest.raises(ValueError, match="chaos spec"):
            ChaosPlan.parse(["nonsense"])
        with pytest.raises(ValueError, match="no modes"):
            ChaosPlan.parse(["3:"])

    def test_raise_hook(self):
        plan = ChaosPlan.parse(["1:raise"])
        with pytest.raises(ChaosError):
            plan.execute_pre(1, 0)
        plan.execute_pre(1, 1)  # attempt past schedule: no-op
        plan.execute_pre(0, 0)  # other partition: no-op
        assert CRASH_EXIT_CODE != 0


class TestKeyboardInterruptTeardown:
    def test_workers_reaped_and_store_resumes(self, tmp_path, monkeypatch):
        """An interrupt mid-campaign must kill children and leave only
        complete files behind; re-running against the same store resumes."""
        simulator, faults, patterns, _ = _setup()
        root = str(tmp_path / "interrupted")
        backend = SupervisedPoolBackend(
            jobs=1, partitions=4, store=ShardStore(root)
        )
        spawned = []
        original_spawn = SupervisedPoolBackend._spawn

        def interrupting_spawn(self, *args, **kwargs):
            if len(spawned) >= 2:
                raise KeyboardInterrupt
            slot = original_spawn(self, *args, **kwargs)
            spawned.append(slot)
            return slot

        monkeypatch.setattr(SupervisedPoolBackend, "_spawn", interrupting_spawn)
        with pytest.raises(KeyboardInterrupt):
            backend.run(simulator, patterns, faults)
        # Every spawned worker is dead, completed shards are durable, and
        # no lease or temp file outlives the interrupt.
        for slot in spawned:
            assert not slot.process.is_alive()
        assert not multiprocessing.active_children()
        assert len(backend.store.done_indices()) == 2
        leftovers = [
            name for name in os.listdir(os.path.join(root, "shards"))
            if name.endswith(".lease") or name.startswith(".tmp-")
        ]
        assert leftovers == []
        monkeypatch.undo()
        # The interrupted campaign resumes: published shards are merged
        # from the store, and the result is bit-identical to a clean run.
        resumed = SupervisedPoolBackend(
            jobs=1, partitions=4, store=ShardStore(root)
        ).run(simulator, patterns, faults)
        reference = simulator.simulate(patterns, faults)
        _assert_identical(resumed, reference)
        assert resumed.stats["store"]["shards_graded_here"] == 2


class TestChaosScheduleProperty:
    """Hypothesis: ANY recoverable injected schedule merges bit-identically."""

    @settings(max_examples=12, deadline=None)
    @given(
        schedule=st.dictionaries(
            keys=st.integers(min_value=0, max_value=3),
            values=st.lists(
                st.sampled_from(["crash", "raise", "corrupt"]),
                min_size=1,
                max_size=2,
            ).map(tuple),
            max_size=3,
        )
    )
    def test_recovered_merge_identical_to_ppsfp(self, schedule):
        netlist = generators.random_circuit(5, 25, seed=11)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 48, seed=11)
        reference = simulator.simulate(patterns, faults)
        # Schedules are capped at max_retries entries, so the pool always
        # has one clean attempt left: recovery is guaranteed, identity must
        # hold exactly.
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            chaos=ChaosPlan(schedule=schedule),
            config=SupervisorConfig(max_retries=2, backoff_s=0.0),
        )
        result = backend.run(simulator, patterns, faults)
        _assert_identical(result, reference)
        assert "failed_partitions" not in result.stats
        injected = sum(len(modes) for p, modes in schedule.items() if p < 4)
        assert result.stats["retries"] == injected
