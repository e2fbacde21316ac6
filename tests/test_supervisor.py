"""Supervised fault-sim pool: worker-failure differential harness.

A clean supervised run is bit-identical to single-process PPSFP (same
detected map, same first-detection indices, same undetected list).  A
worker that dies, raises, or sends a damaged record fails its shard:
the run stops with ``ShardFailedError``, the failed shard has no
published result, and a resume from the store grades exactly the
missing shards and merges bit-identically to PPSFP.  Failures are
injected from the tests alone (``tests/worker_failures.py``).
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
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import (
    ShardFailedError,
    SupervisedPoolBackend,
    _Slot,
    validate_partial,
)
from tests.worker_failures import EXIT_CODE, MODES, failing_shards


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


class TestWorkerFailure:
    """A failed shard stops the run; a resume from the store re-grades it."""

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_shard_stops_and_resume_regrades_it(self, mode, tmp_path):
        simulator, faults, patterns, reference = _setup()
        root = str(tmp_path / "store")

        def backend():
            return SupervisedPoolBackend(
                jobs=2, partitions=6, store=ShardStore(root)
            )

        with failing_shards({3}, mode):
            with pytest.raises(ShardFailedError) as excinfo:
                backend().run(simulator, patterns, faults)
        failure = excinfo.value
        assert failure.index == 3
        assert str(failure).startswith("shard 3 failed: ")
        expected = {
            "exit": f"worker died (exit code {EXIT_CODE})",
            "raise": "worker error: RuntimeError: injected failure in shard 3",
            "damage": "invalid result: ",
        }[mode]
        assert failure.reason.startswith(expected)
        assert not multiprocessing.active_children()
        shards_dir = os.path.join(root, "shards")
        names = os.listdir(shards_dir)
        assert "00003.result" not in names
        assert not [name for name in names if name.startswith(".tmp-")]
        published = ShardStore(root).done_indices()

        resumed = backend().run(simulator, patterns, faults)
        _assert_identical(resumed, reference)
        sources = {
            row["partition"]: row["source"]
            for row in resumed.stats["partitions"]
        }
        assert {p for p, source in sources.items() if source == "store"} == (
            published
        )
        assert resumed.stats["store"]["shards_graded_here"] == 6 - len(published)


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
        slot = _Slot(0, worker, worker)
        assert SupervisedPoolBackend(jobs=1)._poll_slot(slot) == "the record"


class TestWorkersShareTheSimulator:
    """Workers grade on the caller's compiled simulator, never their own."""

    def test_workers_build_no_simulator(self, monkeypatch):
        simulator, faults, patterns, reference = _setup()

        def no_build(self, *args, **kwargs):
            raise RuntimeError("a FaultSimulator was built mid-campaign")

        # Inherited by the forked workers: a worker that builds its own
        # simulator fails its shard, and the run raises.
        monkeypatch.setattr(FaultSimulator, "__init__", no_build)
        result = SupervisedPoolBackend(jobs=2, partitions=4).run(
            simulator, patterns, faults
        )
        _assert_identical(result, reference)

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


class TestFailureSetProperty:
    """Hypothesis: whichever shards fail, the run stops on one of them,
    publishes none of them, and the resume merges bit-identically."""

    @settings(max_examples=12, deadline=None)
    @given(
        failing=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
        mode=st.sampled_from(MODES),
    )
    def test_resume_after_any_failures_identical_to_ppsfp(
        self, tmp_path_factory, failing, mode
    ):
        netlist = generators.random_circuit(5, 25, seed=11)
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(simulator.view.num_inputs, 48, seed=11)
        reference = simulator.simulate(patterns, faults)
        root = str(tmp_path_factory.mktemp("store"))

        def backend():
            return SupervisedPoolBackend(
                jobs=2, partitions=4, store=ShardStore(root)
            )

        with failing_shards(failing, mode):
            if failing:
                with pytest.raises(ShardFailedError) as excinfo:
                    backend().run(simulator, patterns, faults)
                assert excinfo.value.index in failing
            else:
                _assert_identical(
                    backend().run(simulator, patterns, faults), reference
                )
        published = ShardStore(root).done_indices()
        assert not published & failing
        resumed = backend().run(simulator, patterns, faults)
        _assert_identical(resumed, reference)
        assert resumed.stats["store"]["shards_graded_here"] == 4 - len(published)
