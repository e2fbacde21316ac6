"""Shared-memory campaign fan-out: arena semantics and leak-proofing.

:mod:`repro.sim.shm` owns one hard promise — **no leaked segments**: the
parent creates each campaign arena, workers only ever map it, and the
parent unlinks it on every exit path.  These tests scan ``/dev/shm``
around supervised campaigns under the failure modes the chaos
harness can inject — worker crashes, hangs killed on deadline, injected
exceptions, corrupt results — and around a ``KeyboardInterrupt``
delivered mid-spawn, asserting the segment count returns to its starting
point every time, including across a store-backed interrupt and resume.

The arena itself is covered first: zero-copy read-only array views,
pickled fallback blocks, spec roundtrip through attach, and idempotent
teardown.
"""

import numpy as np
import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults import collapse_faults, full_fault_list
from repro.sim import shm
from repro.sim.chaos import ChaosPlan
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import SupervisedPoolBackend, SupervisorConfig

KERNELS = ("python", "numpy")


@pytest.fixture
def no_leaked_segments():
    """Assert the ``/dev/shm`` arena population is unchanged by the test."""
    before = set(shm.segment_names())
    yield
    leaked = set(shm.segment_names()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _setup(kernel, n_inputs=6, n_gates=40, seed=7, n_patterns=96):
    netlist = generators.random_circuit(n_inputs, n_gates, seed=seed)
    simulator = FaultSimulator(netlist, cache=None, kernel=kernel)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=seed)
    reference = simulator.simulate(patterns, faults, engine="ppsfp")
    return simulator, faults, patterns, reference


class TestSharedArena:
    def test_array_blocks_zero_copy_read_only(self, no_leaked_segments):
        payload = np.arange(12, dtype="<u8").reshape(3, 4)
        arena = shm.SharedArena.create({"words": payload, "meta": {"n": 3}})
        try:
            view = arena.get("words")
            assert np.array_equal(view, payload)
            assert view.dtype == payload.dtype
            assert not view.flags.writeable
            assert not view.flags.owndata  # a view into the segment, no copy
            assert arena.get("meta") == {"n": 3}
            assert sorted(arena.keys()) == ["meta", "words"]
            with pytest.raises(KeyError):
                arena.get("missing")
        finally:
            arena.destroy()

    def test_attach_sees_owner_blocks(self, no_leaked_segments):
        payload = np.arange(7, dtype="<u8")
        arena = shm.SharedArena.create({"row": payload, "tag": "x"})
        try:
            attached = shm.SharedArena.attach(arena.spec)
            assert np.array_equal(attached.get("row"), payload)
            assert attached.get("tag") == "x"
            attached.close()
            # A non-owner close never unlinks the segment.
            assert arena.spec.name in shm.segment_names()
        finally:
            arena.destroy()

    def test_destroy_idempotent(self, no_leaked_segments):
        arena = shm.SharedArena.create({"tag": "y"})
        assert arena.spec.name in shm.segment_names()
        arena.destroy()
        assert arena.spec.name not in shm.segment_names()
        arena.destroy()  # second teardown is a no-op, not an error

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_campaign_roundtrip(self, kernel, no_leaked_segments):
        """Worker-side attach rebuilds exactly the parent's good chunks."""
        simulator, _, patterns, _ = _setup(kernel)
        expected = simulator.good_response(patterns)
        arena, meta = shm.pack_campaign(simulator, patterns)
        try:
            assert meta["kernel"] == kernel
            assert meta["n_patterns"] == len(patterns)
            attached, chunks = shm.attach_campaign(arena.spec, meta)
            assert len(chunks) == len(expected)
            if kernel == "numpy":
                for mine, theirs in zip(chunks, expected):
                    assert np.array_equal(mine.values, theirs.values)
                    assert mine.n_patterns == theirs.n_patterns
            else:
                assert chunks == expected
        finally:
            arena.destroy()


class TestSupervisedLeaks:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_clean_run(self, kernel, no_leaked_segments):
        simulator, faults, patterns, reference = _setup(kernel)
        result = simulator.simulate(
            patterns, faults, engine="supervised", jobs=2
        )
        assert result.detected == reference.detected

    def test_kernel_exception_everywhere_still_unlinks(self, no_leaked_segments):
        """A kernel raising in every worker *and* inline degrades every
        shard to failed, and the arena still comes down (the supervisor's
        ``finally`` owns it)."""
        simulator, faults, patterns, _ = _setup("numpy")
        original = FaultSimulator._simulate_ppsfp
        try:
            FaultSimulator._simulate_ppsfp = lambda *a, **k: 1 / 0
            result = SupervisedPoolBackend(
                jobs=2, partitions=3,
                config=SupervisorConfig(max_retries=0, backoff_s=0.0),
            ).run(simulator, patterns, faults)
        finally:
            FaultSimulator._simulate_ppsfp = original
        assert len(result.stats["failed_partitions"]) == 3
        assert result.detected == {}
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_recovery(self, kernel, no_leaked_segments):
        """Workers killed mid-read leave only their own mappings behind,
        which die with the process; the parent still unlinks."""
        simulator, faults, patterns, reference = _setup(kernel)
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            chaos=ChaosPlan(schedule={0: ("crash",), 2: ("crash", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.detected == reference.detected
        assert result.stats["worker_crashes"] >= 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_timeout_kills(self, kernel, no_leaked_segments):
        simulator, faults, patterns, reference = _setup(kernel)
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            config=SupervisorConfig(timeout_s=0.5, backoff_s=0.01),
            chaos=ChaosPlan(schedule={1: ("hang",)}, hang_s=30.0),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.detected == reference.detected
        assert result.stats["timeouts"] >= 1

    def test_unrecoverable_partition_still_unlinks(self, no_leaked_segments):
        """Even a run that degrades to a partial result (inline fallback
        poisoned too) releases its segment."""
        simulator, faults, patterns, _ = _setup("numpy")
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            config=SupervisorConfig(max_retries=0, backoff_s=0.01),
            chaos=ChaosPlan(schedule={1: ("raise", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.stats["failed_partitions"]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_keyboard_interrupt_unlinks(
        self, kernel, tmp_path, monkeypatch, no_leaked_segments
    ):
        """Ctrl-C mid-campaign: workers are reaped and the arena is
        unlinked on the way up; the same interrupt against a shard store
        resumes on re-run, bit-identically and still leak-free."""
        simulator, faults, patterns, reference = _setup(kernel)
        root = str(tmp_path / "interrupted")
        original_spawn = SupervisedPoolBackend._spawn

        def interrupted_run(backend):
            spawned = []

            def interrupting_spawn(self, *args, **kwargs):
                if len(spawned) >= 2:
                    raise KeyboardInterrupt
                slot = original_spawn(self, *args, **kwargs)
                spawned.append(slot)
                return slot

            monkeypatch.setattr(
                SupervisedPoolBackend, "_spawn", interrupting_spawn
            )
            with pytest.raises(KeyboardInterrupt):
                backend.run(simulator, patterns, faults)
            monkeypatch.undo()
            for slot in spawned:
                assert not slot.process.is_alive()

        interrupted_run(SupervisedPoolBackend(jobs=1, partitions=4))
        interrupted_run(
            SupervisedPoolBackend(
                jobs=1, partitions=4, store=ShardStore(root, runner_id="r0")
            )
        )
        resumed = SupervisedPoolBackend(
            jobs=1, partitions=4, store=ShardStore(root, runner_id="r0")
        ).run(simulator, patterns, faults)
        assert resumed.detected == reference.detected
        assert resumed.undetected == reference.undetected
        assert resumed.stats["store"]["shards_graded_here"] == 2
