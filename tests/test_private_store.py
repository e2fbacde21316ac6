"""Private shard stores: a supervised run without ``store=`` leaves nothing.

Every supervised campaign runs over a shard store.  A caller that passes
none gets a private one, a ``repro-campaign-*`` directory on tmpfs (or
in the temp dir), which the backend removes on every exit path.  These
tests run campaigns under the failure modes the chaos harness can
inject — worker crashes, hangs killed on deadline, injected exceptions,
a kernel raising everywhere — and around a ``KeyboardInterrupt``
delivered mid-spawn.  After each one, no private store directory may
remain and no worker may still be alive.
"""

import multiprocessing
import os
import tempfile

import pytest

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.chaos import ChaosPlan
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import (
    PRIVATE_STORE_PREFIX,
    SupervisedPoolBackend,
    SupervisorConfig,
)


def private_store_dirs():
    """Private store directories alive on this machine."""
    found = set()
    for parent in ("/dev/shm", tempfile.gettempdir()):
        try:
            entries = os.listdir(parent)
        except OSError:
            continue
        found.update(
            os.path.join(parent, name)
            for name in entries
            if name.startswith(PRIVATE_STORE_PREFIX)
        )
    return found


@pytest.fixture
def leaves_nothing():
    """Assert the test leaves no private store and no live worker behind."""
    before = private_store_dirs()
    children = set(multiprocessing.active_children())
    yield
    leaked = private_store_dirs() - before
    assert not leaked, f"leaked private stores: {sorted(leaked)}"
    alive = set(multiprocessing.active_children()) - children
    assert not alive, f"workers still alive: {alive}"


def _setup(n_inputs=6, n_gates=40, seed=7, n_patterns=96):
    netlist = generators.random_circuit(n_inputs, n_gates, seed=seed)
    simulator = FaultSimulator(netlist, cache=None)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=seed)
    reference = simulator.simulate(patterns, faults, engine="ppsfp")
    return simulator, faults, patterns, reference


class TestPrivateStoreCleanup:
    def test_clean_run(self, leaves_nothing):
        simulator, faults, patterns, reference = _setup()
        result = simulator.simulate(
            patterns, faults, engine=SupervisedPoolBackend(jobs=2)
        )
        assert result.detected == reference.detected
        assert "store" not in result.stats  # no path, no peers to report

    def test_kernel_exception_everywhere_cleans_up(self, leaves_nothing):
        """A kernel raising in every worker *and* inline degrades every
        shard to failed, and the private store still comes down."""
        simulator, faults, patterns, _ = _setup()
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

    def test_crash_recovery(self, leaves_nothing):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            chaos=ChaosPlan(schedule={0: ("crash",), 2: ("crash", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.detected == reference.detected
        assert result.stats["worker_crashes"] >= 1

    def test_timeout_kills(self, leaves_nothing):
        simulator, faults, patterns, reference = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            config=SupervisorConfig(timeout_s=0.5, backoff_s=0.01),
            chaos=ChaosPlan(schedule={1: ("hang",)}, hang_s=30.0),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.detected == reference.detected
        assert result.stats["timeouts"] >= 1

    def test_unrecoverable_partition_cleans_up(self, leaves_nothing):
        """Even a run that degrades to a partial result (inline fallback
        poisoned too) removes its private store."""
        simulator, faults, patterns, _ = _setup()
        backend = SupervisedPoolBackend(
            jobs=2,
            partitions=4,
            config=SupervisorConfig(max_retries=0, backoff_s=0.01),
            chaos=ChaosPlan(schedule={1: ("raise", "raise")}),
        )
        result = backend.run(simulator, patterns, faults)
        assert result.stats["failed_partitions"]

    def test_keyboard_interrupt_cleans_up(
        self, tmp_path, monkeypatch, leaves_nothing
    ):
        """Ctrl-C mid-campaign: workers are reaped and the private store
        is removed on the way up; the same interrupt against a given
        shard store resumes on re-run, bit-identically."""
        simulator, faults, patterns, reference = _setup()
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
                jobs=1, partitions=4, store=ShardStore(root)
            )
        )
        resumed = SupervisedPoolBackend(
            jobs=1, partitions=4, store=ShardStore(root)
        ).run(simulator, patterns, faults)
        assert resumed.detected == reference.detected
        assert resumed.undetected == reference.undetected
        assert resumed.stats["store"]["shards_graded_here"] == 2
