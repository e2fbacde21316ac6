"""Deterministic chaos injection for the supervised fault-sim pool.

The tutorial's resilience story (map-out, repair, graceful degradation)
only counts if it is *tested*: a recovery path that has never seen a
failure is dead code.  :class:`ChaosPlan` lets the test-suite — and the
``repro faultsim --chaos`` flag — make a specific attempt at a specific
partition fail in a specific way:

* ``crash``   — the worker process exits hard (``os._exit``), as if
  OOM-killed; the supervisor sees a dead process with no result.
* ``hang``    — the worker sleeps past any sane deadline; the supervisor
  must kill it on the partition timeout.
* ``raise``   — the worker raises inside the kernel; the supervisor gets
  an error message instead of a result.
* ``corrupt`` — the worker returns a *structurally invalid* partial
  result (a fault missing from the shard accounting, or an out-of-range
  first-detection index); the supervisor's validator must reject it.

A plan is a mapping ``partition index -> (mode per attempt, ...)``; an
attempt past the end of its tuple runs clean, so ``("crash", "crash")``
means "die twice, then succeed".  The supervisor numbers pool attempts
``0..max_retries`` and the inline parent fallback ``max_retries + 1``,
so a tuple long enough to cover the inline attempt produces a partition
that *cannot* be recovered — the graceful-degradation path.  Everything
is deterministic: the same plan yields the same failure schedule on
every run, which is what lets the differential tests assert bit-identity
of the recovered result.

``corrupt`` injects only validator-visible damage.  A semantically
plausible wrong answer (a legal but incorrect detection index) is
undetectable without redundant execution and out of scope here.

Multi-runner campaigns over a shared shard store (:mod:`repro.sim.store`)
add a second failure domain: the *host*.  :class:`HostChaosPlan` injects
deterministic host-level failures into a named runner:

* ``kill``      — the whole runner process exits hard (``os._exit``)
  after publishing its N-th shard, leases still held; peers must steal
  the expired leases and finish the campaign.
* ``stall``     — the runner stops renewing its leases (it keeps
  grading and publishing), so peers steal shards it is still working
  on; the resulting double grade must converge via first-write-wins.
* ``partition`` — the runner loses the store for a window: no claims,
  renewals, or publishes go through until the window heals, after which
  queued publishes land late and must converge idempotently.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

CRASH = "crash"
HANG = "hang"
RAISE = "raise"
CORRUPT = "corrupt"

#: Modes accepted in a :class:`ChaosPlan` schedule.
MODES = (CRASH, HANG, RAISE, CORRUPT)

#: Exit status used by ``crash`` injections — distinctive in ``ps``/logs.
CRASH_EXIT_CODE = 86

KILL = "kill"
STALL = "stall"
PARTITION = "partition"

#: Host-level modes accepted in a :class:`HostChaosPlan` schedule.
HOST_MODES = (KILL, STALL, PARTITION)

#: Exit status used by host-level ``kill`` injections — distinct from the
#: worker-level ``crash`` code so tests can tell the domains apart.
HOST_KILL_EXIT_CODE = 87


class ChaosError(RuntimeError):
    """The exception ``raise`` injections throw inside a worker."""


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic failure schedule: partition index -> mode per attempt."""

    schedule: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    hang_s: float = 3600.0

    def __post_init__(self):
        for partition, modes in self.schedule.items():
            if not isinstance(partition, int) or partition < 0:
                raise ValueError(
                    f"chaos partition index must be a non-negative int, "
                    f"got {partition!r}"
                )
            for mode in modes:
                if mode not in MODES:
                    raise ValueError(
                        f"unknown chaos mode {mode!r}; expected one of {MODES}"
                    )

    @classmethod
    def parse(cls, specs: Sequence[str], **kwargs) -> "ChaosPlan":
        """Parse CLI specs like ``2:crash,crash,raise`` (repeatable flag)."""
        schedule: Dict[int, Tuple[str, ...]] = {}
        for spec in specs:
            partition_text, _, modes_text = spec.partition(":")
            try:
                partition = int(partition_text)
            except ValueError:
                raise ValueError(
                    f"bad chaos spec {spec!r}: expected PARTITION:mode[,mode...]"
                ) from None
            modes = tuple(m.strip() for m in modes_text.split(",") if m.strip())
            if not modes:
                raise ValueError(f"bad chaos spec {spec!r}: no modes given")
            schedule[partition] = schedule.get(partition, ()) + modes
        return cls(schedule=schedule, **kwargs)

    def mode_for(self, partition: int, attempt: int) -> "str | None":
        """The injected mode for this (partition, attempt), or None (clean)."""
        modes = self.schedule.get(partition)
        if modes is None or attempt >= len(modes):
            return None
        return modes[attempt]

    # ------------------------------------------------------------------
    # Injection hooks (called from inside the worker / inline fallback)
    # ------------------------------------------------------------------

    def execute_pre(self, partition: int, attempt: int, inline: bool = False) -> None:
        """Pre-simulation hook: crash, hang, or raise as scheduled.

        ``inline`` marks the supervisor's in-parent fallback attempt:
        there is no supervisor above the parent to recover a hard exit or
        kill a sleep, so ``crash``/``hang`` degrade to :class:`ChaosError`
        there — the shard still fails, the process survives.
        """
        mode = self.mode_for(partition, attempt)
        if mode in (CRASH, HANG) and inline:
            raise ChaosError(
                f"injected {mode}: partition {partition} inline attempt {attempt}"
            )
        if mode == CRASH:
            os._exit(CRASH_EXIT_CODE)
        if mode == HANG:
            # The supervisor is expected to kill this process at the
            # partition deadline; the sleep is merely "long enough".
            time.sleep(self.hang_s)
        if mode == RAISE:
            raise ChaosError(
                f"injected failure: partition {partition} attempt {attempt}"
            )

    def corrupt_result(self, partition: int, attempt: int, partial, n_patterns: int):
        """Post-simulation hook: damage the partial result detectably."""
        if self.mode_for(partition, attempt) != CORRUPT:
            return partial
        if partial.undetected:
            # Drop a survivor from the accounting: the shard universe is
            # no longer covered, which the validator must notice.
            partial.undetected = partial.undetected[:-1]
        elif partial.detected:
            # Point a detection past the pattern set.
            fault = next(iter(partial.detected))
            partial.detected[fault] = n_patterns + 1
        return partial


# ----------------------------------------------------------------------
# Host-level chaos (multi-runner shard-store campaigns)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostChaosInjection:
    """One runner's scheduled host failure.

    ``after_publishes`` is the trigger: the injection fires on the first
    supervision-loop pass once the runner has published that many shard
    results to the store (``0`` fires before any work).  ``duration_s``
    bounds ``stall``/``partition`` windows; ``0`` means "until the run
    ends" (``kill`` ignores it).
    """

    mode: str
    after_publishes: int = 0
    duration_s: float = 0.0

    def __post_init__(self):
        if self.mode not in HOST_MODES:
            raise ValueError(
                f"unknown host chaos mode {self.mode!r}; expected one of "
                f"{HOST_MODES}"
            )
        if self.after_publishes < 0:
            raise ValueError(
                f"after_publishes must be >= 0, got {self.after_publishes}"
            )
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")


@dataclass(frozen=True)
class HostChaosPlan:
    """Deterministic host-failure schedule: runner id -> injection.

    Every runner consults the plan with its own ``--runner-id``, so one
    shared plan string launches a whole fleet where exactly the named
    runner dies/stalls/partitions at a reproducible point — which is what
    lets the differential harness assert bit-identity of the survivors'
    merge.
    """

    schedule: Dict[str, HostChaosInjection] = field(default_factory=dict)

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "HostChaosPlan":
        """Parse CLI specs like ``r1:kill@2`` or ``r0:partition@1,0.5``.

        Format: ``RUNNER:MODE[@AFTER[,DURATION_S]]`` (repeatable flag; a
        later spec for the same runner replaces the earlier one).
        """
        schedule: Dict[str, HostChaosInjection] = {}
        for spec in specs:
            runner, sep, rest = spec.partition(":")
            if not sep or not runner or not rest:
                raise ValueError(
                    f"bad host chaos spec {spec!r}: expected "
                    f"RUNNER:MODE[@AFTER[,DURATION_S]]"
                )
            mode, _, trigger = rest.partition("@")
            after, duration = 0, 0.0
            if trigger:
                after_text, _, duration_text = trigger.partition(",")
                try:
                    after = int(after_text)
                    if duration_text:
                        duration = float(duration_text)
                except ValueError:
                    raise ValueError(
                        f"bad host chaos spec {spec!r}: AFTER must be an int "
                        f"and DURATION_S a float"
                    ) from None
            schedule[runner] = HostChaosInjection(mode.strip(), after, duration)
        return cls(schedule=schedule)

    def for_runner(self, runner: str) -> Optional[HostChaosInjection]:
        """The injection scheduled for ``runner``, or None (clean host)."""
        return self.schedule.get(runner)
