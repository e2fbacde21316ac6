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
* ``corrupt`` — the worker returns a *structurally invalid* shard
  record (``firsts`` one entry short of the shard, or an entry past the
  pattern set); the supervisor's validator must reject it.

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
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

CRASH = "crash"
HANG = "hang"
RAISE = "raise"
CORRUPT = "corrupt"

#: Modes accepted in a :class:`ChaosPlan` schedule.
MODES = (CRASH, HANG, RAISE, CORRUPT)

#: Exit status used by ``crash`` injections — distinctive in ``ps``/logs.
CRASH_EXIT_CODE = 86


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

    def corrupt_result(self, partition: int, attempt: int, record,
                       n_patterns: int) -> None:
        """Post-simulation hook: damage the shard record in place, detectably."""
        firsts = record["firsts"]
        if self.mode_for(partition, attempt) != CORRUPT or not firsts:
            return
        if firsts[-1] < 0:
            # Drop a survivor: the record no longer covers its shard.
            del firsts[-1]
        else:
            # Point a detection past the pattern set.
            firsts[-1] = n_patterns + 1
