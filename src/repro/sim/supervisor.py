"""Supervised multiprocess fault simulation: crash recovery, timeouts,
poisoned-partition fallback, and checkpoint/resume through a shard store.

One worker OOM-killed, crashed, or wedged must not take a campaign with
it, and an hours-long accelerator-scale run must not restart from zero.
The tutorial's own thesis — AI chips must keep working when parts fail —
applies to the test infrastructure too.  :class:`SupervisedPoolBackend`
runs deterministic shards (seeded partitioning from
:mod:`repro.sim.dispatch`, merged by position, so a clean supervised run
is bit-identical to ``ppsfp``) under a supervisor that assumes workers
*will* fail:

* **one process per partition** — failure isolation is the unit of work;
  a dead or wedged worker loses exactly one shard, never the pool;
* **per-partition wall-clock deadline** — a hung worker is killed at
  ``timeout_s`` and its shard requeued;
* **bounded retry with exponential backoff** — crashes, kills, injected
  exceptions and validation failures requeue the shard up to
  ``max_retries`` times;
* **result validation** — a shard record must hold one int in
  ``[-1, n_patterns)`` per shard fault, checked on arrival (a corrupt
  worker result is retried, never published) and on every record
  loaded for the merge;
* **poisoned-partition fallback** — a shard that exhausts its pool
  retries is re-run inline in the parent (no fork, no pipe — the
  failure domain shrinks to the kernel itself);
* **graceful degradation** — a shard that fails even inline is recorded
  in ``stats["failed_partitions"]`` and its faults stay conservatively
  undetected: the merged result is a *coverage lower bound*
  (``stats["coverage_lower_bound"]``) instead of a traceback;
* **resume** — with a :class:`repro.sim.store.ShardStore` attached, every
  completed shard is durably published, and re-running the same campaign
  against the same store grades only the shards not yet published — a
  killed campaign resumes bit-identically.

There is one driver: every campaign runs over a shard store.  A caller
that passes none gets a private one in a temporary directory (on tmpfs
where the host has it), removed on every exit path.  Every shard attempt
is graded by :func:`_grade_shard` on the caller's compiled simulator,
which workers inherit with the good response by ``fork`` copy-on-write,
into one positional record (:mod:`repro.sim.store`) that travels
unchanged from the worker's pipe to the store and into the merge.

The failure modes are exercised deterministically by
:mod:`repro.sim.chaos`; ``tests/test_supervisor.py`` asserts that the
recovered merge is bit-identical to single-process PPSFP under every
injected schedule.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.model import StuckAtFault
from ..obs.events import (
    CHAOS,
    CRASH,
    HEARTBEAT,
    INLINE_FALLBACK,
    INVALID,
    PARTITION_BEGIN,
    PARTITION_END,
    RETRY,
    TIMEOUT,
    EventLog,
)
from .chaos import ChaosPlan
from .dispatch import (
    default_partition_count,
    partition_faults,
    validate_pool_args,
)
from .faultsim import (
    RECOVERY_COUNTERS,
    FaultSimResult,
    unique_faults,
)
from .store import CampaignKey, ShardStore, StoreCorruptionError

#: Name prefix of the private store directory a run without ``store=``
#: creates and always removes.
PRIVATE_STORE_PREFIX = "repro-campaign-"

#: Longest the supervision loop blocks on its workers between looks at
#: retry backoff and deadlines.
WAIT_S = 0.01


@dataclass
class SupervisorConfig:
    """Tunables for the supervised pool.

    ``timeout_s`` is the per-partition wall-clock deadline (``None``
    disables hang detection — crashes are still recovered).
    ``max_retries`` counts *pool* retries per shard; after those, the
    shard runs inline in the parent when ``inline_fallback`` is set.
    ``backoff_s`` seeds exponential backoff between retries of one shard
    (attempt ``k`` waits ``backoff_s * 2**(k-1)``).
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    inline_fallback: bool = True

    def validate(self) -> None:
        # Reject NaN too: a NaN deadline or backoff never elapses.
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError(
                f"backoff_s must be finite and >= 0, got {self.backoff_s}"
            )


def validate_partial(
    record: Dict[str, object],
    shard: Sequence[StuckAtFault],
    n_patterns: int,
) -> Optional[str]:
    """Structural validity of a shard record, or a reason.

    The contract: one first-detection entry per shard fault, each an int
    in ``[-1, n_patterns)``.  A crashed-and-restarted or byte-corrupted
    worker cannot satisfy this by accident, so validation turns silent
    corruption into a retry.
    """
    firsts = record["firsts"]
    if len(firsts) != len(shard):
        return f"{len(firsts)} first-detection entries for {len(shard)} shard faults"
    for first in firsts:
        if type(first) is not int or not -1 <= first < n_patterns:
            return f"first-detection index {first!r} out of range"
    return None


def _grade_shard(simulator, chaos, index, attempt, shard, drop, good_chunks,
                 n_patterns, inline=False) -> Dict[str, object]:
    """Grade one shard attempt, in a worker or inline, into its record:
    chaos pre-hook, cone propagation over ``good_chunks`` (bigint words,
    so the simulator's cache and kernel go untouched), chaos corruption."""
    if chaos is not None:
        chaos.execute_pre(index, attempt, inline=inline)
    partial = simulator._simulate_ppsfp(
        None, shard, drop, good_chunks=good_chunks, n_patterns=n_patterns
    )
    detected = partial.detected
    record = {
        "index": index,
        "patterns_simulated": partial.patterns_simulated,
        "firsts": [detected.get(fault, -1) for fault in shard],
        "stats": partial.stats,
    }
    if chaos is not None:
        chaos.corrupt_result(index, attempt, record, n_patterns)
    return record


def _supervised_worker(conn, simulator, chaos, index, attempt, shard, drop,
                       good_chunks, n_patterns) -> None:
    """Worker entry: grade one shard, send (status, payload), exit.

    Any exception — including injected chaos — is reported as an
    ``error`` message so the supervisor need not wait for a timeout to
    learn about it.
    """
    status, payload = "error", "worker exited without result"
    try:
        log = EventLog()
        log.emit(
            PARTITION_BEGIN, "partition",
            partition=index, attempt=attempt, faults=len(shard),
        )
        record = _grade_shard(
            simulator, chaos, index, attempt, shard, drop, good_chunks,
            n_patterns,
        )
        log.emit(
            PARTITION_END, "partition", partition=index, attempt=attempt,
            detected=sum(1 for first in record["firsts"] if first >= 0),
        )
        record["stats"]["worker_events"] = log.to_payload()
        status, payload = "ok", record
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    try:
        conn.send((status, payload))
    except Exception:
        pass  # parent already gone or pipe broken; exit code tells the story
    finally:
        conn.close()


@dataclass
class _Slot:
    """One in-flight worker process."""

    index: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: object
    deadline: Optional[float]


@dataclass
class _Campaign:
    """Bookkeeping for one supervised run."""

    shards: List[List[StuckAtFault]]
    n_patterns: int
    drop: bool
    # The supervisor's own telemetry: retry/kill/chaos instants plus
    # campaign heartbeats, stitched with the workers' shipped logs.
    events: EventLog
    counters: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(RECOVERY_COUNTERS, 0)
    )
    sources: Dict[int, str] = field(default_factory=dict)
    attempts_used: Dict[int, int] = field(default_factory=dict)
    failed: List[Dict[str, object]] = field(default_factory=list)
    metrics_lost: Dict[int, int] = field(default_factory=dict)
    # (partition, attempt, eligible-at monotonic time)
    pending: List[Tuple[int, int, float]] = field(default_factory=list)

    def note(self, index: int, source: str, attempt: int) -> None:
        self.sources[index] = source
        self.attempts_used[index] = attempt + 1


class SupervisedPoolBackend:
    """Fault-tolerant multiprocess PPSFP over deterministic partitions.

    ``jobs`` (worker processes, default: CPU count), ``seed`` (the
    partitioning shuffle) and ``partitions`` (default: sized from the
    fault universe) never change the merged result, which is
    bit-identical to ``ppsfp`` on a clean run.  The backend survives
    worker crashes, hangs and corrupt results, degrades gracefully
    instead of dying, and with ``store=`` resumes from the store's
    published shards.  Without ``store=`` it runs over a private
    temporary store.
    """

    name = "supervised"

    def __init__(
        self,
        jobs: Optional[int] = None,
        seed: int = 0,
        partitions: Optional[int] = None,
        config: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
        store: Optional[ShardStore] = None,
    ):
        validate_pool_args(jobs=jobs, seed=seed, partitions=partitions)
        self.jobs = jobs
        self.seed = seed
        self.partitions = partitions
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.chaos = chaos
        self.store = store

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------

    def _plan(self, simulator, universe):
        """Worker count and deterministic shards for ``universe``.

        Each fanout-free region's faults share one shard, so every shard
        traces them against one ``obs(root)`` per chunk, as in process.
        """
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        n_partitions = (
            self.partitions
            if self.partitions is not None
            else default_partition_count(len(universe))
        )
        shards = partition_faults(
            universe, n_partitions, self.seed, key=simulator.fault_region
        )
        return max(1, jobs), shards

    def run(self, simulator, patterns, faults, drop=True):
        if self.store is not None:
            return self._run_store(self.store, simulator, patterns, faults, drop)
        # No store given: run over a private one on tmpfs (where the host
        # has it, so its fsyncs cost no disk I/O), removed on every exit
        # path.  It has no path worth reporting.
        tmpfs = "/dev/shm" if os.path.isdir("/dev/shm") else None
        with tempfile.TemporaryDirectory(
            prefix=PRIVATE_STORE_PREFIX, dir=tmpfs
        ) as root:
            result = self._run_store(
                ShardStore(root), simulator, patterns, faults, drop
            )
        del result.stats["store"]
        return result

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _handle_outcome(
        self, slot: _Slot, outcome, campaign: _Campaign,
        record: Callable[[Dict[str, object], str, int], None],
        poison: Callable[[_Slot, str], None],
    ) -> None:
        """Settle one finished worker attempt.

        A valid shard record goes to ``record(shard_record, source,
        attempt)``.  Anything else — an invalid record,
        a deadline kill, a crash or reported error — is counted, lands on
        the timeline, and is requeued with backoff; once the shard's pool
        retries are spent it goes to ``poison``.
        """
        status, payload = outcome
        events = campaign.events
        if status == "ok":
            reason = validate_partial(
                payload, campaign.shards[slot.index], campaign.n_patterns
            )
            if reason is None:
                record(payload, "worker", slot.attempt)
                return
            campaign.counters["invalid_results"] += 1
            events.emit(
                INVALID, "invalid_result",
                partition=slot.index, attempt=slot.attempt, reason=reason,
            )
            payload = f"invalid result: {reason}"
        elif status == "timeout":
            campaign.counters["timeouts"] += 1
            events.emit(
                TIMEOUT, "timeout_kill",
                partition=slot.index, attempt=slot.attempt,
                deadline_s=self.config.timeout_s,
            )
        else:
            campaign.counters["worker_crashes"] += 1
            events.emit(
                CRASH, "worker_crash",
                partition=slot.index, attempt=slot.attempt,
                reason=str(payload)[:200],
            )
        # The attempt did real work whose metrics died with the worker (or
        # were rejected with it): note the loss so merged totals can be
        # reported as a stated lower bound.
        campaign.metrics_lost[slot.index] = (
            campaign.metrics_lost.get(slot.index, 0) + 1
        )
        if slot.attempt < self.config.max_retries:
            campaign.counters["retries"] += 1
            events.emit(
                RETRY, "retry",
                partition=slot.index, attempt=slot.attempt, reason=payload[:200],
            )
            eligible = time.monotonic() + self.config.backoff_s * (2 ** slot.attempt)
            campaign.pending.append((slot.index, slot.attempt + 1, eligible))
            return
        poison(slot, payload)

    def _spawn(self, simulator, campaign, index, attempt, good_chunks):
        """Start one worker process for one shard attempt.

        ``simulator`` and ``good_chunks`` reach the worker free under
        ``fork`` (copy-on-write), pickled through the process args on
        platforms without it (the simulator then recompiles there).
        """
        if self.chaos is not None:
            mode = self.chaos.mode_for(index, attempt)
            if mode is not None:
                # The parent knows the schedule, so the injection lands on
                # the timeline even when the worker dies before reporting.
                campaign.events.emit(
                    CHAOS, f"chaos:{mode}",
                    partition=index, attempt=attempt, mode=mode,
                )
        context = self._context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(
                child_conn, simulator, self.chaos, index, attempt,
                campaign.shards[index], campaign.drop, good_chunks,
                campaign.n_patterns,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            None
            if self.config.timeout_s is None
            else time.monotonic() + self.config.timeout_s
        )
        return _Slot(index, attempt, process, parent_conn, deadline)

    def _poll_slot(self, slot: _Slot, now: float):
        """One observation of a running worker.

        Returns ``None`` (still running), ``("ok", record)``,
        ``("timeout", reason)``, or ``("crash"/"error", reason)``.
        """
        # Liveness first: a worker that sends its result and exits between
        # the two checks must be read, not reported dead.
        alive = slot.process.is_alive()
        if slot.conn.poll():
            try:
                status, payload = slot.conn.recv()
            except (EOFError, OSError):
                status, payload = None, None
            self._reap(slot)
            if status == "ok":
                return ("ok", payload)
            if status == "error":
                return ("error", f"worker error: {payload}")
            return ("crash", "worker closed pipe without a result")
        if not alive:
            self._reap(slot)
            return (
                "crash",
                f"worker died (exit code {slot.process.exitcode})",
            )
        if slot.deadline is not None and now > slot.deadline:
            self._reap(slot, kill=True)
            return (
                "timeout",
                f"partition exceeded {self.config.timeout_s}s deadline",
            )
        return None

    def _finish_poisoned(
        self, simulator, good_chunks, campaign, index, attempt, reason, record,
    ) -> None:
        """Pool retries exhausted: inline fallback, else mark failed."""
        shard = campaign.shards[index]
        n_patterns = campaign.n_patterns
        if self.config.inline_fallback:
            campaign.counters["inline_fallbacks"] += 1
            inline_attempt = attempt + 1
            campaign.events.emit(
                INLINE_FALLBACK, "inline_fallback",
                partition=index, attempt=inline_attempt, reason=reason[:200],
            )
            try:
                shard_record = _grade_shard(
                    simulator, self.chaos, index, inline_attempt, shard,
                    campaign.drop, good_chunks, n_patterns, inline=True,
                )
                invalid = validate_partial(shard_record, shard, n_patterns)
                if invalid is None:
                    record(shard_record, "inline", inline_attempt)
                    return
                reason = f"inline fallback invalid result: {invalid}"
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                reason = f"inline fallback failed: {type(exc).__name__}: {exc}"
            attempt = inline_attempt
        campaign.failed.append(
            {
                "partition": index,
                "faults": len(shard),
                "attempts": attempt + 1,
                "reason": reason,
            }
        )

    # ------------------------------------------------------------------
    # The driver: one loop over a shard store (resume)
    # ------------------------------------------------------------------

    def _run_store(self, store, simulator, patterns, faults, drop):
        """Execute one campaign over a shard store.

        Every shard with no published result is graded, in index order,
        and published the moment it is graded — so a re-run against a
        store that a killed run partly filled grades only what is
        missing.  Two properties are load-bearing:

        * the compiled simulator and good-machine response reach workers
          by ``fork`` copy-on-write, so a killed run leaves no shared
          resource behind;
        * the final merge reads *only* the store's published result files —
          including for shards graded here — so a resumed run's merged
          result is bit-identical to a clean run's by construction.
        """
        start_time = time.perf_counter()
        universe = unique_faults(faults)
        jobs, shards = self._plan(simulator, universe)
        n_patterns = len(patterns)
        key = CampaignKey.build(
            simulator.netlist, patterns, shards, self.seed, drop
        )
        store.initialize(key, len(shards))
        # One timeline: store publishes + supervision.
        campaign = _Campaign(shards, n_patterns, drop, store.events)
        events = campaign.events
        pending = campaign.pending
        done = store.done_indices()
        pending.extend(
            (index, 0, 0.0) for index in range(len(shards)) if index not in done
        )

        running: List[_Slot] = []
        faults_total = sum(len(shard) for shard in shards)
        state = {
            "done": len(done),    # shards with a result in the store
            "wins": 0,            # store.publish calls that won first-write
            "graded_faults": 0,   # faults graded by this run
        }

        # The good response is only computed when this run actually
        # grades something: a re-run of a finished campaign pays nothing
        # but the merge.
        good_state: Dict[str, object] = {}

        def good_chunks():
            if "chunks" not in good_state:
                t0 = time.perf_counter()
                parallel = simulator.parallel
                passes0 = parallel.evaluations
                good_state["chunks"] = simulator.good_response(patterns)
                good_state["words"] = (
                    (parallel.evaluations - passes0) * parallel.num_scheduled
                )
                good_state["seconds"] = time.perf_counter() - t0
            return good_state["chunks"]

        def record(shard_record: Dict[str, object], source: str,
                   attempt: int) -> None:
            index = shard_record["index"]
            campaign.note(index, source, attempt)
            state["graded_faults"] += len(shard_record["firsts"])
            worker_payload = shard_record["stats"].get("worker_events")
            if worker_payload:
                # Stitch the worker's timeline here: the published store
                # record keeps only the deterministic stats, so this is
                # the only place the per-attempt events survive.
                events.ingest(worker_payload)
            if store.publish(shard_record):
                state["wins"] += 1
            state["done"] += 1
            events.emit(
                HEARTBEAT, "progress",
                partition=index,
                faults_graded=state["graded_faults"],
                faults_total=faults_total,
                partitions_done=state["done"],
                partitions_total=len(shards),
            )

        def poison(slot: _Slot, reason: str) -> None:
            self._finish_poisoned(
                simulator, good_chunks(), campaign, slot.index, slot.attempt,
                reason, record,
            )

        try:
            while running or pending:
                now = time.monotonic()
                for slot in list(running):
                    outcome = self._poll_slot(slot, now)
                    if outcome is None:
                        continue
                    running.remove(slot)
                    self._handle_outcome(slot, outcome, campaign, record, poison)

                now = time.monotonic()
                pending.sort(key=lambda item: (item[2], item[0]))
                while len(running) < jobs and pending and pending[0][2] <= now:
                    index, attempt, _ = pending.pop(0)
                    running.append(
                        self._spawn(
                            simulator, campaign, index, attempt, good_chunks()
                        )
                    )
                # Wake as soon as a worker reports or dies.
                wait(
                    [slot.conn for slot in running]
                    + [slot.process.sentinel for slot in running],
                    WAIT_S,
                )
        except BaseException:
            # KeyboardInterrupt or anything else: reap children and flush
            # telemetry; every shard already published stays durable.
            self._terminate(running)
            store.write_events()
            raise
        store.write_events()

        # Merge exclusively from the store's published bytes — shards this
        # run graded included — so a resumed merge equals a clean one.
        # Each record is read by position against its shard; undetected
        # faults keep the universe's order, as in process.
        records = store.load_results()
        result = FaultSimResult(total_faults=len(universe))
        detected = result.detected
        for index, shard_record in records.items():
            # Digests catch bit rot; this catches a record that no longer
            # grades its shard (a consistent rewrite of a result file).
            reason = (
                validate_partial(shard_record, shards[index], n_patterns)
                if index < len(shards)
                else "no such shard"
            )
            if reason is not None:
                raise StoreCorruptionError(
                    f"shard {index}: published result does not grade its "
                    f"shard ({reason}) — refusing to merge"
                )
            campaign.sources.setdefault(index, "store")
            for fault, first in zip(shards[index], shard_record["firsts"]):
                if first >= 0:
                    detected[fault] = first
            result.patterns_simulated = max(
                result.patterns_simulated, shard_record["patterns_simulated"]
            )
        result.undetected = [f for f in universe if f not in detected]
        if not drop:
            result.patterns_simulated = n_patterns
        campaign.counters["publish_conflicts"] = store.publish_conflicts
        self._fill_stats(
            result, records, campaign, jobs,
            good_state.get("seconds", 0.0), good_state.get("words", 0),
            start_time, simulator,
        )
        graded_here = sum(
            1 for source in campaign.sources.values() if source != "store"
        )
        result.stats["store"] = {
            "path": store.root,
            "n_shards": len(shards),
            "shards_graded_here": graded_here,
            "published": state["wins"],
            "publish_conflicts": store.publish_conflicts,
            # An empty campaign has no shards an earlier run could have
            # finished.
            "already_complete": (
                bool(shards) and graded_here == 0 and len(records) >= len(shards)
            ),
        }
        return result

    # ------------------------------------------------------------------
    # Process plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _context():
        # fork shares the parent's simulator and good response for free.
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    @staticmethod
    def _reap(slot: _Slot, kill: bool = False) -> None:
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=5.0)
        if slot.process.is_alive():  # pragma: no cover - stuck in kernel
            slot.process.terminate()
            slot.process.join(timeout=1.0)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _terminate(self, running: List[_Slot]) -> None:
        for slot in running:
            self._reap(slot, kill=True)
        running.clear()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def _fill_stats(
        self, result, records, campaign, jobs, good_seconds, good_words,
        start_time, simulator,
    ) -> None:
        per_partition: List[Dict[str, object]] = []
        metrics_lost = campaign.metrics_lost
        for index in sorted(records):
            stats = records[index]["stats"]
            firsts = records[index]["firsts"]
            row = {
                "partition": index,
                "faults": len(campaign.shards[index]),
                "detected": sum(1 for first in firsts if first >= 0),
                "events_propagated": stats.get("events_propagated", 0),
                "words_evaluated": stats.get("words_evaluated", 0),
                "wall_time_s": stats.get("wall_time_s", 0.0),
                "source": campaign.sources.get(index, "worker"),
                "attempts": campaign.attempts_used.get(index, 1),
            }
            if metrics_lost.get(index):
                # Timeout-killed / crashed attempts did work whose
                # metrics never arrived: state it, don't hide it.
                row["metrics_lost_attempts"] = metrics_lost[index]
            per_partition.append(row)
        walls = [p["wall_time_s"] for p in per_partition if p["wall_time_s"] > 0]
        imbalance = (max(walls) / (sum(walls) / len(walls))) if walls else 1.0
        total_lost = sum(metrics_lost.values())
        result.stats.update(
            engine=self.name,
            jobs=jobs,
            seed=self.seed,
            word_width=simulator.word_width,
            kernel=simulator.kernel,
            faults_simulated=result.total_faults,
            n_partitions=len(campaign.shards),
            partitions=per_partition,
            events_propagated=sum(p["events_propagated"] for p in per_partition),
            words_evaluated=good_words
            + sum(p["words_evaluated"] for p in per_partition),
            load_imbalance=round(imbalance, 3),
            good_response_s=good_seconds,
            wall_time_s=time.perf_counter() - start_time,
            **campaign.counters,
        )
        if total_lost:
            result.stats["metrics_lost_attempts"] = total_lost
            result.stats["metrics_lower_bound"] = True
        if len(campaign.events):
            # Worker logs were stitched into the supervisor's timeline as
            # they arrived, so one payload carries the whole run.
            result.stats["events"] = [campaign.events.to_payload()]
        if campaign.failed:
            result.stats["failed_partitions"] = campaign.failed
            result.stats["coverage_lower_bound"] = result.coverage
