"""Supervised multiprocess fault simulation over a shard store.

:class:`SupervisedPoolBackend` runs deterministic shards (seeded
partitioning from :mod:`repro.sim.dispatch`, merged by position, so a
supervised run is bit-identical to ``ppsfp``) in worker processes, one
process per shard and at most ``jobs`` at a time, and publishes each
shard's record to a :class:`repro.sim.store.ShardStore` as it arrives.
A campaign has one recovery path, and it runs *between* runs:

* **result validation** — a shard record must hold one int in
  ``[-1, n_patterns)`` per shard fault, checked on arrival (a damaged
  record is never published) and on every record loaded for the merge;
* **stop on failure** — a worker that dies, reports an exception, or
  sends a record that fails validation fails its shard.  The supervisor
  reaps the other workers, writes the store's event file and raises
  :class:`ShardFailedError`, naming the shard and the reason; nothing
  is retried within the run;
* **resume** — every shard published before a failure, an interrupt or
  a kill stays durable in the store, and re-running the same campaign
  against the same store grades only the shards with no result, so the
  resumed merge is bit-identical to a clean run's.

There is one driver: every campaign runs over a shard store.  A caller
that passes none gets a private one in a temporary directory (on tmpfs
where the host has it), removed on every exit path.  Every shard is
graded by :func:`_grade_shard` on the caller's compiled simulator,
which workers inherit with the good response by ``fork`` copy-on-write,
into one positional record (:mod:`repro.sim.store`) that travels
unchanged from the worker's pipe to the store and into the merge.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..faults.model import StuckAtFault
from ..obs.events import CRASH, HEARTBEAT, PARTITION_BEGIN, PARTITION_END, EventLog
from .dispatch import (
    default_partition_count,
    partition_faults,
    validate_pool_args,
)
from .faultsim import FaultSimResult, unique_faults
from .store import CampaignKey, ShardStore, StoreCorruptionError

#: Name prefix of the private store directory a run without ``store=``
#: creates and always removes.
PRIVATE_STORE_PREFIX = "repro-campaign-"


class ShardFailedError(RuntimeError):
    """A shard's worker died, reported an exception, or sent a record
    that does not grade its shard.  The run stopped; every shard it
    published stays in the store, and a re-run against the same store
    grades only the shards with no result."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"shard {index} failed: {reason}")
        self.index = index
        self.reason = reason


def validate_partial(
    record: Dict[str, object],
    shard: Sequence[StuckAtFault],
    n_patterns: int,
) -> Optional[str]:
    """Structural validity of a shard record, or a reason.

    The contract: one first-detection entry per shard fault, each an int
    in ``[-1, n_patterns)``.  A crashed-and-restarted or byte-corrupted
    worker cannot satisfy this by accident, so validation turns silent
    corruption into a failed shard.
    """
    firsts = record["firsts"]
    if len(firsts) != len(shard):
        return f"{len(firsts)} first-detection entries for {len(shard)} shard faults"
    for first in firsts:
        if type(first) is not int or not -1 <= first < n_patterns:
            return f"first-detection index {first!r} out of range"
    return None


def _grade_shard(simulator, index, shard, drop, good_chunks,
                 n_patterns) -> Dict[str, object]:
    """Grade one shard into its record: cone propagation over
    ``good_chunks`` (bigint words, so the simulator's cache and kernel
    go untouched)."""
    partial = simulator._simulate_ppsfp(
        None, shard, drop, good_chunks=good_chunks, n_patterns=n_patterns
    )
    detected = partial.detected
    return {
        "index": index,
        "patterns_simulated": partial.patterns_simulated,
        "firsts": [detected.get(fault, -1) for fault in shard],
        "stats": partial.stats,
    }


def _supervised_worker(conn, simulator, index, shard, drop, good_chunks,
                       n_patterns) -> None:
    """Worker entry: grade one shard, send (status, payload), exit.

    Any exception is reported as an ``error`` message, so the supervisor
    learns why the shard failed.
    """
    try:
        log = EventLog()
        log.emit(PARTITION_BEGIN, "partition", partition=index, faults=len(shard))
        record = _grade_shard(
            simulator, index, shard, drop, good_chunks, n_patterns
        )
        log.emit(
            PARTITION_END, "partition", partition=index,
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
    process: multiprocessing.process.BaseProcess
    conn: object


class SupervisedPoolBackend:
    """Multiprocess PPSFP over deterministic partitions.

    ``jobs`` (worker processes, default: CPU count), ``seed`` (the
    partitioning shuffle) and ``partitions`` (default: sized from the
    fault universe) never change the merged result, which is
    bit-identical to ``ppsfp``.  A failed shard stops the run with
    :class:`ShardFailedError`; with ``store=`` a re-run resumes from the
    store's published shards.  Without ``store=`` it runs over a private
    temporary store.
    """

    name = "supervised"

    def __init__(
        self,
        jobs: Optional[int] = None,
        seed: int = 0,
        partitions: Optional[int] = None,
        store: Optional[ShardStore] = None,
    ):
        validate_pool_args(jobs=jobs, seed=seed, partitions=partitions)
        self.jobs = jobs
        self.seed = seed
        self.partitions = partitions
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

    def _spawn(self, simulator, shards, index, drop, good_chunks, n_patterns):
        """Start one worker process for one shard.

        ``simulator`` and ``good_chunks`` reach the worker free under
        ``fork`` (copy-on-write), pickled through the process args on
        platforms without it (the simulator then recompiles there).
        """
        context = self._context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(
                child_conn, simulator, index, shards[index], drop,
                good_chunks, n_patterns,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Slot(index, process, parent_conn)

    def _poll_slot(self, slot: _Slot) -> Optional[Dict[str, object]]:
        """One look at a running worker: ``None`` while it runs, else the
        record it sent.  A worker that died or reported an error fails
        its shard."""
        # Liveness first: a worker that sends its result and exits between
        # the two checks must be read, not reported dead.
        alive = slot.process.is_alive()
        if slot.conn.poll():
            try:
                status, payload = slot.conn.recv()
            except (EOFError, OSError):  # closed without a result: died
                status, payload = None, None
            self._reap(slot)
            if status == "ok":
                return payload
            if status == "error":
                raise ShardFailedError(slot.index, f"worker error: {payload}")
        elif alive:
            return None
        else:
            self._reap(slot)
        raise ShardFailedError(
            slot.index, f"worker died (exit code {slot.process.exitcode})"
        )

    # ------------------------------------------------------------------
    # The driver: one loop over a shard store (resume)
    # ------------------------------------------------------------------

    def _run_store(self, store, simulator, patterns, faults, drop):
        """Execute one campaign over a shard store.

        Every shard with no published result is graded, in index order,
        and published the moment it is graded — so a re-run against a
        store that a failed or killed run partly filled grades only what
        is missing.  Two properties are load-bearing:

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
        events = store.events
        done = store.done_indices()
        pending = [index for index in range(len(shards)) if index not in done]
        running: List[_Slot] = []
        graded_here: List[int] = []
        faults_total = sum(len(shard) for shard in shards)
        state = {
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

        def record(shard_record: Dict[str, object]) -> None:
            index = shard_record["index"]
            graded_here.append(index)
            state["graded_faults"] += len(shard_record["firsts"])
            # Stitch the worker's timeline here: the published store
            # record keeps only the deterministic stats, so this is the
            # only place its events survive.
            events.ingest(shard_record["stats"].get("worker_events"))
            if store.publish(shard_record):
                state["wins"] += 1
            events.emit(
                HEARTBEAT, "progress",
                partition=index,
                faults_graded=state["graded_faults"],
                faults_total=faults_total,
                partitions_done=len(done) + len(graded_here),
                partitions_total=len(shards),
            )

        try:
            while running or pending:
                for slot in list(running):
                    shard_record = self._poll_slot(slot)
                    if shard_record is None:
                        continue
                    running.remove(slot)
                    reason = validate_partial(
                        shard_record, shards[slot.index], n_patterns
                    )
                    if reason is not None:
                        raise ShardFailedError(
                            slot.index, f"invalid result: {reason}"
                        )
                    record(shard_record)
                while len(running) < jobs and pending:
                    running.append(
                        self._spawn(
                            simulator, shards, pending.pop(0), drop,
                            good_chunks(), n_patterns,
                        )
                    )
                # Wake as soon as a worker reports or dies.
                if running:
                    wait(
                        [slot.conn for slot in running]
                        + [slot.process.sentinel for slot in running]
                    )
        except BaseException as exc:
            # A failed shard, Ctrl-C or anything else: reap the children
            # and flush telemetry; every shard already published stays
            # durable for a resume.
            self._terminate(running)
            if isinstance(exc, ShardFailedError):
                events.emit(
                    CRASH, "shard_failed",
                    partition=exc.index, reason=exc.reason[:200],
                )
                # No result will carry the timeline home, so hand it to
                # the observation directly: a trace shows where the run
                # stopped.
                observation = obs.current()
                if observation is not None:
                    observation.merge_events(events.to_payload())
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
            for fault, first in zip(shards[index], shard_record["firsts"]):
                if first >= 0:
                    detected[fault] = first
            result.patterns_simulated = max(
                result.patterns_simulated, shard_record["patterns_simulated"]
            )
        result.undetected = [f for f in universe if f not in detected]
        if not drop:
            result.patterns_simulated = n_patterns
        self._fill_stats(
            result, records, shards, set(graded_here), events, jobs,
            good_state.get("seconds", 0.0), good_state.get("words", 0),
            start_time, simulator,
        )
        result.stats["store"] = {
            "path": store.root,
            "n_shards": len(shards),
            "shards_graded_here": len(graded_here),
            "published": state["wins"],
            "publish_conflicts": store.publish_conflicts,
            # An empty campaign has no shards an earlier run could have
            # finished.
            "already_complete": (
                bool(shards) and not graded_here and len(records) >= len(shards)
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
        self, result, records, shards, graded_here, events, jobs,
        good_seconds, good_words, start_time, simulator,
    ) -> None:
        per_partition: List[Dict[str, object]] = []
        for index in sorted(records):
            stats = records[index]["stats"]
            firsts = records[index]["firsts"]
            per_partition.append({
                "partition": index,
                "faults": len(shards[index]),
                "detected": sum(1 for first in firsts if first >= 0),
                "events_propagated": stats.get("events_propagated", 0),
                "words_evaluated": stats.get("words_evaluated", 0),
                "wall_time_s": stats.get("wall_time_s", 0.0),
                "source": "worker" if index in graded_here else "store",
            })
        walls = [p["wall_time_s"] for p in per_partition if p["wall_time_s"] > 0]
        imbalance = (max(walls) / (sum(walls) / len(walls))) if walls else 1.0
        result.stats.update(
            engine=self.name,
            jobs=jobs,
            seed=self.seed,
            word_width=simulator.word_width,
            kernel=simulator.kernel,
            faults_simulated=result.total_faults,
            n_partitions=len(shards),
            partitions=per_partition,
            events_propagated=sum(p["events_propagated"] for p in per_partition),
            words_evaluated=good_words
            + sum(p["words_evaluated"] for p in per_partition),
            load_imbalance=round(imbalance, 3),
            good_response_s=good_seconds,
            wall_time_s=time.perf_counter() - start_time,
        )
        if len(events):
            # Worker logs were stitched into the supervisor's timeline as
            # they arrived, so one payload carries the whole run.
            result.stats["events"] = [events.to_payload()]
