"""Lease-based shared shard store: multi-runner campaigns on one directory.

The supervised backend made one *process pool* crash-tolerant; a
production test floor runs one campaign across many *hosts* and keeps
going when a host dies mid-shard.  :class:`ShardStore` is the shared
substrate that makes that possible with nothing but a directory (NFS
mount, bind mount, tmpfs — anything with atomic ``rename``/``link``).
It is also the one checkpoint/resume format: re-running a killed or
interrupted campaign against the same directory merges every shard
already published and grades only the rest, bit-identically.

* the campaign's identity is a :class:`CampaignKey` (structural
  signature + pattern/fault digests + seed + partition count + drop
  flag), pinned once in ``campaign.json`` and verified by every runner
  that attaches — a runner submitting a different circuit or pattern
  set is rejected up front, never silently mis-merged;
* each shard moves through ``available -> leased(runner, deadline) ->
  done``.  Claims are atomic (``link(2)`` from a private temp file, which
  fails with ``EEXIST`` if any other runner holds the lease); renewals
  atomically replace the lease file; expired leases — and leases left
  under this runner's own id by an earlier, dead incarnation — are
  **stolen** by renaming the stale file aside — of N racing stealers
  exactly one rename succeeds;
* results are **append-only and idempotent**: a shard result is written
  to a temp file, fsynced, then ``link``ed to its final name, so the
  first writer wins and every later writer (a stalled runner racing its
  own stolen shard) verifies its bytes carry the same digest and
  converges.  Fault simulation is deterministic, so a double-graded
  shard *must* digest-match; a mismatch means corruption and raises.

The worst interleaving — a steal racing a slow writer whose renewal
clobbers the stealer's lease — can transiently double-*lease* a shard,
but never double-*grade* it into a merge: the merge reads each shard's
single result file, and first-write-wins decided which bytes those are.

Directory layout::

    store/
      campaign.json          # CampaignKey + shard count (atomic create)
      shards/NNNNN.lease     # live lease  (link-claimed, rename-renewed)
      shards/NNNNN.result    # done marker (link-published, digest-carrying)
      events/<runner>.jsonl  # per-runner telemetry (obs EventLog side files)

``repro obs tail STORE_DIR`` renders the live per-runner ownership map
from exactly these files (:func:`read_store_progress`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Sequence, Set

from ..faults.model import StuckAtFault
from ..obs.events import (
    LEASE_CLAIM,
    LEASE_LOST,
    LEASE_RENEW,
    LEASE_STEAL,
    PUBLISH,
    PUBLISH_CONFLICT,
    EventLog,
)
from .faultsim import FaultSimResult

STORE_VERSION = 1

#: Renew a held lease once less than this fraction of ``lease_s`` remains.
RENEW_FRACTION = 0.5

#: Per-shard stats fields preserved in a published result: the work
#: counters the supervised run sums into its ``stats`` and the wall time
#: its ``partitions`` rows report.
_KEPT_STATS = ("events_propagated", "words_evaluated", "wall_time_s")


#: ``bytes.translate`` table mapping each byte ``b`` to ``b & 1``.
_LOW_BIT = bytes(b & 1 for b in range(256))


def pattern_digest(patterns: Sequence[Sequence[int]]) -> str:
    """Stable digest of a pattern set (order- and value-sensitive).

    Hashes one byte ``int(bit) & 1`` per bit.  The common case (ints and
    bools in 0-255) packs a whole pattern in C; anything else falls back
    to the per-bit loop, which gives the same bytes.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{len(patterns)}:".encode())
    for pattern in patterns:
        try:
            # list() first: bytes() of a buffer (a numpy row) would copy
            # its raw memory instead of one byte per bit.
            row = bytes(list(pattern)).translate(_LOW_BIT)
        except (TypeError, ValueError):
            row = bytes(int(bit) & 1 for bit in pattern)
        hasher.update(row)
        hasher.update(b";")
    return hasher.hexdigest()[:24]


def fault_digest(faults: Iterable[StuckAtFault]) -> str:
    """Stable digest of a fault universe (order-insensitive)."""
    hasher = hashlib.sha256()
    for gate, pin, value in sorted((f.gate, f.pin, f.value) for f in faults):
        hasher.update(f"{gate},{pin},{value};".encode())
    return hasher.hexdigest()[:24]


@dataclass(frozen=True)
class CampaignKey:
    """Identity of one shardable campaign; a store is pinned to one key."""

    signature: str
    patterns: str
    faults: str
    seed: int
    partitions: int
    drop: bool

    @classmethod
    def build(
        cls,
        netlist,
        patterns: Sequence[Sequence[int]],
        universe: Iterable[StuckAtFault],
        seed: int,
        partitions: int,
        drop: bool,
    ) -> "CampaignKey":
        return cls(
            signature=netlist.structural_signature(),
            patterns=pattern_digest(patterns),
            faults=fault_digest(universe),
            seed=seed,
            partitions=partitions,
            drop=drop,
        )


def serialize_partial(index: int, partial: FaultSimResult) -> Dict[str, object]:
    """JSON-safe form of one shard result.

    Stuck-at faults serialize as ``[gate, pin, value]`` triples — the
    frozen dataclass round-trips losslessly through :class:`StuckAtFault`.
    """
    return {
        "kind": "partition",
        "index": index,
        "total": partial.total_faults,
        "patterns_simulated": partial.patterns_simulated,
        "detected": [
            [f.gate, f.pin, f.value, first]
            for f, first in sorted(
                partial.detected.items(), key=lambda kv: (kv[0].gate, kv[0].pin, kv[0].value)
            )
        ],
        "undetected": [[f.gate, f.pin, f.value] for f in partial.undetected],
        "stats": {
            k: partial.stats[k] for k in _KEPT_STATS if k in partial.stats
        },
    }


def deserialize_partial(line: Dict[str, object]) -> FaultSimResult:
    """Rebuild a :class:`FaultSimResult` from :func:`serialize_partial` output."""
    partial = FaultSimResult(total_faults=int(line["total"]))
    for gate, pin, value, first in line["detected"]:
        partial.detected[StuckAtFault(gate, pin, value)] = int(first)
    partial.undetected = [
        StuckAtFault(gate, pin, value) for gate, pin, value in line["undetected"]
    ]
    partial.patterns_simulated = int(line["patterns_simulated"])
    partial.stats.update(line.get("stats", {}))
    return partial


class StoreMismatchError(ValueError):
    """The store directory belongs to a different campaign."""


class StoreCorruptionError(RuntimeError):
    """Two writers produced different bytes for one shard — determinism
    is broken (or the store was tampered with); never merge past this."""


def validate_store_args(
    runner_id: str = "runner", lease_s: float = 30.0
) -> None:
    """Reject nonsensical store arguments with actionable messages.

    ``runner_id`` names lease ownership and event files, so it must be a
    short filesystem-safe token; ``lease_s`` is the heartbeat deadline —
    nonpositive values would make every lease stealable at birth, and an
    infinite (or NaN) one would make a dead runner's leases unstealable.
    """
    if not isinstance(runner_id, str) or not runner_id:
        raise ValueError(f"runner_id must be a non-empty string, got {runner_id!r}")
    if len(runner_id) > 64:
        raise ValueError(
            f"runner_id must be at most 64 characters, got {len(runner_id)}"
        )
    safe = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
    if not set(runner_id) <= safe:
        raise ValueError(
            f"runner_id {runner_id!r} may only contain letters, digits, "
            f"'.', '_' and '-' (it names files in the store)"
        )
    if not isinstance(lease_s, (int, float)) or not 0 < lease_s < math.inf:
        raise ValueError(
            f"lease_s must be a finite positive number, got {lease_s!r}"
        )


def result_digest(serialized: Dict[str, object]) -> str:
    """Digest of one serialized shard result's *deterministic* content.

    Stats (wall times, metrics) legitimately differ between two runners
    grading the same shard; the detection map, undetected list, and
    counts must not.  The digest covers only the latter, so idempotent
    publishes digest-match and true divergence is caught.
    """
    content = {
        k: serialized[k]
        for k in ("index", "total", "patterns_simulated", "detected", "undetected")
    }
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class Lease:
    """One runner's time-bounded claim on one shard."""

    shard: int
    runner: str
    deadline: float  # wall-clock expiry (store clock)
    claimed_at: float
    stolen_from: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "shard": self.shard,
            "runner": self.runner,
            "deadline": self.deadline,
            "claimed_at": self.claimed_at,
        }
        if self.stolen_from:
            payload["stolen_from"] = self.stolen_from
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Lease":
        return cls(
            shard=int(payload["shard"]),
            runner=str(payload["runner"]),
            deadline=float(payload["deadline"]),
            claimed_at=float(payload.get("claimed_at", 0.0)),
            stolen_from=payload.get("stolen_from"),
        )


class ShardStore:
    """One runner's handle on a shared campaign directory.

    Every mutation uses only atomic filesystem primitives (``link``,
    ``rename``, ``O_EXCL``-equivalent temp-file dances), so N runner
    processes on N hosts can share one store with no coordinator and no
    locks.  ``clock`` is injectable for the lease-lifecycle property
    tests; production uses wall time, which is what lease deadlines must
    survive host reboots on.
    """

    def __init__(
        self,
        root: str,
        runner_id: str = "runner",
        lease_s: float = 30.0,
        clock: Callable[[], float] = time.time,
    ):
        validate_store_args(runner_id=runner_id, lease_s=lease_s)
        self.root = str(root)
        self.runner_id = runner_id
        self.lease_s = float(lease_s)
        self.clock = clock
        self.events = EventLog()
        self.steals = 0
        self.publish_conflicts = 0
        self._n_shards: Optional[int] = None
        # Shards this handle holds a lease on.  A lease file under our own
        # runner id that is *not* in here belongs to an earlier incarnation
        # of this runner (killed before it could release) — see try_claim.
        self._held: Set[int] = set()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def _campaign_path(self) -> str:
        return os.path.join(self.root, "campaign.json")

    @property
    def _shards_dir(self) -> str:
        return os.path.join(self.root, "shards")

    @property
    def _events_dir(self) -> str:
        return os.path.join(self.root, "events")

    def _lease_path(self, shard: int) -> str:
        return os.path.join(self._shards_dir, f"{shard:05d}.lease")

    def _result_path(self, shard: int) -> str:
        return os.path.join(self._shards_dir, f"{shard:05d}.result")

    def _tmp_path(self, tag: str) -> str:
        return os.path.join(
            self._shards_dir, f".tmp-{tag}-{self.runner_id}-{os.getpid()}"
        )

    # ------------------------------------------------------------------
    # Campaign identity
    # ------------------------------------------------------------------

    def initialize(self, key: CampaignKey, n_shards: int) -> bool:
        """Create the store for ``key`` or attach to an existing one.

        The first runner to arrive pins the campaign identity; every
        later runner verifies its own key against the pinned one and gets
        a field-by-field :class:`StoreMismatchError` on any difference —
        a wrong circuit, pattern file, seed, or partition count must die
        loudly here, never silently mis-merge shards from two campaigns.
        Returns True when this call created the store.
        """
        if not isinstance(n_shards, int) or n_shards < 0:
            raise ValueError(f"n_shards must be a non-negative int, got {n_shards!r}")
        os.makedirs(self._shards_dir, exist_ok=True)
        os.makedirs(self._events_dir, exist_ok=True)
        payload = {
            "version": STORE_VERSION,
            "key": {
                field: getattr(key, field) for field in key.__dataclass_fields__
            },
            "n_shards": n_shards,
        }
        tmp = self._tmp_path("campaign")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        created = True
        try:
            os.link(tmp, self._campaign_path)
        except FileExistsError:
            created = False
        finally:
            os.unlink(tmp)
        if not created:
            self._verify(key, n_shards)
        self._n_shards = n_shards
        return created

    def _verify(self, key: CampaignKey, n_shards: int) -> None:
        with open(self._campaign_path) as handle:
            existing = json.load(handle)
        pinned = existing.get("key", {})
        mine = {field: getattr(key, field) for field in key.__dataclass_fields__}
        mismatched = sorted(
            field for field in mine if pinned.get(field) != mine[field]
        )
        if existing.get("n_shards") != n_shards:
            mismatched.append("n_shards")
        if mismatched:
            raise StoreMismatchError(
                f"store {self.root!r} belongs to a different campaign: "
                f"{', '.join(mismatched)} differ(s) — the circuit, pattern "
                f"file, fault universe, seed, partition count, and drop flag "
                f"must all match the run that created the store"
            )

    def attach(self) -> Dict[str, object]:
        """Read the pinned campaign record (for tail/tooling)."""
        with open(self._campaign_path) as handle:
            payload = json.load(handle)
        self._n_shards = int(payload["n_shards"])
        return payload

    @property
    def n_shards(self) -> int:
        if self._n_shards is None:
            self.attach()
        return self._n_shards

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------

    def _read_lease(self, shard: int) -> Optional[Lease]:
        try:
            with open(self._lease_path(shard)) as handle:
                return Lease.from_dict(json.load(handle))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, ValueError):
            # A torn lease (host died mid-write before the atomic link —
            # impossible for claims, possible only via tampering): treat
            # as expired so someone reclaims the shard.
            return Lease(shard=shard, runner="?", deadline=0.0, claimed_at=0.0)

    def _write_lease_file(self, lease: Lease, tag: str) -> str:
        tmp = self._tmp_path(f"{tag}-{lease.shard}")
        with open(tmp, "w") as handle:
            json.dump(lease.to_dict(), handle)
            handle.flush()
            os.fsync(handle.fileno())
        return tmp

    def try_claim(self, shard: int) -> Optional[Lease]:
        """Attempt to move ``shard`` from available/expired to leased.

        Returns the new lease, or None when the shard is done, held by a
        live peer, or lost to a racing claimer.  Stealing an expired
        lease first renames it aside — exactly one of N racing stealers
        wins the rename; the losers see ``FileNotFoundError`` and back
        off.  The eviction *is* the steal (counted and emitted as one)
        even if the follow-up claim is then lost to a racing peer: the
        dead runner's lease is gone either way, and the telemetry must
        show who removed it.

        A runner reattaching under its own id reclaims its previous
        incarnation's leases at once instead of waiting out their
        deadlines: a lease carrying this runner id that this handle does
        not hold can only have been left by a runner that died.  Should
        two live processes share one id, both grade the shard and the
        duplicate publish converges first-write-wins.
        """
        if self.is_done(shard):
            return None
        holder = self._read_lease(shard)
        stolen_from: Optional[str] = None
        if holder is not None:
            orphaned = holder.runner == self.runner_id and shard not in self._held
            if holder.deadline > self.clock() and not orphaned:
                return None  # live peer, or our own live lease
            stale = self._tmp_path(f"stale-{shard}")
            try:
                os.rename(self._lease_path(shard), stale)
            except FileNotFoundError:
                return None  # another stealer won, or holder released
            os.unlink(stale)
            stolen_from = holder.runner
            self.steals += 1
            self.events.emit(
                LEASE_STEAL, "lease_steal", partition=shard,
                runner=self.runner_id, stolen_from=stolen_from,
            )
        now = self.clock()
        lease = Lease(
            shard=shard,
            runner=self.runner_id,
            deadline=now + self.lease_s,
            claimed_at=now,
            stolen_from=stolen_from,
        )
        tmp = self._write_lease_file(lease, "claim")
        try:
            os.link(tmp, self._lease_path(shard))
        except FileExistsError:
            return None  # lost the claim race to a peer
        finally:
            os.unlink(tmp)
        self._held.add(shard)
        self.events.emit(
            LEASE_CLAIM, "lease_claim", partition=shard, runner=self.runner_id
        )
        return lease

    def renew(self, lease: Lease) -> Optional[Lease]:
        """Extend a held lease's deadline; None if it was stolen.

        The read-then-rename is not atomic: a steal landing in between
        means this renewal clobbers the stealer's lease and both runners
        grade the shard.  That is the documented worst case — the double
        grade converges at :meth:`publish` via first-write-wins, and the
        shard is still counted exactly once in any merge.
        """
        current = self._read_lease(lease.shard)
        if current is None or current.runner != self.runner_id:
            self._held.discard(lease.shard)
            self.events.emit(
                LEASE_LOST, "lease_lost", partition=lease.shard,
                runner=self.runner_id,
                new_holder=current.runner if current else None,
            )
            return None
        renewed = replace(lease, deadline=self.clock() + self.lease_s)
        tmp = self._write_lease_file(renewed, "renew")
        os.replace(tmp, self._lease_path(lease.shard))
        self.events.emit(
            LEASE_RENEW, "lease_renew", partition=lease.shard,
            runner=self.runner_id,
        )
        return renewed

    def needs_renewal(self, lease: Lease) -> bool:
        return lease.deadline - self.clock() < self.lease_s * RENEW_FRACTION

    def release(self, lease: Lease) -> None:
        """Drop a held lease (after publish, or when giving up a shard)."""
        self._held.discard(lease.shard)
        current = self._read_lease(lease.shard)
        if current is not None and current.runner == self.runner_id:
            try:
                os.unlink(self._lease_path(lease.shard))
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Results: append-only, first-write-wins, digest-verified
    # ------------------------------------------------------------------

    def publish(self, shard: int, partial: FaultSimResult) -> bool:
        """Durably record ``shard``'s result; True if this write won.

        The serialized result is fsynced in a private temp file and then
        ``link``ed to its final name — atomic, so no reader ever sees a
        half-written result.  A loser (idempotent duplicate from a steal
        race or a late partition-window flush) verifies the winner's digest matches
        its own and converges silently; a digest mismatch is corruption
        and raises :class:`StoreCorruptionError`.
        """
        serialized = serialize_partial(shard, partial)
        digest = result_digest(serialized)
        payload = {
            "version": STORE_VERSION,
            "runner": self.runner_id,
            "digest": digest,
            "t_wall": self.clock(),
            "partial": serialized,
        }
        tmp = self._tmp_path(f"result-{shard}")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        won = True
        try:
            os.link(tmp, self._result_path(shard))
        except FileExistsError:
            won = False
        finally:
            os.unlink(tmp)
        # The shard is done; drop our own lease on it (a peer's lease —
        # e.g. a stealer we raced — is theirs to drop when *they* publish).
        self._held.discard(shard)
        current = self._read_lease(shard)
        if current is not None and current.runner == self.runner_id:
            try:
                os.unlink(self._lease_path(shard))
            except FileNotFoundError:
                pass
        if won:
            self.events.emit(
                PUBLISH, "publish", partition=shard,
                runner=self.runner_id, digest=digest,
            )
            return True
        existing = self._read_result(shard)
        if existing["digest"] != digest:
            raise StoreCorruptionError(
                f"shard {shard}: runner {self.runner_id!r} graded digest "
                f"{digest} but {existing['runner']!r} published "
                f"{existing['digest']} — deterministic simulation cannot "
                f"diverge; refusing to merge"
            )
        self.publish_conflicts += 1
        self.events.emit(
            PUBLISH_CONFLICT, "publish_conflict", partition=shard,
            runner=self.runner_id, winner=existing["runner"],
        )
        return False

    def _read_result(self, shard: int) -> Dict[str, object]:
        with open(self._result_path(shard)) as handle:
            return json.load(handle)

    def is_done(self, shard: int) -> bool:
        return os.path.exists(self._result_path(shard))

    def done_indices(self) -> Set[int]:
        try:
            entries = os.listdir(self._shards_dir)
        except FileNotFoundError:
            return set()
        return {
            int(name.split(".")[0])
            for name in entries
            if name.endswith(".result")
        }

    def leases(self) -> Dict[int, Lease]:
        """All live lease files (expired ones included — callers decide)."""
        try:
            entries = os.listdir(self._shards_dir)
        except FileNotFoundError:
            return {}
        held: Dict[int, Lease] = {}
        for name in entries:
            if not name.endswith(".lease"):
                continue
            lease = self._read_lease(int(name.split(".")[0]))
            if lease is not None:
                held[lease.shard] = lease
        return held

    def load_results(self) -> Dict[int, FaultSimResult]:
        """Deserialize every published shard result, digest-verified.

        Every runner merges from these same bytes — including shards it
        graded itself — so all runners' merged results are bit-identical
        by construction.
        """
        results: Dict[int, FaultSimResult] = {}
        for shard in sorted(self.done_indices()):
            payload = self._read_result(shard)
            serialized = payload["partial"]
            if result_digest(serialized) != payload["digest"]:
                raise StoreCorruptionError(
                    f"shard {shard}: stored digest {payload['digest']} does "
                    f"not match its content — result file corrupted"
                )
            partial = deserialize_partial(serialized)
            partial.stats["published_by"] = payload.get("runner")
            results[shard] = partial
        return results

    # ------------------------------------------------------------------
    # Completion hygiene
    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Remove lease files for shards that are already done.

        Called by whichever runner observes completion (all of them, in
        practice — sweeping is idempotent), so a finished campaign leaves
        zero leases behind even when a killed runner never released its
        own.  Returns the number of leases removed.
        """
        removed = 0
        for shard, _ in sorted(self.leases().items()):
            if self.is_done(shard):
                try:
                    os.unlink(self._lease_path(shard))
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def write_events(self) -> Optional[str]:
        """Persist this runner's event log into the store (postmortem aid)."""
        if not len(self.events):
            return None
        path = os.path.join(self._events_dir, f"{self.runner_id}.jsonl")
        return self.events.write_jsonl(path)


# ----------------------------------------------------------------------
# Progress view (repro obs tail STORE_DIR)
# ----------------------------------------------------------------------


def read_store_progress(root: str) -> Dict[str, object]:
    """Live per-runner ownership map of a store directory.

    Built for ``repro obs tail``: who holds which shard (and how long
    until the lease is stealable), who has published what, and how many
    steals the campaign has seen — all from the store's own files, no
    runner cooperation needed.
    """
    store = ShardStore(root, runner_id="tail.reader")
    campaign = store.attach()
    now = store.clock()
    done = store.done_indices()
    leases = {
        shard: lease for shard, lease in store.leases().items() if shard not in done
    }
    runners: Dict[str, Dict[str, object]] = {}

    def runner_row(name: str) -> Dict[str, object]:
        return runners.setdefault(
            name, {"published": 0, "faults_graded": 0, "held": [], "steals": 0}
        )

    faults_graded = 0
    detected = 0
    for shard in sorted(done):
        payload = store._read_result(shard)
        row = runner_row(str(payload.get("runner", "?")))
        row["published"] += 1
        partial = payload.get("partial", {})
        row["faults_graded"] += int(partial.get("total", 0))
        faults_graded += int(partial.get("total", 0))
        detected += len(partial.get("detected", ()))
    for shard, lease in sorted(leases.items()):
        runner_row(lease.runner)["held"].append(
            {"shard": shard, "expires_in_s": round(lease.deadline - now, 3)}
        )
    steals = 0
    events_dir = os.path.join(root, "events")
    if os.path.isdir(events_dir):
        from ..obs.events import read_jsonl

        for name in sorted(os.listdir(events_dir)):
            if not name.endswith(".jsonl"):
                continue
            for payload in read_jsonl(os.path.join(events_dir, name)):
                for event in payload.get("events", ()):
                    if event.get("kind") == LEASE_STEAL:
                        steals += 1
                        thief = (event.get("args") or {}).get("runner")
                        if thief:
                            runner_row(str(thief))["steals"] += 1
    n_shards = int(campaign.get("n_shards", 0))
    return {
        "path": str(root),
        "key": campaign.get("key"),
        "n_shards": n_shards,
        "partitions_done": sorted(done),
        "partitions_done_count": len(done),
        "partitions_total": n_shards,
        "leased": len(leases),
        "available": max(0, n_shards - len(done) - len(leases)),
        "faults_graded": faults_graded,
        "detected": detected,
        "runners": runners,
        "steals": steals,
        "complete": len(done) >= n_shards,
    }
