"""Shard store: the checkpoint/resume format of a supervised campaign.

One runner grades a campaign shard by shard and publishes every graded
shard to a plain directory.  Re-running a killed or interrupted campaign
against the same directory merges every shard already published and
grades only the rest, bit-identically.

* the campaign's identity is a :class:`CampaignKey` (structural
  signature + pattern digest + shard-plan digest + seed + partition
  count + drop flag), pinned once in ``campaign.json`` and verified on
  every re-run — a run submitting a different circuit, pattern set or
  fault order is rejected up front with a field-by-field
  :class:`StoreMismatchError`, never silently mis-merged;
* a shard result is one **positional record**: ``firsts[i]`` is the
  first pattern detecting the shard's ``i``-th fault, or -1.  Positions
  only mean something against the exact plan, hence the plan digest;
* results are **append-only and idempotent**: a shard result is written
  to a temp file, fsynced, then ``link``ed to its final name, so no
  reader ever sees a half-written result and the first writer wins.
  Fault simulation is deterministic, so a duplicate publish (two runners
  started on one store by mistake) *must* digest-match and converges; a
  mismatch means corruption and raises :class:`StoreCorruptionError`;
* every file carries the format ``version``; one of another version
  (the fault-triple version 1 included) raises
  :class:`StoreMismatchError` naming ``version``.

Directory layout::

    store/
      campaign.json          # version + CampaignKey + shard count (atomic create)
      shards/NNNNN.result    # version + digest + record (link-published)
      events.jsonl           # telemetry side file (obs EventLog blocks)

where a record is ``{"index", "patterns_simulated", "firsts", "stats"}``
and the digest covers its first three fields (``stats`` holds wall
times that legitimately differ between two gradings of one shard).
``repro obs tail STORE_DIR`` renders progress from exactly these files
(:func:`read_store_progress`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from ..faults.model import StuckAtFault
from ..obs.events import PUBLISH, PUBLISH_CONFLICT, EventLog
from .parallel import PackedPatterns

STORE_VERSION = 2

#: Per-shard stats fields preserved in a published result: the work
#: counters the supervised run sums into its ``stats`` and the wall time
#: its ``partitions`` rows report.
_KEPT_STATS = ("events_propagated", "words_evaluated", "wall_time_s")


#: ``bytes.translate`` table mapping each byte ``b`` to ``b & 1``.
_LOW_BIT = bytes(b & 1 for b in range(256))
#: ``bytes.translate`` table mapping ASCII ``0``/``1`` to bytes 0/1.
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def pattern_digest(patterns: Sequence[Sequence[int]]) -> str:
    """Stable digest of a pattern set (order- and value-sensitive).

    Hashes one byte ``int(bit) & 1`` per bit, then ``;``, per pattern.
    :class:`PackedPatterns` give the same bytes from one reverse
    transpose of their words, so a store is pinned to the pattern set,
    not to how it was passed.  For rows, the common case (ints and bools
    in 0-255) packs a whole pattern in C; anything else falls back to the
    per-bit loop, which gives the same bytes.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{len(patterns)}:".encode())
    if isinstance(patterns, PackedPatterns):
        text = "".join(f"{row};" for row in patterns.text())
        hasher.update(text.encode().translate(_ASCII_BITS))
        return hasher.hexdigest()[:24]
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


def plan_digest(shards: Sequence[Sequence[StuckAtFault]]) -> str:
    """Stable digest of a shard plan: every shard's faults, in shard order."""
    text = "|".join(
        ";".join(f"{f.gate},{f.pin},{f.value}" for f in shard) for shard in shards
    )
    return hashlib.sha256(f"{len(shards)}:{text}".encode()).hexdigest()[:24]


@dataclass(frozen=True)
class CampaignKey:
    """Identity of one shardable campaign; a store is pinned to one key."""

    signature: str
    patterns: str
    plan: str
    seed: int
    partitions: int
    drop: bool

    @classmethod
    def build(
        cls,
        netlist,
        patterns: Sequence[Sequence[int]],
        shards: Sequence[Sequence[StuckAtFault]],
        seed: int,
        drop: bool,
    ) -> "CampaignKey":
        return cls(
            signature=netlist.structural_signature(),
            patterns=pattern_digest(patterns),
            plan=plan_digest(shards),
            seed=seed,
            partitions=len(shards),
            drop=drop,
        )


class StoreMismatchError(ValueError):
    """The store directory belongs to a different campaign."""


class StoreCorruptionError(RuntimeError):
    """Two writers produced different bytes for one shard — determinism
    is broken (or the store was tampered with); never merge past this."""


def result_digest(record: Dict[str, object]) -> str:
    """Digest of one shard record's *deterministic* content.

    Stats (wall times, metrics) legitimately differ between two runs
    grading the same shard; the index, pattern count and first-detection
    list must not.  The digest covers only the latter, so idempotent
    publishes digest-match and true divergence is caught.
    """
    content = [record["index"], record["patterns_simulated"], record["firsts"]]
    blob = json.dumps(content, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _check_version(payload: Dict[str, object], path: str) -> None:
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != STORE_VERSION:
        raise StoreMismatchError(
            f"{path!r} has store format version {version!r}, but this build "
            f"reads version {STORE_VERSION} — grade into a fresh store directory"
        )


class ShardStore:
    """One runner's handle on a campaign directory.

    Every mutation is an fsynced temp file ``link``ed to its final name,
    so a kill at any instant leaves the store either without a file or
    with a complete one.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.events = EventLog()
        self.publish_conflicts = 0

    # ------------------------------------------------------------------
    # Paths and durable writes
    # ------------------------------------------------------------------

    @property
    def _campaign_path(self) -> str:
        return os.path.join(self.root, "campaign.json")

    @property
    def _shards_dir(self) -> str:
        return os.path.join(self.root, "shards")

    def _result_path(self, shard: int) -> str:
        return os.path.join(self._shards_dir, f"{shard:05d}.result")

    def _link_once(self, tag: str, payload: Dict[str, object], path: str) -> bool:
        """Write ``payload`` to ``path`` unless it exists; True if written.

        The JSON is fsynced in a private temp file first and then
        ``link``ed into place, which fails with ``EEXIST`` instead of
        overwriting: the first writer wins.
        """
        fd, tmp = tempfile.mkstemp(prefix=f".tmp-{tag}-", dir=self._shards_dir)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
                handle.flush()
                os.fsync(handle.fileno())
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)

    # ------------------------------------------------------------------
    # Campaign identity
    # ------------------------------------------------------------------

    def initialize(self, key: CampaignKey, n_shards: int) -> bool:
        """Create the store for ``key`` or attach to an existing one.

        The first run pins the campaign identity; every re-run verifies
        its own key against the pinned one and gets a field-by-field
        :class:`StoreMismatchError` on any difference — a wrong circuit,
        pattern file, seed, or partition count must die loudly here,
        never silently mis-merge shards from two campaigns.  Returns True
        when this call created the store.
        """
        if not isinstance(n_shards, int) or n_shards < 0:
            raise ValueError(f"n_shards must be a non-negative int, got {n_shards!r}")
        try:
            os.makedirs(self._shards_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"cannot use {self.root!r} as a shard store: {exc.strerror}"
            ) from None
        payload = {
            "version": STORE_VERSION,
            "key": {
                field: getattr(key, field) for field in key.__dataclass_fields__
            },
            "n_shards": n_shards,
        }
        created = self._link_once("campaign", payload, self._campaign_path)
        if not created:
            self._verify(key, n_shards)
        return created

    def _verify(self, key: CampaignKey, n_shards: int) -> None:
        existing = self.attach()
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
                f"file, fault universe and its order, seed, partition count, "
                f"and drop flag must all match the run that created the store"
            )

    def attach(self) -> Dict[str, object]:
        """Read the pinned campaign record; a missing or unreadable one is
        a bad store path (``ValueError`` naming it), and one of another
        format version a :class:`StoreMismatchError`."""
        try:
            with open(self._campaign_path) as handle:
                payload = json.load(handle)
            int(payload["n_shards"])  # every campaign record has a count
        except OSError as exc:
            raise ValueError(
                f"{self.root!r} is not a shard store: cannot read "
                f"{self._campaign_path!r} ({exc.strerror})"
            ) from None
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(
                f"{self._campaign_path!r} is not a campaign record: {exc}"
            ) from None
        _check_version(payload, self._campaign_path)
        return payload

    # ------------------------------------------------------------------
    # Results: append-only, first-write-wins, digest-verified
    # ------------------------------------------------------------------

    def publish(self, record: Dict[str, object]) -> bool:
        """Durably record one shard's record; True if this write won.

        A loser (a duplicate from a second runner on the same store)
        verifies the winner's digest matches its own and converges
        silently; a digest mismatch is corruption and raises
        :class:`StoreCorruptionError`.
        """
        shard = record["index"]
        digest = result_digest(record)
        payload = {
            "version": STORE_VERSION,
            "digest": digest,
            "t_wall": time.time(),
            "record": dict(record, stats={
                k: v for k, v in record["stats"].items() if k in _KEPT_STATS
            }),
        }
        if self._link_once(f"result-{shard}", payload, self._result_path(shard)):
            self.events.emit(PUBLISH, "publish", partition=shard, digest=digest)
            return True
        existing = self._read_result(shard)
        if existing["digest"] != digest:
            raise StoreCorruptionError(
                f"shard {shard}: graded digest {digest} but the store holds "
                f"{existing['digest']} — deterministic simulation cannot "
                f"diverge; refusing to merge"
            )
        self.publish_conflicts += 1
        self.events.emit(PUBLISH_CONFLICT, "publish_conflict", partition=shard)
        return False

    def _read_result(self, shard: int) -> Dict[str, object]:
        path = self._result_path(shard)
        with open(path) as handle:
            payload = json.load(handle)
        _check_version(payload, path)
        return payload

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

    def load_results(self) -> Dict[int, Dict[str, object]]:
        """Every published shard record by shard index, digest-verified.

        The merge reads these same bytes for every shard — those graded
        by this run included — so a resumed campaign's merge is
        bit-identical to a clean run's by construction.
        """
        records: Dict[int, Dict[str, object]] = {}
        for shard in sorted(self.done_indices()):
            payload = self._read_result(shard)
            record = payload["record"]
            if result_digest(record) != payload["digest"]:
                raise StoreCorruptionError(
                    f"shard {shard}: stored digest {payload['digest']} does "
                    f"not match its content — result file corrupted"
                )
            if record["index"] != shard:
                raise StoreCorruptionError(
                    f"shard {shard}: result file holds shard "
                    f"{record['index']}'s record — result file misplaced"
                )
            records[shard] = record
        return records

    def write_events(self) -> Optional[str]:
        """Append this run's event log to the store (postmortem aid)."""
        if not len(self.events):
            return None
        return self.events.write_jsonl(os.path.join(self.root, "events.jsonl"))


# ----------------------------------------------------------------------
# Progress view (repro obs tail STORE_DIR)
# ----------------------------------------------------------------------


def read_store_progress(root: str) -> Dict[str, object]:
    """Progress of a store directory, from the store's own files alone.

    Built for ``repro obs tail``: how many shards are published, and how
    many faults they graded and detected.
    """
    store = ShardStore(root)
    campaign = store.attach()
    done = store.done_indices()
    faults_graded = 0
    detected = 0
    for shard in sorted(done):
        firsts = store._read_result(shard)["record"]["firsts"]
        faults_graded += len(firsts)
        detected += sum(1 for first in firsts if first >= 0)
    n_shards = int(campaign.get("n_shards", 0))
    return {
        "path": str(root),
        "key": campaign.get("key"),
        "partitions_done": sorted(done),
        "partitions_done_count": len(done),
        "partitions_total": n_shards,
        "faults_graded": faults_graded,
        "detected": detected,
        "complete": len(done) >= n_shards,
    }
