"""A staging server: versioned store + protection-blob side-store.

This is the synchronous in-memory core shared by both execution substrates:
the threaded runtime wraps it in a service loop, and the performance
simulator attaches service-time models to the same operations.

The :class:`~repro.staging.store.ObjectStore` is the server's metadata as
well as its data: its ``(name, version)`` map answers coverage, version and
byte queries. Protection blobs (parity shards, shard copies) live beside it,
keyed by the same ``(name, version)``; evicting a version and every
snapshot/restore touch both, so no blob outlives the version it protects
(property-tested in tests/staging).
"""

from __future__ import annotations

import math
import threading
from time import perf_counter

import numpy as np

from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import ObjectNotFound
from repro.obs import registry as _obs
from repro.staging.store import ObjectStore, StoredObject

__all__ = ["StagingServer"]

# Instrument-site handles, resolved once at import (see repro.obs.metrics).
_PUT_COUNT = _obs.counter("staging.server.put.count")
_PUT_BYTES = _obs.counter("staging.server.put.bytes")
_PUT_SECONDS = _obs.histogram("staging.server.put.seconds")
_GET_COUNT = _obs.counter("staging.server.get.count")
_GET_SECONDS = _obs.histogram("staging.server.get.seconds")
_EVICT_COUNT = _obs.counter("staging.server.evict.count")
_EVICT_BYTES = _obs.counter("staging.server.evict.bytes")


class StagingServer:
    """One staging server holding a shard of the global domain.

    The server does not know the placement map; clients are responsible for
    sending each server only the shards it owns (exactly as in DataSpaces,
    where the client library computes DHT placement).

    Each server owns one reentrant lock guarding its store and blobs, so
    requests for *different* servers proceed in parallel while requests for
    the same server serialize — the paper's one-service-thread-per-server
    model. The lock is the innermost tier of the lock hierarchy (see
    DESIGN.md, performance architecture): holders never acquire any other
    lock, so lock ordering is trivially acyclic.
    """

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self.store = ObjectStore()
        self.lock = threading.RLock()
        # Protection side-store: opaque uint8 blobs (parity shards, shard
        # copies) keyed by (name, version) -> {blob key: bytes}. Kept outside
        # the ObjectStore so its fragment and byte counts stay payload-only;
        # evicting a (name, version) drops its blobs with it.
        self._blobs: dict[tuple[str, int], dict[str, np.ndarray]] = {}
        self._blob_bytes = 0
        # Blob mutation journal for incremental checkpointing; None = off.
        # Journaled blob-put bytes are accumulated alongside so sealing a
        # delta never re-walks the journal (same contract as the store's).
        self._blob_journal: list[tuple] | None = None
        self._blob_journal_bytes = 0

    # ----------------------------------------------------------- journaling

    def enable_journal(self) -> None:
        """Start journaling store/blob mutations (idempotent)."""
        with self.lock:
            self.store.enable_journal()
            if self._blob_journal is None:
                self._blob_journal = []

    def disable_journal(self) -> None:
        """Stop journaling and drop pending journals."""
        with self.lock:
            self.store.disable_journal()
            self._blob_journal = None
            self._blob_journal_bytes = 0

    def journal_mutation_count(self) -> int:
        """Mutations journaled since the last seal, store and blobs; O(1)."""
        with self.lock:
            blobs = len(self._blob_journal) if self._blob_journal is not None else 0
            return self.store.journal_len + blobs

    def seal_delta(self) -> dict:
        """Detach this epoch's journals in O(1) and start the next epoch.

        Called under the service's quiescence gate, so both journals
        are sealed at one consistent cut. The returned dict is raw journal
        lists plus the running totals (``nbytes``, ``mutations``) kept at
        record time — packaging into a checkpoint delta happens outside any
        lock and in O(1) (see :mod:`repro.staging.cow`).
        """
        with self.lock:
            blobs = self._blob_journal if self._blob_journal is not None else []
            nbytes = self.store.journal_put_bytes + self._blob_journal_bytes
            mutations = self.store.journal_len + len(blobs)
            self._blob_journal = []
            self._blob_journal_bytes = 0
            return {
                "store": self.store.seal_journal(),
                "blobs": blobs,
                "nbytes": nbytes,
                "mutations": mutations,
            }

    # ------------------------------------------------------------------ ops

    def put(self, desc: ObjectDescriptor, data: np.ndarray) -> StoredObject:
        """Store one fragment (a fully redundant re-put returns the fragment
        already held and changes nothing)."""
        t0 = perf_counter()
        with self.lock:
            obj = self.store.put(desc, data)
        _PUT_COUNT.inc()
        _PUT_BYTES.inc(obj.nbytes)
        _PUT_SECONDS.record(perf_counter() - t0)
        return obj

    def put_many(
        self,
        items: list[tuple[ObjectDescriptor, np.ndarray]],
        retain: tuple[str, float] | None = None,
    ) -> list[StoredObject]:
        """Store a batch of fragments under one lock acquisition.

        One request often lands several sub-boxes on the same server (a box
        overlapping many of that server's distribution blocks); batching
        amortises the lock round-trip and the metric updates across them.
        ``retain=(name, floor)`` applies :meth:`evict_consumed` after the
        store, in the same lock hold (non-logged retention riding the put).
        """
        t0 = perf_counter()
        with self.lock:
            objs = [self.store.put(desc, data) for desc, data in items]
            if retain is not None:
                self.evict_consumed(*retain)
        _PUT_COUNT.inc(len(items))
        _PUT_BYTES.inc(sum(o.nbytes for o in objs))
        _PUT_SECONDS.record(perf_counter() - t0)
        return objs

    def get(
        self, desc: ObjectDescriptor, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Assemble and return the requested region (into ``out`` if given)."""
        t0 = perf_counter()
        try:
            with self.lock:
                return self.store.get(desc, out=out)
        finally:
            _GET_COUNT.inc()
            _GET_SECONDS.record(perf_counter() - t0)

    def get_many(
        self,
        descs: list[ObjectDescriptor],
        retain: tuple[str, float] | None = None,
        outs: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Assemble a batch of regions under one lock acquisition.

        ``outs``, when given, supplies one destination array per descriptor
        (the shm transport's granted response segment). ``retain=(name,
        floor)`` applies :meth:`evict_consumed` *after* the regions are
        assembled, in the same lock hold: a read whose floor reaches the
        version it reads still returns that version's bytes.
        """
        t0 = perf_counter()
        try:
            with self.lock:
                if outs is None:
                    parts = [self.store.get(desc) for desc in descs]
                else:
                    parts = [
                        self.store.get(desc, out=out) for desc, out in zip(descs, outs)
                    ]
                if retain is not None:
                    self.evict_consumed(*retain)
                return parts
        finally:
            _GET_COUNT.inc(len(descs))
            _GET_SECONDS.record(perf_counter() - t0)

    # ------------------------------------------------------------------ blobs

    def put_blob(self, name: str, version: int, key: str, data: np.ndarray) -> None:
        """Store one opaque protection blob under (name, version, key).

        Re-puts overwrite (protection records are idempotent per record id);
        the payload is copied so the caller's buffer stays private.
        """
        arr = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1).copy()
        with self.lock:
            self._insert_blob((name, version), key, arr)

    def _insert_blob(self, nv: tuple[str, int], key: str, arr: np.ndarray) -> None:
        """Set one blob: bucket, byte total, journal (caller holds the lock)."""
        bucket = self._blobs.setdefault(nv, {})
        old = bucket.get(key)
        if old is not None:
            self._blob_bytes -= int(old.nbytes)
        bucket[key] = arr
        self._blob_bytes += int(arr.nbytes)
        if self._blob_journal is not None:
            self._blob_journal.append(("blob_put", nv, key, arr))
            self._blob_journal_bytes += int(arr.nbytes)

    def _evict_blobs(self, nv: tuple[str, int]) -> int:
        """Drop every blob of ``nv``; returns bytes freed (caller holds the lock)."""
        blobs = self._blobs.pop(nv, None)
        if not blobs:
            return 0
        freed = sum(int(b.nbytes) for b in blobs.values())
        self._blob_bytes -= freed
        if self._blob_journal is not None:
            self._blob_journal.append(("blob_evict", nv))
        return freed

    def get_blob(self, name: str, version: int, key: str) -> np.ndarray:
        """Fetch one protection blob (served by reference; treat as immutable)."""
        with self.lock:
            bucket = self._blobs.get((name, version))
            if bucket is None or key not in bucket:
                raise ObjectNotFound(f"no blob {key!r} for {name!r} v{version}")
            return bucket[key]

    def covers(self, desc: ObjectDescriptor) -> bool:
        """True when this server can fully serve ``desc``."""
        with self.lock:
            return self.store.covers(desc)

    def covers_all(self, descs: list[ObjectDescriptor]) -> bool:
        """True when every region in the batch is fully servable."""
        with self.lock:
            return all(self.store.covers(desc) for desc in descs)

    def query_versions(self, name: str) -> list[int]:
        """Versions of ``name`` (possibly partial) on this server."""
        with self.lock:
            return self.store.versions(name)

    def evict(self, name: str, version: int) -> int:
        """Drop (name, version) — fragments *and* protection blobs; returns
        bytes freed."""
        with self.lock:
            freed = self.store.evict(name, version)
            freed += self._evict_blobs((name, version))
        _EVICT_COUNT.inc()
        _EVICT_BYTES.inc(freed)
        return freed

    # Not a wire op: evict_consumed's helper, also traced by the benchmark.
    def evict_older_than_version(self, name: str, version: int) -> int:
        """Drop versions of ``name`` strictly below ``version``; returns bytes."""
        with self.lock:
            freed = 0
            for v in list(self.store.versions(name)):
                if v < version:
                    freed += self.evict(name, v)
            return freed

    def evict_consumed(self, name: str, floor: float) -> int:
        """Non-logged retention: drop versions of ``name`` strictly below
        ``floor`` — except the newest, which is kept even when consumed so a
        stale-latest read still has something to serve. ``floor=inf`` is
        :meth:`keep_only_latest`. Returns bytes."""
        with self.lock:
            latest = self.store.latest_version(name)
            if latest is None:
                return 0
            return self.evict_older_than_version(name, min(floor, latest))

    # No client sends this; it stays because the per-layer benchmark traces it.
    def keep_only_latest(self, name: str) -> int:
        """Original-DataSpaces retention (the paper's ``Ds`` baseline): keep
        only the newest version of ``name``. Returns bytes freed."""
        return self.evict_consumed(name, math.inf)

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Capture store *and* protection blobs for coordinated
        checkpointing (blob payloads are immutable; only containers copy)."""
        with self.lock:
            return {
                "store": self.store.snapshot(),
                "blobs": {k: dict(v) for k, v in self._blobs.items()},
            }

    @staticmethod
    def empty_snapshot() -> dict:
        """The snapshot of a server that never stored anything."""
        return StagingServer(-1).snapshot()

    def restore(self, snap: dict, deltas=()) -> None:
        """Roll store and blobs back together (coordinated rollback).

        ``deltas`` are this server's sealed epochs (:meth:`seal_delta`
        results) recorded after ``snap``, oldest first: each side restores
        its base and then re-applies its own journal, so an incremental
        checkpoint restores in place. Restoring both together means a
        rollback can never leave a rolled-back version's blobs behind. Open
        journals restart empty.
        """
        with self.lock:
            self.store.restore(snap["store"], [d["store"] for d in deltas])
            journaling = self._blob_journal is not None
            self._blob_journal = None
            self._blobs = {k: dict(v) for k, v in snap["blobs"].items()}
            self._blob_bytes = sum(
                int(b.nbytes) for bucket in self._blobs.values() for b in bucket.values()
            )
            for delta in deltas:
                for mut in delta["blobs"]:
                    if mut[0] == "blob_put":
                        self._insert_blob(mut[1], mut[2], mut[3])
                    else:
                        self._evict_blobs(mut[1])
            if journaling:
                self._blob_journal = []
                self._blob_journal_bytes = 0

    # -------------------------------------------------------------- metrics

    @property
    def nbytes(self) -> int:
        """Payload bytes resident on this server (excludes protection blobs)."""
        return self.store.nbytes

    @property
    def protection_nbytes(self) -> int:
        """Bytes held in protection blobs (parity shards, shard copies)."""
        return self._blob_bytes
