"""Property test: a server's store and spatial index never drift apart.

The staging server promises that ``index.versions(name) ==
store.versions(name)`` and ``index.nbytes() == store.nbytes`` hold after
every operation (see the StagingServer docstring). Two past bugs broke it:

* ``put`` indexed on the store's *byte delta*, so zero-byte fragments
  (itemsize-0 dtypes such as ``"V0"``) entered the store but never the
  index, and ``index.nbytes()`` drifted from ``store.nbytes``;
* coordinated rollback restored the store but not the index, leaving stale
  entries for rolled-back versions.

Hypothesis drives arbitrary sequences of put / put-blob / evict /
evict-older-than / keep-only-latest (the GC retention primitive) / snapshot /
restore and checks the invariant at every step. The same walk journals every
mutation and checks, at every step, that a fresh server (and a fresh
``ProtectionIndex``) restored from the epoch base plus the sealed journals
is indistinguishable from the live one — the incremental-checkpoint restore
path, one journal epoch per operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox
from repro.staging import StagingServer
from repro.staging.resilience import ProtectionIndex, PutRecord, record_id_for

# Per-name dtype: "z" exercises zero-byte payloads (itemsize-0 void dtype).
DTYPES = {"u": "float64", "z": "V0"}

BOXES = (
    BBox((0,), (4,)),
    BBox((2,), (6,)),  # overlaps both neighbours
    BBox((4,), (8,)),
)


def payload(desc: ObjectDescriptor) -> np.ndarray:
    """Deterministic per-(name, version) fill so overlapping re-puts agree."""
    if np.dtype(desc.dtype).itemsize == 0:
        return np.zeros(desc.bbox.shape, dtype=desc.dtype)
    return np.full(desc.bbox.shape, float(desc.version), dtype=desc.dtype)


names = st.sampled_from(sorted(DTYPES))
versions = st.integers(0, 3)
boxes = st.sampled_from(BOXES)

ops = st.one_of(
    st.tuples(st.just("put"), names, versions, boxes),
    st.tuples(st.just("blob"), names, versions, st.sampled_from(["p0", "p1"])),
    st.tuples(st.just("evict"), names, versions),
    st.tuples(st.just("evict_older"), names, versions),
    st.tuples(st.just("keep_latest"), names),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def check_lockstep(srv) -> None:
    if not isinstance(srv, StagingServer):
        # A remote proxy (wire transport): the live index and raw store
        # dicts are in another process. Materialize the server's state
        # locally and check the invariants on the reconstruction — this
        # still catches store/index drift (the snapshot carries both),
        # while in-process aggregate drift stays covered by the inproc
        # lane, which always runs these tests.
        local = StagingServer(srv.server_id)
        local.restore(srv.snapshot())
        srv = local
    store, index = srv.store, srv.index
    assert index.names() == sorted({n for n, _v in store.keys()})
    for name in index.names():
        assert index.versions(name) == store.versions(name)
    assert index.nbytes() == store.nbytes
    assert len(index) == store.object_count
    check_running_aggregates(srv)


def check_running_aggregates(srv: StagingServer) -> None:
    """The O(1) running totals must equal full recomputes from raw state.

    Both the index and the store maintain incremental aggregates (byte
    totals, entry counts, per-name version sets) instead of scanning; any
    missed update path would silently skew flow control and GC decisions.
    """
    index, store = srv.index, srv.store
    entries = [e for es in index._entries.values() for e in es]
    assert index._total_bytes == sum(e.nbytes for e in entries)
    assert index._logged_bytes == sum(e.nbytes for e in entries if e.logged)
    assert index._count == len(entries)
    index_versions = {}
    for name, version in index._entries:
        index_versions.setdefault(name, set()).add(version)
    assert index._versions == index_versions
    volumes = {}
    for key, es in index._entries.items():
        volumes[key] = sum(e.desc.bbox.volume for e in es)
    assert index._volumes == volumes
    objects = store._objects
    assert store._count == sum(len(frags) for frags in objects.values())
    assert store.nbytes == sum(
        f.data.nbytes for frags in objects.values() for f in frags
    )
    store_versions = {}
    for name, version in objects:
        store_versions.setdefault(name, set()).add(version)
    assert store._versions == store_versions


def comparable(server_snap: dict) -> dict:
    """A server snapshot with blob arrays reduced to bytes (== on ndarrays
    is elementwise); everything else, aggregates included, compares as is."""
    blobs = {
        nv: {k: b.tobytes() for k, b in bucket.items()}
        for nv, bucket in server_snap["blobs"].items()
    }
    return {**server_snap, "blobs": blobs}


def check_journal_restore(srv, records, base, sealed) -> None:
    """base + sealed journals, re-applied by fresh instances of the classes
    that recorded them, reproduce the live state exactly."""
    server_base, records_base = base
    replica = StagingServer(1)
    replica.restore(server_base, [s for s, _r in sealed])
    assert comparable(replica.snapshot()) == comparable(srv.snapshot())
    check_running_aggregates(replica)
    assert replica.protection_nbytes == srv.protection_nbytes
    replica_records = ProtectionIndex()
    replica_records.restore(records_base, [r for _s, r in sealed])
    assert replica_records.snapshot() == records.snapshot()


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=40))
def test_store_and_index_stay_in_lockstep(op_list):
    srv = StagingServer(0)
    records = ProtectionIndex()
    srv.enable_journal()
    records.enable_journal()
    saved = base = (StagingServer.empty_snapshot(), ProtectionIndex().snapshot())
    sealed = []  # one (server delta, records journal) epoch per op since base
    for op in op_list:
        kind = op[0]
        if kind == "put":
            _, name, version, box = op
            desc = ObjectDescriptor(name, version, box, dtype=DTYPES[name])
            srv.put(desc, payload(desc))
            records.add(PutRecord(record_id_for(desc), desc, "replication", 0, 0, ()))
        elif kind == "blob":
            _, name, version, key = op
            srv.put_blob(name, version, key, np.full(3, version, dtype=np.uint8))
        elif kind == "evict":
            srv.evict(op[1], op[2])
            records.evict(op[1], op[2])
        elif kind == "evict_older":
            srv.evict_older_than_version(op[1], op[2])
            records.evict_older_than(op[1], op[2])
        elif kind == "keep_latest":
            srv.keep_only_latest(op[1])
        elif kind == "snapshot":
            saved = (srv.snapshot(), records.snapshot())
        elif kind == "restore":
            srv.restore(saved[0])
            records.restore(saved[1])
            base, sealed = saved, []  # a restore restarts the journal epoch
        sealed.append((srv.seal_delta(), records.seal_journal()))
        check_lockstep(srv)
        check_journal_restore(srv, records, base, sealed)


class TestZeroByteRegression:
    """Fragments with zero bytes must be indexed (byte-delta detection lost them)."""

    def test_zero_byte_put_is_indexed(self):
        srv = StagingServer(0)
        desc = ObjectDescriptor("marker", 0, BBox((0,), (4,)), dtype="V0")
        srv.put(desc, np.zeros((4,), dtype="V0"))
        assert srv.store.versions("marker") == [0]
        assert srv.index.versions("marker") == [0]
        assert srv.index.nbytes() == srv.store.nbytes == 0
        assert len(srv.index) == 1

    def test_redundant_reput_still_not_double_indexed(self):
        srv = StagingServer(0)
        desc = ObjectDescriptor("x", 0, BBox((0,), (8,)))
        data = np.ones(8)
        srv.put(desc, data)
        srv.put(desc, data)  # store drops the fully-redundant fragment
        assert len(srv.index) == 1
        assert srv.index.nbytes() == srv.store.nbytes


class TestSnapshotRestore:
    def test_restore_brings_back_index(self):
        srv = StagingServer(0)
        d0 = ObjectDescriptor("x", 0, BBox((0,), (4,)))
        srv.put(d0, np.zeros(4))
        snap = srv.snapshot()
        d1 = ObjectDescriptor("x", 1, BBox((0,), (4,)))
        srv.put(d1, np.ones(4))
        srv.restore(snap)
        assert srv.index.versions("x") == [0]
        check_lockstep(srv)

    def test_rebuild_index_matches_store(self):
        srv = StagingServer(0)
        for v in range(3):
            srv.put(ObjectDescriptor("x", v, BBox((0,), (4,))), np.full(4, float(v)))
        srv.index.clear()
        srv.rebuild_index()
        check_lockstep(srv)
        # Queries through the rebuilt index see every fragment.
        assert srv.index.query("x", 2)[0].nbytes == 32
