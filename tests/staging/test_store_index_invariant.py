"""Property test: a server's store is an exact index of what it holds.

A staging server keeps no metadata beside its :class:`ObjectStore`: the
store's ``(name, version)`` map answers versions, coverage and byte totals,
from running aggregates it updates on every put and evict. Two past bugs
broke the server's metadata when it still had a second copy of it:

* ``put`` indexed on the store's *byte delta*, so zero-byte fragments
  (itemsize-0 dtypes such as ``"V0"``) entered the store but never the
  metadata, and its byte total drifted from ``store.nbytes``;
* coordinated rollback restored the store but not the metadata, leaving
  stale entries for rolled-back versions.

Hypothesis drives arbitrary sequences of put / put-blob / evict /
``evict_consumed`` (the retention op clients send) / snapshot / restore and
checks, at every step, that the store's and the blob side-store's running
totals equal full recomputes. The same walk journals every mutation and
checks, at every step, that a fresh server (and a fresh ``ProtectionIndex``)
restored from the epoch base plus the sealed journals is indistinguishable
from the live one — the incremental-checkpoint restore path, one journal
epoch per operation.
"""

import math

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
    # Retention floors: below, at and past every version (inf = keep only
    # the newest).
    st.tuples(st.just("retain"), names, st.sampled_from([0, 1, 2, 3, 4, math.inf])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def check_invariants(srv) -> None:
    if not isinstance(srv, StagingServer):
        # A remote proxy (wire transport): the raw store dicts are in
        # another process. Materialize the server's state locally and check
        # the invariants on the reconstruction, while in-process aggregate
        # drift stays covered by the inproc lane, which always runs these
        # tests.
        local = StagingServer(srv.server_id)
        local.restore(srv.snapshot())
        srv = local
    check_running_aggregates(srv)


def check_running_aggregates(srv: StagingServer) -> None:
    """The O(1) running totals must equal full recomputes from raw state.

    The store keeps incremental aggregates (byte total, fragment count,
    per-name version sets) and the blob side-store a byte total, instead of
    scanning; any missed update path would silently skew flow control and
    GC decisions.
    """
    store = srv.store
    objects = store._objects
    assert store._count == sum(len(frags) for frags in objects.values())
    assert store.nbytes == sum(
        f.data.nbytes for frags in objects.values() for f in frags
    )
    store_versions = {}
    for name, version in objects:
        store_versions.setdefault(name, set()).add(version)
    assert store._versions == store_versions
    for name, vs in store_versions.items():
        assert store.versions(name) == sorted(vs)
        assert store.latest_version(name) == max(vs)
    assert srv.protection_nbytes == sum(
        b.nbytes for bucket in srv._blobs.values() for b in bucket.values()
    )
    assert all(srv._blobs.values())  # no empty bucket outlives its blobs


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
        elif kind == "retain":
            _, name, floor = op
            latest = srv.store.latest_version(name)
            srv.evict_consumed(name, floor)
            if latest is not None:
                # What non-logged retention does to the group's records.
                records.evict_older_than(name, min(floor, latest))
        elif kind == "snapshot":
            saved = (srv.snapshot(), records.snapshot())
        elif kind == "restore":
            srv.restore(saved[0])
            records.restore(saved[1])
            base, sealed = saved, []  # a restore restarts the journal epoch
        sealed.append((srv.seal_delta(), records.seal_journal()))
        check_invariants(srv)
        check_journal_restore(srv, records, base, sealed)


class TestZeroByteRegression:
    """Fragments with zero bytes must be indexed (byte-delta detection lost them)."""

    def test_zero_byte_put_is_indexed(self):
        srv = StagingServer(0)
        desc = ObjectDescriptor("marker", 0, BBox((0,), (4,)), dtype="V0")
        srv.put(desc, np.zeros((4,), dtype="V0"))
        assert srv.store.versions("marker") == [0]
        assert srv.query_versions("marker") == [0]
        assert srv.covers(desc)
        assert srv.nbytes == srv.store.nbytes == 0
        assert srv.store.object_count == 1

    def test_redundant_reput_still_not_double_indexed(self):
        srv = StagingServer(0)
        desc = ObjectDescriptor("x", 0, BBox((0,), (8,)))
        data = np.ones(8)
        srv.put(desc, data)
        srv.put(desc, data)  # store drops the fully-redundant fragment
        assert srv.store.object_count == 1
        assert srv.nbytes == desc.nbytes


class TestSnapshotRestore:
    def test_restore_brings_back_index(self):
        srv = StagingServer(0)
        d0 = ObjectDescriptor("x", 0, BBox((0,), (4,)))
        srv.put(d0, np.zeros(4))
        snap = srv.snapshot()
        d1 = ObjectDescriptor("x", 1, BBox((0,), (4,)))
        srv.put(d1, np.ones(4))
        srv.restore(snap)
        assert srv.query_versions("x") == [0]
        assert not srv.covers(d1)
        check_invariants(srv)
