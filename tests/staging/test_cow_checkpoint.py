"""Equivalence tests for incremental copy-on-write checkpoints.

The contract of ``repro.staging.cow`` is exact equivalence: composing a
``base + deltas`` chain must yield byte-for-byte the snapshot a full copy
would have produced at the same instant, and restoring an incremental
snapshot must bring back byte-identical stores, blobs, protection records, health, and read frontiers. Hypothesis drives random
put / get (frontier advance) / evict / snapshot / restore (rollback)
interleavings through the synchronized service with ``max_chain=2`` so
chain compaction boundaries are crossed constantly; directed tests cover
restoring a ``full=True`` snapshot over a live chain and the full-capture
fallback under churn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox, Domain
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import ObjectStore, ProtectionConfig, RetryPolicy, StagingGroup
from repro.staging.cow import (
    compose_chain,
    full_snapshot_bytes,
    is_cow_snapshot,
    snapshot_cost_bytes,
)

from tests.conftest import make_payload, requires_inproc

DOMAIN_SHAPE = (16,)

BOXES = (
    BBox((0,), (16,)),
    BBox((0,), (8,)),
    BBox((8,), (16,)),
)


def make_service(
    max_chain: int = 2,
    protection: ProtectionConfig | None = None,
    num_servers: int = 3,
) -> SynchronizedStaging:
    group = StagingGroup.create(
        Domain(DOMAIN_SHAPE),
        num_servers=num_servers,
        protection=protection,
        retry=RetryPolicy(base_backoff=0.001, max_backoff=0.004),
    )
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.02, max_wait=2.0
    )
    svc.register("sim")
    svc.register("ana")
    svc.staging.checkpointer.max_chain = max_chain
    return svc


# ------------------------------------------------------------- fingerprints
#
# Byte-level fingerprints of staging state. Fragment/entry dataclasses
# compare payloads by identity or not at all, so arrays are reduced to raw
# bytes explicitly — "identical" below always means byte-identical.


def _server_fp(store_objects, blobs):
    store = tuple(
        (key, tuple((o.desc, o.data.tobytes()) for o in objs))
        for key, objs in sorted(store_objects.items())
    )
    blob = tuple(
        (key, tuple(sorted((bk, b.tobytes()) for bk, b in bucket.items())))
        for key, bucket in sorted(blobs.items())
    )
    return (store, blob)


def live_fp(service: SynchronizedStaging):
    """Fingerprint of the live service state (data + coupling + resilience)."""
    group = service.group
    servers = tuple(
        _server_fp(s.store._objects, s._blobs) for s in group.servers
    )
    records = tuple(
        (key, tuple(sorted(recs.items())))
        for key, recs in sorted(group.records._records.items())
    )
    health = group.health.snapshot()
    return (
        servers,
        tuple(sorted(service._frontier.items())),
        records,
        (tuple(health["states"]), tuple(health["failures"])),
    )


def snap_fp(full: dict):
    """Fingerprint of a seed-format full snapshot, aggregates included."""
    servers = []
    for s in full["servers"]:
        fp = _server_fp(s["store"]["objects"], s["blobs"])
        servers.append(
            (
                fp,
                s["store"]["bytes"],
                s["store"].get("count"),
                s["store"].get("versions"),
            )
        )
    records = tuple(
        (key, tuple(sorted(recs.items())))
        for key, recs in sorted(full["protection"]["records"].items())
    )
    health = full["health"]
    return (
        tuple(servers),
        tuple(sorted(full["frontier"].items())),
        records,
        (tuple(health["states"]), tuple(health["failures"])),
    )


def reference_full(service: SynchronizedStaging) -> dict:
    """A seed-format full copy taken outside the checkpointer (pure read)."""
    group = service.group
    return {
        "servers": [s.snapshot() for s in group.servers],
        "frontier": dict(service._frontier),
        "protection": group.records.snapshot(),
        "health": group.health.snapshot(),
    }


def evict_version(service: SynchronizedStaging, name: str, version: int) -> None:
    """Service-side eviction of one (name, version) across the group."""
    with service._meta:
        service._quiesce_data_plane()
        try:
            for srv in service.group.servers:
                srv.evict(name, version)
            service.group.records.evict(name, version)
        finally:
            service._release_data_plane()


# ---------------------------------------------------------- property test

names = st.sampled_from(["u", "v"])

ops = st.one_of(
    st.tuples(st.just("put"), names, st.sampled_from(range(len(BOXES)))),
    st.tuples(st.just("get"), names),
    st.tuples(st.just("evict"), names),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


@requires_inproc
@settings(max_examples=40, deadline=None)
@given(st.lists(ops, max_size=30))
def test_incremental_matches_full_copy(op_list):
    """compose(chain) == full copy, and restore(chain) == state at capture.

    The model tracks which (name, version) descriptors are live so gets
    never wait on evicted/rolled-back data; saved snapshots carry the model
    alongside the incremental snapshot and the byte fingerprint taken at
    capture time.
    """
    service = make_service(max_chain=2)
    live: dict[str, dict[int, ObjectDescriptor]] = {"u": {}, "v": {}}
    next_version = {"u": 0, "v": 0}
    saved = []  # (incremental snapshot, live fingerprint, model copy)
    for op in op_list:
        kind = op[0]
        if kind == "put":
            _, name, box_i = op
            version = next_version[name]
            next_version[name] = version + 1
            desc = ObjectDescriptor(name, version, BOXES[box_i])
            service.put("sim", desc, make_payload(desc), version)
            live[name][version] = desc
        elif kind == "get":
            _, name = op
            if live[name]:
                version = max(live[name])
                service.get_blocking("ana", live[name][version], version)
        elif kind == "evict":
            _, name = op
            if live[name]:
                version = min(live[name])
                evict_version(service, name, version)
                del live[name][version]
        elif kind == "snapshot":
            ref = reference_full(service)
            snap = service.snapshot()
            assert is_cow_snapshot(snap)
            composed = compose_chain(snap["chain"])
            assert snap_fp(composed) == snap_fp(ref)
            saved.append((snap, live_fp(service), {n: dict(v) for n, v in live.items()}))
        elif kind == "restore" and saved:
            snap, fp, model = saved[-1]
            service.restore(snap)
            assert live_fp(service) == fp
            live = {n: dict(v) for n, v in model.items()}
    # Whatever happened, every retained snapshot still restores exactly —
    # compaction of the live chain must never corrupt older chain views.
    for snap, fp, _model in saved:
        service.restore(snap)
        assert live_fp(service) == fp


@requires_inproc
@settings(max_examples=10, deadline=None)
@given(st.lists(ops, max_size=20))
def test_incremental_matches_full_copy_with_protection(op_list):
    """Same equivalence with RS protection: parity blobs and put records
    ride the delta chain too."""
    service = make_service(
        max_chain=2, protection=ProtectionConfig(mode="rs", parity=1)
    )
    live: dict[str, dict[int, ObjectDescriptor]] = {"u": {}, "v": {}}
    next_version = {"u": 0, "v": 0}
    saved = []
    for op in op_list:
        kind = op[0]
        if kind == "put":
            _, name, box_i = op
            version = next_version[name]
            next_version[name] = version + 1
            desc = ObjectDescriptor(name, version, BOXES[box_i])
            service.put("sim", desc, make_payload(desc), version)
            live[name][version] = desc
        elif kind == "get":
            _, name = op
            if live[name]:
                version = max(live[name])
                service.get_blocking("ana", live[name][version], version)
        elif kind == "evict":
            _, name = op
            if live[name]:
                version = min(live[name])
                evict_version(service, name, version)
                del live[name][version]
        elif kind == "snapshot":
            ref = reference_full(service)
            snap = service.snapshot()
            composed = compose_chain(snap["chain"])
            assert snap_fp(composed) == snap_fp(ref)
            saved.append((snap, live_fp(service)))
        elif kind == "restore" and saved:
            snap, fp = saved[-1]
            service.restore(snap)
            assert live_fp(service) == fp
            live = {"u": {}, "v": {}}  # conservative: only puts after restore
            next_version = {
                n: next_version[n] for n in next_version
            }  # versions never reused


# ------------------------------------------------------------ directed tests


def put_versions(service, name, versions, box=BOXES[0]):
    descs = []
    for v in versions:
        d = ObjectDescriptor(name, v, box)
        service.put("sim", d, make_payload(d), v)
        descs.append(d)
    return descs


class TestChainLifecycle:
    def test_first_snapshot_is_base_then_deltas(self):
        service = make_service()
        put_versions(service, "x", [0])
        s0 = service.snapshot()
        assert is_cow_snapshot(s0)
        assert s0["chain"]["deltas"] == ()
        put_versions(service, "x", [1])
        s1 = service.snapshot()
        assert len(s1["chain"]["deltas"]) == 1
        assert s1["chain"]["base"] is s0["chain"]["base"]

    @requires_inproc
    def test_compaction_bounds_chain_and_preserves_old_views(self):
        service = make_service(max_chain=2)
        fps = []
        snaps = []
        for v in range(6):
            put_versions(service, "x", [v])
            snaps.append(service.snapshot())
            fps.append(live_fp(service))
        ckpt = service.staging.checkpointer
        assert ckpt.chain_length <= 2
        # Every snapshot — including ones whose chain was later compacted
        # away under the live checkpointer — still restores exactly.
        for snap, fp in zip(snaps, fps):
            service.restore(snap)
            assert live_fp(service) == fp

    def test_delta_cost_is_o_delta_not_o_staging(self):
        service = make_service(max_chain=8)
        put_versions(service, "x", list(range(8)))
        base = service.snapshot()
        baseline = full_snapshot_bytes(base["chain"]["base"])
        d = ObjectDescriptor("x", 8, BOXES[1])
        service.put("sim", d, make_payload(d), 8)
        delta = service.snapshot()
        assert snapshot_cost_bytes(delta) == make_payload(d).nbytes
        assert snapshot_cost_bytes(delta) < baseline
        assert snapshot_cost_bytes(base) == baseline

    def test_empty_delta_when_nothing_changed(self):
        service = make_service()
        put_versions(service, "x", [0])
        service.snapshot()
        snap = service.snapshot()
        last = snap["chain"]["deltas"][-1]
        assert last["nbytes"] == 0
        assert last["mutations"] == 0

    def test_high_churn_falls_back_to_full_capture(self):
        service = make_service()
        put_versions(service, "x", [0])
        service.snapshot()  # base; journaling on
        ckpt = service.staging.checkpointer
        ckpt.full_fallback_ratio = 0.0
        # >32 journaled mutations with tiny live state: replaying would cost
        # more than re-copying, so the next capture must re-base.
        put_versions(service, "churn", list(range(40)), box=BOXES[1])
        assert ckpt.wants_full()
        snap = service.snapshot()
        assert is_cow_snapshot(snap)
        assert snap["chain"]["deltas"] == ()  # fresh base, chain restarted
        service.restore(snap)
        assert service.group.servers[0].store.versions("churn")

    @pytest.mark.parametrize(
        ("num_servers", "full_at"),
        [
            # 4 fragments a version, 16 live: each step journals 4 puts + 1
            # evict, so step 7 (35 entries) is the first past the 32-entry
            # floor; below it a delta is always cheap enough.
            (1, 7),
            # 12 fragments a version over 3 servers, 48 live: each step
            # journals 12 puts + 3 evicts; step 3 (45) stays a delta and
            # step 4 (60) reaches ratio 1.0 x 48 live fragments.
            (3, 4),
        ],
    )
    def test_fallback_step_at_ratio_one(self, num_servers, full_at):
        """Store-only churn with a constant live set: the capture turns full
        at the first step whose journal holds more than 32 entries and at
        least one entry per live fragment."""
        service = make_service(max_chain=100, num_servers=num_servers)
        put_versions(service, "x", range(4), box=BOXES[0])
        service.snapshot()  # base; journaling on
        ckpt = service.staging.checkpointer
        assert ckpt.full_fallback_ratio == 1.0
        live = sum(s.store.object_count for s in service.group.servers)
        assert live == (16 if num_servers == 1 else 48)
        for step in range(1, full_at + 1):
            put_versions(service, "x", [3 + step], box=BOXES[0])
            evict_version(service, "x", step - 1)
            assert ckpt.wants_full() is (step == full_at), step
        snap = service.snapshot()
        assert snap["chain"]["deltas"] == ()  # re-based: a full capture


class TestSeedCompatibility:
    @requires_inproc
    def test_full_true_stays_seed_shaped_and_journaling_off(self):
        service = make_service()
        put_versions(service, "x", [0, 1])
        snap = service.snapshot(full=True)
        assert not is_cow_snapshot(snap)
        assert set(snap) == {"servers", "frontier", "protection", "health"}
        # The seed path never turns journaling on by itself.
        assert not service.staging.checkpointer.journaling
        assert service.group.servers[0].store._journal is None

    def test_full_restore_marks_chain_dirty(self):
        service = make_service()
        put_versions(service, "x", [0])
        full = service.snapshot(full=True)
        service.snapshot()  # start an incremental chain
        put_versions(service, "x", [1])
        fp_before = snap_fp(full)  # unchanged by later ops
        service.restore(full)
        assert snap_fp(reference_full(service)) == fp_before
        ckpt = service.staging.checkpointer
        assert ckpt.dirty and ckpt.wants_full()
        # Next incremental snapshot re-bases on the restored state.
        snap = service.snapshot()
        assert is_cow_snapshot(snap) and snap["chain"]["deltas"] == ()
        assert not ckpt.dirty

    def test_chain_restore_rebases_future_deltas(self):
        service = make_service()
        put_versions(service, "x", [0])
        s0 = service.snapshot()
        put_versions(service, "x", [1, 2])
        service.snapshot()
        service.restore(s0)  # rollback to the base epoch
        put_versions(service, "x", [3])
        s1 = service.snapshot()
        # The post-rollback delta chains onto the restored snapshot, not the
        # rolled-back epochs: composing yields versions {0, 3} only.
        composed = compose_chain(s1["chain"])
        versions = set()
        for s in composed["servers"]:
            for name, vs in s["store"].get("versions", {}).items():
                versions |= vs
        assert versions == {0, 3}


class TestCoveredFastPaths:
    def test_multi_fragment_coverage_still_exact(self):
        store = ObjectStore()
        for lo, hi in ((0, 4), (4, 8)):
            store.put(ObjectDescriptor("x", 0, BBox((lo,), (hi,))), np.arange(lo, hi) * 1.0)
        for lo, hi, covered in ((0, 8, True), (2, 6, True), (2, 9, False)):
            assert store.covers(ObjectDescriptor("x", 0, BBox((lo,), (hi,)))) is covered
        # Overlapping fragments: their summed volume exceeds the region but
        # holes remain, so coverage must not be claimed.
        for lo, hi in ((0, 4), (1, 5), (2, 6)):
            # A payload keyed by global position, so overlaps agree.
            store.put(ObjectDescriptor("y", 0, BBox((lo,), (hi,))), np.arange(lo, hi) * 1.0)
        assert not store.covers(ObjectDescriptor("y", 0, BBox((0,), (12,))))


class TestObsReport:
    def test_checkpoint_report_renders_and_empty_without_activity(self):
        from repro.analysis.obs_report import checkpoint_report

        assert checkpoint_report(snapshot={}) == ""
        service = make_service()
        put_versions(service, "x", [0])
        service.snapshot()
        put_versions(service, "x", [1])
        service.snapshot()
        out = checkpoint_report()
        assert "checkpointing" in out
        assert "captures (full / incremental)" in out
        assert "gate (quiesce window) s" in out
