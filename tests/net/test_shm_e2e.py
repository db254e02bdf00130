"""End-to-end tests against real server processes over the shm transport.

Mirrors ``test_tcp_e2e.py`` — the whole fault surface (kill, rebuild,
injected faults, typed errors) must behave identically when bulk payloads
ride shared-memory segments — plus shm-only concerns: segment-leak
hygiene, wire fallback under pool exhaustion, and lease stability of
zero-copy reply views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.descriptors import ObjectDescriptor
from repro.errors import ObjectNotFound, ServerUnavailable
from repro.faults import FaultPlan, inject_faults
from repro.geometry import BBox, Domain
from repro.net.shm import (
    SegmentPool,
    ShmTransport,
    leaked_segment_names,
)
from repro.staging import ProtectionConfig, StagingClient, StagingGroup
from repro.staging.resilience import rebuild_server

from tests.conftest import make_payload

pytestmark = pytest.mark.integration

# 128 KiB of float64: with 2 servers × 4 placement blocks each, every shard
# is ~16 KiB — comfortably above MIN_ARRAY_BYTES, so bulk payloads genuinely
# ride segments (a smaller domain would shard below the inline threshold and
# quietly test the wire path instead).
DOMAIN = Domain((32, 32, 16))


@pytest.fixture
def shm_group():
    group = StagingGroup.create(DOMAIN, num_servers=2, transport="shm")
    yield group
    group.close()


def desc(name: str = "u", version: int = 0) -> ObjectDescriptor:
    return ObjectDescriptor(name, version, DOMAIN.bbox)


def _counter(name: str) -> int:
    from repro.obs import get_registry

    counter = get_registry().get(name)
    return 0 if counter is None else counter.value


class TestRoundTrips:
    def test_put_get_byte_identical_to_inproc(self, shm_group):
        """The same workload through both transports yields identical bytes."""
        inproc = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        d = desc()
        payload = make_payload(d)
        for g in (shm_group, inproc):
            StagingClient(g, client_id="w").put(d, payload)
        a = StagingClient(shm_group, client_id="r").get(d)
        b = StagingClient(inproc, client_id="r").get(d)
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(a, payload)

    def test_payloads_actually_ride_segments(self, shm_group):
        """Not just correct — the bulk bytes must go out-of-band: puts bump
        the oob counter, gets bump the grant counter, nothing falls back."""
        d = desc()
        payload = make_payload(d)
        oob, grants, fallbacks = (
            _counter("net.shm.oob_bytes"),
            _counter("net.shm.grant_bytes"),
            _counter("net.shm.wire_fallbacks"),
        )
        client = StagingClient(shm_group, client_id="w")
        client.put(d, payload)
        got = client.get(d)
        np.testing.assert_array_equal(got, payload)
        assert _counter("net.shm.oob_bytes") - oob >= payload.nbytes
        assert _counter("net.shm.grant_bytes") - grants >= payload.nbytes
        assert _counter("net.shm.wire_fallbacks") == fallbacks

    def test_retaining_get_many_still_lands_in_the_grant(self, shm_group):
        """A ``get_many`` carrying non-logged retention (``retain``) is still
        granted a response slab, and the eviction runs after the serve."""
        server = shm_group.servers[0]
        box = BBox((0, 0, 0), (8, 8, 8))  # 4 KiB shards: segment-eligible
        descs = [ObjectDescriptor("u", v, box) for v in range(3)]
        for d in descs:
            server.put_many([(d, make_payload(d))])
        grants, fallbacks = (
            _counter("net.shm.grant_bytes"),
            _counter("net.shm.wire_fallbacks"),
        )
        got = server.get_many(descs[:1], ("u", float("inf")))
        np.testing.assert_array_equal(got[0], make_payload(descs[0]))
        assert _counter("net.shm.grant_bytes") > grants
        assert _counter("net.shm.wire_fallbacks") == fallbacks
        assert server.query_versions("u") == [2]

    def test_dispatcher_gathers_a_retaining_get_many_into_the_sink(self):
        """Server side of the same path: the granted reply is assembled in
        the reserved slab views, whatever follows the descriptors."""
        from repro.net.tcpserver import Dispatcher

        class Sink:
            def __init__(self):
                self.reserved = []

            def mark(self):
                return len(self.reserved)

            def rollback(self, mark):
                del self.reserved[mark:]

            def reserve(self, shape, dtype):
                self.reserved.append(np.empty(shape, dtype))
                return self.reserved[-1]

        dispatcher = Dispatcher(0)
        box = BBox((0, 0, 0), (4, 4, 4))
        descs = [ObjectDescriptor("u", v, box) for v in range(2)]
        for d in descs:
            dispatcher.execute("put_many", ([(d, make_payload(d))],))
        sink = Sink()
        got = dispatcher._execute_granted("get_many", (descs[:1], ("u", 5)), sink)
        assert got[0] is sink.reserved[0]
        np.testing.assert_array_equal(got[0], make_payload(descs[0]))
        assert dispatcher.server.query_versions("u") == [1]

    def test_subregion_get(self, shm_group):
        d = desc()
        payload = make_payload(d)
        StagingClient(shm_group, client_id="w").put(d, payload)
        sub = BBox((2, 3, 1), (10, 12, 6))
        got = StagingClient(shm_group, client_id="r").get(
            ObjectDescriptor(d.name, d.version, sub)
        )
        np.testing.assert_array_equal(got, payload[2:10, 3:12, 1:6])

    def test_missing_object_raises_not_found_typed(self, shm_group):
        with pytest.raises(ObjectNotFound):
            StagingClient(shm_group, client_id="r").get(desc("nope", 9))

    def test_many_versions_round_trip(self, shm_group):
        client = StagingClient(shm_group, client_id="w")
        for v in range(4):
            client.put(desc("u", v), make_payload(desc("u", v)))
        for v in range(4):
            np.testing.assert_array_equal(
                client.get(desc("u", v)), make_payload(desc("u", v))
            )

    def test_snapshot_restore_round_trips_state(self, shm_group):
        """restore retains decoded arrays server-side, so it is deliberately
        NOT a segment op — this exercises the wire path staying correct."""
        client = StagingClient(shm_group, client_id="w")
        d = desc()
        client.put(d, make_payload(d))
        snaps = [s.snapshot() for s in shm_group.servers]
        for s in shm_group.servers:
            s.store.clear()
            s.rebuild_index()
        with pytest.raises(ObjectNotFound):
            client.get(d)
        for s, snap in zip(shm_group.servers, snaps):
            s.restore(snap)
        np.testing.assert_array_equal(client.get(d), make_payload(d))

    def test_large_payload_uses_grants(self):
        """A ≥1 MiB object per server — the slab-growth path (power-of-two
        rounding past the minimum slab) and large grants."""
        big_domain = Domain((64, 64, 64))  # 2 MiB of float64
        group = StagingGroup.create(big_domain, num_servers=2, transport="shm")
        try:
            d = ObjectDescriptor("big", 0, big_domain.bbox)
            payload = make_payload(d)
            client = StagingClient(group, client_id="w")
            oob = _counter("net.shm.oob_bytes")
            client.put(d, payload)
            np.testing.assert_array_equal(client.get(d), payload)
            assert _counter("net.shm.oob_bytes") - oob >= payload.nbytes
        finally:
            group.close()


class TestBatching:
    def test_server_vector_ops_are_single_round_trips(self, shm_group):
        server = shm_group.servers[0]
        box = BBox((0, 0, 0), (8, 8, 8))  # 4 KiB shards: segment-eligible
        descs = [ObjectDescriptor("u", v, box) for v in range(6)]
        shards = [(d, make_payload(d)) for d in descs]
        before = _counter("net.tcp.requests")
        server.put_many(shards)
        assert _counter("net.tcp.requests") - before == 1
        before = _counter("net.tcp.requests")
        got = server.get_many(descs)
        assert _counter("net.tcp.requests") - before == 1
        for g, (_d, p) in zip(got, shards):
            np.testing.assert_array_equal(g, p)


class TestWireFallback:
    def test_exhausted_pool_falls_back_to_wire_frames(self, shm_group):
        """With zero-capacity pools every acquire fails; the transport must
        degrade to plain TCP frames with identical results."""
        for endpoint in shm_group.transport.endpoints():
            endpoint.pool.close()
            endpoint.pool = SegmentPool(capacity_bytes=0)
        fallbacks = _counter("net.shm.wire_fallbacks")
        d = desc()
        payload = make_payload(d)
        client = StagingClient(shm_group, client_id="w")
        client.put(d, payload)
        np.testing.assert_array_equal(client.get(d), payload)
        assert _counter("net.shm.wire_fallbacks") > fallbacks
        assert shm_group.transport.segment_names() == []


class TestLeases:
    def test_reply_views_stable_across_later_traffic(self, shm_group):
        """A zero-copy reply view must keep its bytes while later requests
        recycle pool slabs — the lease holds the slab out of rotation."""
        server = shm_group.servers[0]
        sid, shard_box = shm_group.placement.shards(desc().bbox)[0]
        shard_desc = ObjectDescriptor("u", 0, shard_box)
        payload = make_payload(shard_desc)
        shm_group.servers[sid].put(shard_desc, payload)
        view = shm_group.servers[sid].get(shard_desc)
        frozen = view.tobytes()
        for v in range(1, 5):  # churn the pool
            d2 = ObjectDescriptor("churn", v, shard_box)
            shm_group.servers[sid].put(d2, make_payload(d2))
            shm_group.servers[sid].get(d2)
        assert view.tobytes() == frozen
        np.testing.assert_array_equal(view, payload)

    def test_leased_view_can_be_re_put(self, shm_group):
        """Re-putting a reply view exercises the codec's ndarray-subclass
        path: the lease must never be pickled onto the wire."""
        sid, shard_box = shm_group.placement.shards(desc().bbox)[0]
        d = ObjectDescriptor("u", 0, shard_box)
        payload = make_payload(d)
        shm_group.servers[sid].put(d, payload)
        view = shm_group.servers[sid].get(d)
        d2 = ObjectDescriptor("copy", 1, shard_box)
        shm_group.servers[sid].put(d2, view)
        np.testing.assert_array_equal(shm_group.servers[sid].get(d2), payload)

    def test_request_that_fails_to_encode_retires_its_slabs(self, shm_group):
        """A slab is taken before the request is encoded; when encoding then
        fails (an unpicklable trailing ``retain``), the request-side slab of
        a put_many and the grant of a get_many are both retired, not left
        checked out, and the pool keeps serving."""
        server = shm_group.servers[0]
        endpoint = shm_group.transport.endpoints()[0]
        box = BBox((0, 0, 0), (8, 8, 8))  # 4 KiB shards: segment-eligible
        descs = [ObjectDescriptor("enc", v, box) for v in range(4)]
        shards = [(d, make_payload(d)) for d in descs]
        for op, args in (("put_many", (shards,)), ("get_many", (descs,))):
            retired = _counter("net.shm.segments_retired")
            with pytest.raises(AttributeError, match="pickle"):
                getattr(server, op)(*args, lambda: None)
            assert _counter("net.shm.segments_retired") == retired + 1, op
            assert not endpoint.pool._busy, op
        server.put_many(shards)
        for got, (_d, p) in zip(server.get_many(descs), shards):
            np.testing.assert_array_equal(got, p)
        assert not endpoint.pool._busy


class TestFailStop:
    def test_killed_server_process_maps_to_server_unavailable(self, shm_group):
        transport = shm_group.transport
        endpoint = transport.endpoints()[0]
        endpoint.process.kill()
        endpoint.process.join(timeout=10)
        with pytest.raises(ServerUnavailable):
            shm_group.servers[0].summary()

    def test_killed_server_leaves_no_segments_behind(self):
        """Slabs in flight toward a killed server are retired; close()
        unlinks everything the transport ever created."""
        group = StagingGroup.create(DOMAIN, num_servers=2, transport="shm")
        d = desc()
        payload = make_payload(d)
        StagingClient(group, client_id="w").put(d, payload)
        names_live = group.transport.segment_names()
        assert names_live  # the put left pooled slabs behind
        endpoint = group.transport.endpoints()[0]
        endpoint.process.kill()
        endpoint.process.join(timeout=10)
        with pytest.raises(ServerUnavailable):
            group.servers[0].put(desc("u", 1), payload)
        group.close()
        assert group.transport.segment_names() == []
        assert not (set(names_live) & set(leaked_segment_names()))

    def test_sibling_failure_in_a_fan_out_leases_and_leaks_nothing(self):
        """One server of a scatter/gather dies: every other server's reply
        is still consumed, so its slabs go back to the pool (none stays
        leased), the dead server's are retired, and close() leaves
        ``/dev/shm`` clean."""
        group = StagingGroup.create(DOMAIN, num_servers=4, transport="shm")
        client = StagingClient(group, client_id="w")
        d = desc()
        payload = make_payload(d)
        placed = _counter("net.shm.oob_bytes")
        client.put(d, payload)
        assert _counter("net.shm.oob_bytes") > placed  # shards do ride segments
        victim = group.transport.endpoints()[2]
        victim.process.kill()
        victim.process.join(timeout=10)
        for attempt in (lambda: client.get(d), lambda: client.put(desc("u", 1), payload)):
            with pytest.raises(ServerUnavailable):
                attempt()
            for endpoint in group.transport.endpoints():
                assert not endpoint.pool._busy, f"slab still leased @{endpoint.server_id}"
                conn = endpoint._conn
                assert conn is None or conn.pending_count == 0
        names_live = group.transport.segment_names()
        group.close()
        assert group.transport.segment_names() == []
        assert not (set(names_live) & set(leaked_segment_names()))

    def test_rebuild_replaces_dead_process(self):
        group = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            transport="shm",
            protection=ProtectionConfig(mode="rs", parity=2),
        )
        try:
            d = desc()
            payload = make_payload(d)
            client = StagingClient(group, client_id="w")
            client.put(d, payload)
            victim = group.transport.endpoints()[0]
            victim.process.kill()
            victim.process.join(timeout=10)
            group.health.mark_down(0)
            rebuilt = rebuild_server(group, 0)
            assert rebuilt > 0
            assert group.servers[0].ping()
            assert group.health.state(0) == "up"
            group.drop_protection()
            np.testing.assert_array_equal(client.get(d), payload)
        finally:
            group.close()


class TestFaultInjection:
    def test_injected_crash_fires_inside_server_process(self, shm_group):
        d = desc()
        payload = make_payload(d)
        StagingClient(shm_group, client_id="w").put(d, payload)
        sid, shard_box = shm_group.placement.shards(d.bbox)[0]
        shard_desc = ObjectDescriptor(d.name, d.version, shard_box)
        handle = inject_faults(shm_group, [FaultPlan(server=sid, op=0, kind="crash")])
        with pytest.raises(ServerUnavailable):
            shm_group.servers[sid].get(shard_desc)
        assert handle.pending_count == 0
        assert any(p.kind == "crash" and p.server == sid for p in handle.fired)
        shm_group.servers[sid].heal()
        region = tuple(slice(lo, hi) for lo, hi in zip(shard_box.lo, shard_box.hi))
        np.testing.assert_array_equal(
            shm_group.servers[sid].get(shard_desc), payload[region]
        )


class TestLifecycle:
    def test_close_terminates_processes_and_unlinks_segments(self):
        group = StagingGroup.create(DOMAIN, num_servers=2, transport="shm")
        d = desc()
        StagingClient(group, client_id="w").put(d, make_payload(d))
        names = group.transport.segment_names()
        procs = [e.process for e in group.transport.endpoints()]
        assert all(p.is_alive() for p in procs)
        group.close()
        for p in procs:
            p.join(timeout=10)
        assert not any(p.is_alive() for p in procs)
        assert group.transport.segment_names() == []
        assert not (set(names) & set(leaked_segment_names()))

    def test_close_is_idempotent(self):
        group = StagingGroup.create(DOMAIN, num_servers=1, transport="shm")
        group.close()
        group.close()

    def test_transport_resolution(self, monkeypatch):
        from repro.net import resolve_transport

        assert resolve_transport("shm").name == "shm"
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        t = resolve_transport(None)
        assert isinstance(t, ShmTransport)
        existing = ShmTransport()
        assert resolve_transport(existing) is existing
        existing.close()
