"""End-to-end tests against real TCP server processes.

These always run over TCP regardless of ``REPRO_TRANSPORT`` — they are the
transport's own suite. Everything here spawns real processes, so groups are
kept small and shared where state allows.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.descriptors import ObjectDescriptor
from repro.errors import ObjectNotFound, ServerUnavailable, StagingError
from repro.faults import FaultPlan, inject_faults
from repro.geometry import BBox, Domain
from repro.net.codec import encode_iov
from repro.net.protocol import decode_message
from repro.net.tcp import TcpTransport
from repro.staging import ProtectionConfig, StagingClient, StagingGroup, StagingServer
from repro.staging.resilience import rebuild_server

from tests.conftest import make_payload

pytestmark = pytest.mark.integration

DOMAIN = Domain((16, 16, 8))


@pytest.fixture
def tcp_group():
    group = StagingGroup.create(DOMAIN, num_servers=2, transport="tcp")
    yield group
    group.close()


def desc(name: str = "u", version: int = 0) -> ObjectDescriptor:
    return ObjectDescriptor(name, version, DOMAIN.bbox)


class TestRoundTrips:
    def test_put_get_byte_identical_to_inproc(self, tcp_group):
        """The same workload through both transports yields identical bytes."""
        inproc = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        d = desc()
        payload = make_payload(d)
        for g in (tcp_group, inproc):
            StagingClient(g, client_id="w").put(d, payload)
        a = StagingClient(tcp_group, client_id="r").get(d)
        b = StagingClient(inproc, client_id="r").get(d)
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(a, payload)

    def test_subregion_get(self, tcp_group):
        d = desc()
        payload = make_payload(d)
        StagingClient(tcp_group, client_id="w").put(d, payload)
        sub = BBox((2, 3, 1), (10, 12, 6))
        got = StagingClient(tcp_group, client_id="r").get(
            ObjectDescriptor(d.name, d.version, sub)
        )
        np.testing.assert_array_equal(got, payload[2:10, 3:12, 1:6])

    def test_missing_object_raises_not_found_typed(self, tcp_group):
        with pytest.raises(ObjectNotFound):
            StagingClient(tcp_group, client_id="r").get(desc("nope", 9))

    def test_many_versions_round_trip(self, tcp_group):
        client = StagingClient(tcp_group, client_id="w")
        for v in range(4):
            client.put(desc("u", v), make_payload(desc("u", v)))
        for v in range(4):
            np.testing.assert_array_equal(
                client.get(desc("u", v)), make_payload(desc("u", v))
            )

    def test_snapshot_restore_round_trips_state(self, tcp_group):
        client = StagingClient(tcp_group, client_id="w")
        d = desc()
        client.put(d, make_payload(d))
        snaps = [s.snapshot() for s in tcp_group.servers]
        for s in tcp_group.servers:
            s.restore(StagingServer.empty_snapshot())
        with pytest.raises(ObjectNotFound):
            client.get(d)
        for s, snap in zip(tcp_group.servers, snaps):
            s.restore(snap)
        np.testing.assert_array_equal(client.get(d), make_payload(d))


def _request_count() -> int:
    from repro.obs import get_registry

    counter = get_registry().get("net.tcp.requests")
    return 0 if counter is None else counter.value


class TestBatching:
    def test_server_vector_ops_are_single_round_trips(self, tcp_group):
        """put_many/get_many are each one ``req`` frame holding the whole
        vector, never one round trip per fragment."""
        server = tcp_group.servers[0]
        box = BBox((0, 0, 0), (4, 4, 4))
        descs = [ObjectDescriptor("u", v, box) for v in range(6)]
        shards = [(d, make_payload(d)) for d in descs]
        before = _request_count()
        server.put_many(shards)
        assert _request_count() - before == 1
        before = _request_count()
        got = server.get_many(descs)
        assert _request_count() - before == 1
        for g, (_d, p) in zip(got, shards):
            np.testing.assert_array_equal(g, p)

    def test_client_put_costs_one_request_per_server(self, tcp_group):
        """A sharded put sends each server its fragments in a single RPC,
        regardless of how many placement blocks land on it."""
        d = desc()
        before = _request_count()
        StagingClient(tcp_group, client_id="w").put(d, make_payload(d))
        assert _request_count() - before <= len(tcp_group.servers)


class TestFailStop:
    def test_killed_server_process_maps_to_server_unavailable(self, tcp_group):
        transport = tcp_group.transport
        endpoint = transport.endpoints()[0]
        endpoint.process.kill()
        endpoint.process.join(timeout=10)
        with pytest.raises(ServerUnavailable):
            tcp_group.servers[0].query_versions("u")

    def test_rebuild_replaces_dead_process(self):
        """rebuild_server spawns a fresh process and repopulates it from
        survivors; afterwards the group serves the full object again."""
        group = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            transport="tcp",
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


class TestFanOut:
    def test_one_frame_per_server_all_in_flight_together(self):
        """A 4-server get is four frames — counted where they enter, one per
        ``_Endpoint.request`` — and all four are out before any is read."""
        group = StagingGroup.create(DOMAIN, num_servers=4, transport="tcp")
        try:
            client = StagingClient(group, client_id="w")
            d = desc()
            client.put(d, make_payload(d))
            inject_faults(
                group,
                [FaultPlan(server=s, op=0, kind="slow", latency=0.1) for s in range(4)],
            )
            before = _request_count()
            t0 = perf_counter()
            np.testing.assert_array_equal(client.get(d), make_payload(d))
            assert perf_counter() - t0 < 0.3  # four 0.1 s waits, overlapped
            assert _request_count() - before == 4
        finally:
            group.close()

    def test_killed_process_fails_its_call_after_the_siblings_settle(self):
        group = StagingGroup.create(DOMAIN, num_servers=4, transport="tcp")
        try:
            client = StagingClient(group, client_id="w")
            d = desc()
            client.put(d, make_payload(d))
            victim = group.transport.endpoints()[1]
            victim.process.kill()
            victim.process.join(timeout=10)
            with pytest.raises(ServerUnavailable) as err:
                client.get(d)
            assert err.value.server_id == 1
            assert group.health.state(1) == "down"
            for endpoint in group.transport.endpoints():
                conn = endpoint._conn
                assert conn is None or conn.pending_count == 0
            # The survivors' connections are untouched and still serve.
            assert all(group.servers[s].ping() for s in (0, 2, 3))
        finally:
            group.close()


class TestFaultInjection:
    def test_injected_crash_fires_inside_server_process(self, tcp_group):
        d = desc()
        payload = make_payload(d)
        StagingClient(tcp_group, client_id="w").put(d, payload)
        sid, shard_box = tcp_group.placement.shards(d.bbox)[0]
        shard_desc = ObjectDescriptor(d.name, d.version, shard_box)
        handle = inject_faults(tcp_group, [FaultPlan(server=sid, op=0, kind="crash")])
        with pytest.raises(ServerUnavailable):
            tcp_group.servers[sid].get(shard_desc)
        assert handle.pending_count == 0
        assert any(p.kind == "crash" and p.server == sid for p in handle.fired)
        tcp_group.servers[sid].heal()
        region = tuple(slice(lo, hi) for lo, hi in zip(shard_box.lo, shard_box.hi))
        np.testing.assert_array_equal(
            tcp_group.servers[sid].get(shard_desc), payload[region]
        )


class TestInspection:
    def test_store_and_index_views_read_what_local_servers_expose(self, tcp_group):
        """``RemoteServer.store`` answers like the local store — properties
        as values, methods as calls — and nothing outside the server's
        read-only allow-list is reachable, by attribute or by a hand-issued
        ``admin:inspect``: no mutator, and no second metadata copy beside
        the store."""
        inproc = StagingGroup.create(DOMAIN, num_servers=2, transport="inproc")
        for g in (tcp_group, inproc):
            client = StagingClient(g, client_id="w")
            for v in range(2):
                client.put(desc("u", v), make_payload(desc("u", v)))
        for remote, local in zip(tcp_group.servers, inproc.servers):
            assert remote.store.object_count == local.store.object_count
            assert remote.store.nbytes == local.store.nbytes
            assert remote.store.keys() == local.store.keys()
            assert remote.store.versions("u") == local.store.versions("u")
            assert remote.store.latest_version("u") == local.store.latest_version("u")
            assert remote.store.object_count > 0

        server = tcp_group.servers[0]
        for mutator in ("restore", "clear", "evict", "put"):
            with pytest.raises(AttributeError):
                getattr(server.store, mutator)  # not part of the read facade
        assert not hasattr(server, "index")
        for owner, name in (
            ("store", "restore"),
            ("store", "clear"),
            ("index", "versions"),
            ("lock", "acquire"),
        ):
            with pytest.raises(StagingError, match="not exposed"):
                server._endpoint.request("admin:inspect", (owner, name, ()))
        assert server.ping()  # a refused inspection costs nothing else


class TestNonRequestFrames:
    def test_server_refuses_frames_that_are_not_requests(self, tcp_group):
        """Only ``req`` / ``sreq`` frames are executed. A reply-shaped frame
        naming an admin op, or the retired batch frame, gets a typed error
        naming its tag; the server's data and the connection survive."""
        server = tcp_group.servers[0]
        d = ObjectDescriptor("kept", 0, BBox((0, 0, 0), (4, 4, 4)))
        payload = make_payload(d)
        server.put(d, payload)
        conn = server._endpoint._connection()
        for msg, tag in (
            (("err", "admin:reset", 0, "x"), "err"),
            (("batch", [("req", "get", (d,))]), "batch"),
        ):
            reply = decode_message(conn.call(encode_iov(msg)))
            assert reply[0] == "err" and reply[1] == "staging", reply
            assert repr(tag) in reply[3]
        assert server.query_versions("kept") == [0]
        np.testing.assert_array_equal(server.get(d), payload)
        assert server.ping()


class TestLifecycle:
    def test_close_terminates_server_processes(self):
        group = StagingGroup.create(DOMAIN, num_servers=2, transport="tcp")
        procs = [e.process for e in group.transport.endpoints()]
        assert all(p.is_alive() for p in procs)
        group.close()
        for p in procs:
            p.join(timeout=10)
        assert not any(p.is_alive() for p in procs)

    def test_close_is_idempotent(self):
        group = StagingGroup.create(DOMAIN, num_servers=1, transport="tcp")
        group.close()
        group.close()

    def test_transport_resolution(self, monkeypatch):
        from repro.net import InprocTransport, resolve_transport

        assert resolve_transport("inproc").name == "inproc"
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert isinstance(resolve_transport(None), InprocTransport)
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        assert resolve_transport(None).name == "tcp"
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")
        t = TcpTransport()
        assert resolve_transport(t) is t
        t.close()
