"""Multiplexed RPC core: demux correctness, deadlines, admission control.

The marquee property: N concurrent caller threads sharing ONE socket (the
mux default) each get back exactly the bytes they stored, under random
payload shapes and thread interleavings, with completions arriving out of
order (a slow-faulted request must not delay its neighbours). Plus the
regression matrix for the new typed errors: DeadlineExceeded for requests
that expire before the server runs them, ServerBusy when the bounded
in-flight queue sheds, and drain-before-close on ``admin:shutdown``. And the
two halves of a call: pending replies that complete out of order, time out
or die with their connection one by one, and leave nothing behind when
abandoned.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.descriptors import ObjectDescriptor
from repro.errors import (
    DeadlineExceeded,
    ServerBusy,
    ServerUnavailable,
    TransientServerError,
)
from repro.faults import FaultPlan, inject_faults
from repro.geometry import BBox, Domain
from repro.net.frames import Frame, MuxFrameDecoder, ProtocolError, frame_header_v2
from repro.net.mux import current_deadline, deadline_scope
from repro.net.protocol import encode_request_iov
from repro.net.shm import ShmTransport
from repro.net.tcp import TcpTransport
from repro.obs import get_registry
from repro.staging import StagingClient, StagingGroup
from repro.staging.resilience import RetryPolicy

from tests.conftest import make_payload

pytestmark = pytest.mark.integration

#: This suite always exercises a *wire* transport (mux lives in the wire
#: stack); under the CI transport matrix it follows REPRO_TRANSPORT so the
#: concurrency dimension runs over shm's doorbell connections too.
WIRE = (
    "shm"
    if os.environ.get("REPRO_TRANSPORT", "").strip().lower() == "shm"
    else "tcp"
)

WireTransport = ShmTransport if WIRE == "shm" else TcpTransport

DOMAIN = Domain((16, 16, 8))
FULL = BBox((0, 0, 0), (16, 16, 8))


@pytest.fixture(scope="module")
def mux_group():
    """One long-lived 2-server TCP group shared by the demux properties —
    spawning processes per hypothesis example would dominate the runtime."""
    group = StagingGroup.create(DOMAIN, num_servers=2, transport=WIRE)
    yield group
    group.close()


def _endpoint(group, sid=0):
    return group.servers[sid]._endpoint


# ---------------------------------------------------------------------------
# frame-level: v2 frames demux at any split; a v1 frame anywhere in the mix
# ends the stream with ProtocolError after everything before it was delivered


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.binary(max_size=48),
            st.one_of(st.none(), st.integers(1, 2**64 - 1)),
            st.floats(0, 1e9),
        ),
        max_size=6,
    ),
    st.integers(1, 9),
)
def test_mux_decoder_any_split_any_version_mix(frames, chunk):
    stream = b""
    for payload, rid, deadline in frames:
        if rid is None:
            stream += len(payload).to_bytes(4, "big") + payload
        else:
            stream += frame_header_v2(len(payload), rid, deadline) + payload
    first_v1 = next((i for i, f in enumerate(frames) if f[1] is None), len(frames))
    dec = MuxFrameDecoder()
    got = []
    try:
        for i in range(0, len(stream), chunk):
            dec.feed(stream[i : i + chunk])
            got += dec.frames()
    except ProtocolError:
        assert first_v1 < len(frames), "a pure v2 stream was rejected"
        got += dec.frames()
    else:
        assert first_v1 == len(frames), "a v1 frame was accepted"
        dec.close()
    assert len(got) == first_v1
    for out, (payload, rid, deadline) in zip(got, frames):
        assert isinstance(out, Frame)
        assert bytes(out.payload) == payload
        assert out.request_id == rid
        assert out.deadline == pytest.approx(deadline)


# ---------------------------------------------------------------------------
# the marquee property: N callers, one socket, byte-identical demux


_example_counter = itertools.count()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seeds=st.lists(st.integers(0, 2**16), min_size=4, max_size=8))
def test_concurrent_callers_get_byte_identical_replies(mux_group, seeds):
    """Each thread writes its own object and reads it back (twice, with a
    barrier in between to maximise interleaving); every reply must demux to
    exactly that thread's bytes. Payload sizes differ per thread so
    completions genuinely reorder on the shared connection."""
    n = len(seeds)
    endpoint = _endpoint(mux_group)
    shared = endpoint._connection()
    # Fresh names every example: the module-scoped group keeps state, and a
    # re-put of an old name with different geometry is a VersionConflict.
    run = next(_example_counter)
    version = 1
    barrier = threading.Barrier(n)
    failures: list = []

    def worker(idx: int, seed: int) -> None:
        try:
            name = f"mux-{run}-{idx}"
            # Distinct extents per thread → distinct payload sizes.
            hi = 4 + (seed % 12)
            desc = ObjectDescriptor(name, version, BBox((0, 0, 0), (hi, hi, 8)))
            payload = make_payload(desc, seed=seed)
            client = StagingClient(mux_group, client_id=f"t{idx}")
            barrier.wait(timeout=30)
            client.put(desc, payload)
            got = client.get(desc)
            np.testing.assert_array_equal(got, payload)
            got2 = client.get(desc)
            np.testing.assert_array_equal(got2, payload)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append((idx, exc))

    threads = [
        threading.Thread(target=worker, args=(i, s)) for i, s in enumerate(seeds)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures, failures
    # All of that rode the endpoint's one shared socket.
    assert endpoint._conn is shared and not shared.dead


# ---------------------------------------------------------------------------
# out-of-order completion: slow fault delays one request, not the connection


def test_slow_fault_delays_only_its_own_request():
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    try:
        client = StagingClient(group, client_id="w")
        desc = ObjectDescriptor("shared", 1, DOMAIN.bbox)
        client.put(desc, make_payload(desc))
        # Next data op on server 0 sleeps 0.6 s inside the worker pool.
        inject_faults(group, [FaultPlan(server=0, op=0, kind="slow", latency=0.6)])

        slow_done = threading.Event()

        def slow_reader():
            StagingClient(group, client_id="slow").get(desc)
            slow_done.set()

        t = threading.Thread(target=slow_reader)
        t.start()
        time.sleep(0.1)  # let the slow get reach the server first
        t0 = time.perf_counter()
        got = StagingClient(group, client_id="fast").get(desc)
        fast_elapsed = time.perf_counter() - t0
        np.testing.assert_array_equal(got, make_payload(desc))
        # The fast get overtook the slow one on the same shared connection.
        assert not slow_done.is_set()
        assert fast_elapsed < 0.45, f"fast request waited {fast_elapsed:.3f}s"
        t.join(timeout=30)
        assert slow_done.is_set()
    finally:
        group.close()


# ---------------------------------------------------------------------------
# pending replies: a call's two halves (submit → PendingReply → wait)


def _inflight() -> float:
    return get_registry().gauge("net.mux.inflight").value


def _slow_group(latency: float, calls: int = 1):
    """One server holding one object, its next ``calls`` data ops slowed."""
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    desc = ObjectDescriptor("pend", 1, DOMAIN.bbox)
    StagingClient(group, client_id="w").put(desc, make_payload(desc))
    inject_faults(
        group, [FaultPlan(server=0, op=0, kind="slow", latency=latency, calls=calls)]
    )
    return group, desc


def test_pending_replies_complete_out_of_order():
    group, desc = _slow_group(0.5)
    try:
        server = group.servers[0]
        slow = server.begin("get", (desc,))  # first in, sleeps in a worker
        fast = server.begin("query_versions", ("pend",))
        t0 = time.perf_counter()
        assert fast.result() == [1]
        assert time.perf_counter() - t0 < 0.35, "the later request waited its turn"
        assert not slow.reply.answered(0)
        np.testing.assert_array_equal(slow.result(), make_payload(desc))
        assert _endpoint(group)._conn.pending_count == 0
    finally:
        group.close()


def test_timeout_fails_only_its_own_request():
    group, desc = _slow_group(0.6)
    try:
        server = group.servers[0]
        shared = _endpoint(group)._connection()
        with deadline_scope(time.time() + 0.15):
            doomed = server.begin("get", (desc,))
        sibling = server.begin("get", (desc,))  # no deadline: default timeout
        with pytest.raises(TransientServerError, match="timeout"):
            doomed.result()
        np.testing.assert_array_equal(sibling.result(), make_payload(desc))
        # The connection outlived the timeout; the late reply is dropped by id.
        assert _endpoint(group)._conn is shared and not shared.dead
        assert server.ping()
        assert shared.pending_count == 0
    finally:
        group.close()


def test_dead_connection_fails_every_pending_handle():
    group, desc = _slow_group(0.5, calls=0)
    try:
        server = group.servers[0]
        endpoint = _endpoint(group)
        before = _inflight()
        handles = [server.begin("get", (desc,)) for _ in range(3)]
        assert _inflight() == before + 3
        endpoint.process.kill()
        endpoint.process.join(timeout=10)
        for handle in handles:
            with pytest.raises(ServerUnavailable):
                handle.result()
        assert _inflight() == before
        # ... and so does one begun after the process died (the failure to
        # send is kept on the handle, not raised by the begin half).
        late = server.begin("get", (desc,))
        with pytest.raises(ServerUnavailable):
            late.result()
    finally:
        group.close()


def test_abandoned_handle_leaves_nothing_pending():
    group, desc = _slow_group(0.3)
    try:
        server = group.servers[0]
        before = _inflight()
        handle = server.begin("get", (desc,))
        conn = _endpoint(group)._conn
        assert conn.pending_count == 1 and _inflight() == before + 1
        handle.abandon()
        assert conn.pending_count == 0 and _inflight() == before
        handle.abandon()  # idempotent
        assert _inflight() == before
        with pytest.raises(RuntimeError, match="already settled"):
            handle.result()
        # The stray reply is dropped by id; the connection carries on.
        time.sleep(0.4)
        np.testing.assert_array_equal(server.get(desc), make_payload(desc))
        assert _endpoint(group)._conn is conn and not conn.dead
    finally:
        group.close()


def test_overlapped_burst_is_windowed_below_queue_depth():
    """One thread begins far more requests than the server admits at once:
    the begin half holds frames back instead of letting the server shed."""
    group = StagingGroup.create(
        DOMAIN, num_servers=1, transport=WireTransport(queue_depth=4, workers=2)
    )
    try:
        server = group.servers[0]
        handles = [server.begin("query_versions", (f"x{v}",)) for v in range(40)]
        assert [h.result() for h in handles] == [[]] * 40
        metrics = _endpoint(group).request("admin:metrics", ())
        assert metrics["net.mux.shed"]["value"] == 0
    finally:
        group.close()


# ---------------------------------------------------------------------------
# deadline propagation


def test_deadline_scope_nesting_tightens_only():
    assert current_deadline() == 0.0
    with deadline_scope(100.0):
        assert current_deadline() == 100.0
        with deadline_scope(50.0):
            assert current_deadline() == 50.0
            with deadline_scope(200.0):  # may not loosen the outer bound
                assert current_deadline() == 50.0
        assert current_deadline() == 100.0
    assert current_deadline() == 0.0


def test_expired_deadline_dropped_server_side_typed():
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    try:
        endpoint = _endpoint(group)
        with deadline_scope(time.time() - 1.0):
            with pytest.raises(DeadlineExceeded) as err:
                endpoint.request("query_versions", ("x",))
        assert isinstance(err.value, TransientServerError)  # retryable path
        metrics = endpoint.request("admin:metrics", ())
        assert metrics["net.mux.deadline_drops"]["value"] >= 1
        # The connection survived the drop and admin ops ignore deadlines.
        with deadline_scope(time.time() - 1.0):
            assert group.servers[0].ping()
    finally:
        group.close()


def test_live_deadline_requests_execute_normally():
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    try:
        desc = ObjectDescriptor("d", 1, DOMAIN.bbox)
        payload = make_payload(desc)
        client = StagingClient(group, client_id="w")
        # _server_op stamps its retry budget into every header; nothing
        # should expire on a healthy fast path.
        client.put(desc, payload)
        np.testing.assert_array_equal(client.get(desc), payload)
        metrics = _endpoint(group).request("admin:metrics", ())
        assert metrics["net.mux.deadline_drops"]["value"] == 0
    finally:
        group.close()


# ---------------------------------------------------------------------------
# admission control


def test_queue_full_sheds_with_server_busy():
    group = StagingGroup.create(
        DOMAIN, num_servers=1, transport=WireTransport(queue_depth=1, workers=1)
    )
    try:
        client = StagingClient(group, client_id="w")
        desc = ObjectDescriptor("q", 1, DOMAIN.bbox)
        client.put(desc, make_payload(desc))
        inject_faults(group, [FaultPlan(server=0, op=0, kind="slow", latency=0.8)])
        endpoint = _endpoint(group)

        t = threading.Thread(
            target=lambda: StagingClient(group, client_id="slow").get(desc)
        )
        t.start()
        time.sleep(0.2)  # the slow get now occupies the only admission slot
        with pytest.raises(ServerBusy) as err:
            endpoint.request("query_versions", ("q",))
        assert isinstance(err.value, TransientServerError)
        t.join(timeout=30)
        metrics = endpoint.request("admin:metrics", ())
        assert metrics["net.mux.shed"]["value"] >= 1
        assert metrics["net.mux.queue_depth"]["value"] == 1
    finally:
        group.close()


def test_shed_requests_are_retried_transparently_by_client():
    # Enough retry budget to outlast the 0.4 s busy window (the default
    # policy's total backoff is tens of milliseconds — tuned for transient
    # blips, not a saturated queue).
    retry = RetryPolicy(max_attempts=30, base_backoff=0.05, max_backoff=0.1)
    group = StagingGroup.create(
        DOMAIN,
        num_servers=1,
        transport=WireTransport(queue_depth=1, workers=1),
        retry=retry,
    )
    try:
        client = StagingClient(group, client_id="w")
        desc = ObjectDescriptor("r", 1, DOMAIN.bbox)
        client.put(desc, make_payload(desc))
        inject_faults(group, [FaultPlan(server=0, op=0, kind="slow", latency=0.4)])

        t = threading.Thread(
            target=lambda: StagingClient(group, client_id="slow").get(desc)
        )
        t.start()
        time.sleep(0.1)
        # ServerBusy is TransientServerError: _server_op backs off and
        # retries until the worker frees up — the caller never sees the shed.
        got = StagingClient(group, client_id="fast").get(desc)
        np.testing.assert_array_equal(got, make_payload(desc))
        t.join(timeout=30)
        metrics = _endpoint(group).request("admin:metrics", ())
        assert metrics["net.mux.shed"]["value"] >= 1
    finally:
        group.close()


# ---------------------------------------------------------------------------
# clean shutdown drains in-flight work


def test_shutdown_drains_inflight_requests():
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    client = StagingClient(group, client_id="w")
    desc = ObjectDescriptor("drain", 1, DOMAIN.bbox)
    payload = make_payload(desc)
    client.put(desc, payload)
    inject_faults(group, [FaultPlan(server=0, op=0, kind="slow", latency=0.5)])

    result: dict = {}

    def slow_reader():
        try:
            result["value"] = StagingClient(group, client_id="slow").get(desc)
        except Exception as exc:  # noqa: BLE001 - asserted below
            result["error"] = exc

    t = threading.Thread(target=slow_reader)
    t.start()
    time.sleep(0.15)  # the get is admitted and sleeping in a worker
    group.close()  # admin:shutdown → drain → exit
    t.join(timeout=30)
    assert "error" not in result, f"in-flight get failed: {result.get('error')!r}"
    np.testing.assert_array_equal(result["value"], payload)


# ---------------------------------------------------------------------------
# foreign streams: the server hangs up on them, and only on them


def _read_until_eof(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection."""
    sock.settimeout(10)
    received = b""
    while True:
        try:
            data = sock.recv(4096)
        except ConnectionResetError:
            return received
        if not data:
            return received
        received += data


def test_non_v2_streams_are_disconnected_without_disturbing_mux_clients():
    """A raw socket speaking the retired v1 layout (or opening with any
    other word) is closed unanswered; a mux client on its own connection
    keeps getting byte-identical replies throughout."""
    group = StagingGroup.create(DOMAIN, num_servers=1, transport=WIRE)
    try:
        endpoint = _endpoint(group)
        desc = ObjectDescriptor("steady", 1, DOMAIN.bbox)
        payload = make_payload(desc)
        client = StagingClient(group, client_id="steady")
        client.put(desc, payload)
        shared = endpoint._connection()

        stop = threading.Event()
        failures: list = []
        rounds = [0]

        def steady_reader():
            try:
                while not stop.is_set():
                    np.testing.assert_array_equal(client.get(desc), payload)
                    rounds[0] += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        t = threading.Thread(target=steady_reader)
        t.start()
        try:
            ping = b"".join(bytes(p) for p in encode_request_iov("admin:ping", ()))
            v1_frame = struct.pack("!I", len(ping)) + ping
            for foreign in (v1_frame, struct.pack("!I", 0x12345678) + b"x" * 64):
                before = rounds[0]
                with socket.create_connection(("127.0.0.1", endpoint.port)) as raw:
                    raw.sendall(foreign)
                    assert _read_until_eof(raw) == b""  # no reply, just EOF
                deadline = time.time() + 10
                while rounds[0] < before + 3 and time.time() < deadline:
                    time.sleep(0.01)
                assert rounds[0] >= before + 3, "mux client stalled"
        finally:
            stop.set()
            t.join(timeout=30)
        assert not failures, failures
        assert endpoint._conn is shared and not shared.dead
        assert group.servers[0].ping()
    finally:
        group.close()
