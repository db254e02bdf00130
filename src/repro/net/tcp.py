"""TCP transport: server processes, one connection each, remote server proxies.

The parent spawns one OS process per staging server
(:mod:`repro.net.tcpserver` is the process body) and talks to each over one
multiplexed TCP connection (:mod:`repro.net.frames`). ``group.servers`` is
populated with :class:`RemoteServer` proxies exposing the exact
:class:`~repro.staging.server.StagingServer` method surface, so the client,
resilience, checkpoint, and runtime layers run unmodified.

Wire-failure → staging-error mapping (the contract that keeps ``_server_op``
retries, ``GroupHealth`` mark-down, degraded reads, and ``rebuild_server``
working unchanged over sockets; table reproduced in DESIGN.md §13):

    ==============================  ==============================  =========
    wire failure                    mapped exception                retried?
    ==============================  ==============================  =========
    connect refused                 ServerUnavailable               no
    connect/recv timeout            TransientServerError            yes
    connection reset / broken pipe  ServerUnavailable               no
    clean EOF mid-conversation      ServerUnavailable               no
    short read (torn frame)         ServerUnavailable               no
    malformed frame / oversize      ServerUnavailable               no
    ==============================  ==============================  =========

Refused and reset are fail-stop (the process is gone — retrying cannot
help; rebuild can); timeouts are transient (the server may just be slow or
the packet lost). Any failed connection is discarded and redialled, never
reused: its stream position is unknowable after an error.

``put``/``put_many`` are acknowledged with ``None`` over the wire rather
than echoing the stored objects back (no group-level caller consumes them;
the inproc return values exist for direct server use). ``put_many`` and
``get_many`` are single ops — a whole multi-shard scatter/gather rides one
round trip.

Connections. Every endpoint *multiplexes*: all caller threads share one
socket through :class:`~repro.net.mux.MuxConnection` — frames with request
ids, replies demuxed by a reader thread, the calling thread's
:func:`~repro.net.mux.deadline_scope` deadline stamped into every header. A
*timeout* fails only its own request; any other wire failure retires the
connection for everyone sharing it, and the next request dials a fresh one.

Every frame is one request issued by :meth:`_Endpoint.request`, and exists
as a :class:`_PendingCall` until its reply is consumed. A transport decides
only where the request's payload bytes go (:meth:`_Endpoint._placement`;
the shm endpoint's shared segments). The synchronous form settles the call
at once; ``pending=True`` hands it back unsettled, which is how
:meth:`RemoteServer.begin` lets one caller thread keep a request in flight
on every server of a group (``StagingClient.fan_out``). An overlapped
frame is held back client-side while its thread already has
``queue_depth`` overlapped requests unanswered on the endpoint — the
server's own admission bound — so one caller's burst waits instead of
being shed.
"""

from __future__ import annotations

import contextlib
import socket
import sys
import threading
import weakref
from collections import deque
from functools import partial
from time import perf_counter, time

from repro.errors import (
    ServerUnavailable,
    TransientServerError,
)
from repro.net.frames import WireClosed, WireError
from repro.net.mux import MuxConnection, current_deadline
from repro.net.protocol import (
    decode_message,
    encode_request_iov,
    raise_wire_error,
)
from repro.net.tcpserver import INSPECTABLE, SERVER_OPS, run_server
from repro.net.transport import Transport
from repro.obs import registry as _obs
from repro.staging.store import ObjectStore

__all__ = ["TcpTransport", "RemoteServer", "RemoteFaultHandle", "shutdown_all"]

_REQUESTS = _obs.counter("net.tcp.requests")
_REQ_SECONDS = _obs.histogram("net.tcp.request.seconds")
_BYTES_SENT = _obs.counter("net.tcp.bytes_sent")
_BYTES_RECEIVED = _obs.counter("net.tcp.bytes_received")
_CONNECTS = _obs.counter("net.tcp.connects")
_WIRE_ERRORS = _obs.counter("net.tcp.wire_errors")
_SPAWNS = _obs.counter("net.tcp.server_spawns")
_SPAWN_SECONDS = _obs.histogram("net.tcp.spawn.seconds")

#: Seconds to wait for a response before declaring the request transient.
#: Generous: a slow-faulted server must look *slow*, not failed, exactly as
#: it does in-process (where the caller simply blocks).
REQUEST_TIMEOUT = 30.0
CONNECT_TIMEOUT = 5.0
SPAWN_TIMEOUT = 60.0

_mp_lock = threading.Lock()
_mp_ctx = None

# Every live transport, so test harnesses can reap leaked server processes
# (fixtures create hundreds of short-lived groups and never close them).
_live_transports: weakref.WeakSet = weakref.WeakSet()


def _context():
    """The multiprocessing context, created once per process.

    forkserver + preloading the server module makes each spawn a cheap fork
    of an already-warm interpreter (numpy and the staging stack imported
    once) while staying safe in this thread-heavy parent. ``repro.net.shm``
    is preloaded with it: a server process that imports it on demand spends
    its first segment-carried request (~14 ms) doing so — which a rebuild's
    replacement server pays on the rebuilding thread. Falls back to spawn
    where forkserver is unsupported.
    """
    global _mp_ctx
    if _mp_ctx is None:
        with _mp_lock:
            if _mp_ctx is None:
                import multiprocessing

                try:
                    ctx = multiprocessing.get_context("forkserver")
                    ctx.set_forkserver_preload(["repro.net.tcpserver", "repro.net.shm"])
                except ValueError:
                    ctx = multiprocessing.get_context("spawn")
                _mp_ctx = ctx
    return _mp_ctx


def _map_wire_error(exc: BaseException, server_id: int):
    """Translate a socket/framing failure into the staging error taxonomy."""
    _WIRE_ERRORS.inc()
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return TransientServerError(server_id, f"tcp timeout: {exc}")
    # Refused, reset, broken pipe, clean EOF, torn frame, malformed stream:
    # the server process (or its stream) is gone — fail-stop.
    return ServerUnavailable(server_id, f"tcp failure: {type(exc).__name__}: {exc}")


class _PendingCall:
    """One issued frame whose reply has not been consumed yet.

    ``result()`` waits for the reply, decodes it and unpacks it **on the
    calling thread** — what the synchronous call would have returned or
    raised, a failure to send included (it is kept here, not raised by the
    begin half, so callers handle every outcome in one place). Each call is
    settled exactly once, by ``result()`` or ``abandon()``; ``on_settled``
    (the shm endpoint's slab disposition) then runs with whether a decoded
    reply — success or typed error — came back.
    """

    __slots__ = (
        "_endpoint",
        "_on_settled",
        "array_source",
        "conn",
        "reply",
        "error",
        "give_up",
        "sent",
        "t0",
    )

    def __init__(self, endpoint: "_Endpoint", array_source, on_settled) -> None:
        self._endpoint: _Endpoint | None = endpoint
        self._on_settled = on_settled
        self.array_source = array_source
        self.conn: MuxConnection | None = None
        self.reply = None
        self.error: BaseException | None = None
        self.give_up = 0.0
        self.sent = 0
        self.t0 = perf_counter()

    def result(self):
        endpoint, self._endpoint = self._endpoint, None
        if endpoint is None:
            raise RuntimeError("pending call already settled")
        clean = False
        try:
            msg = endpoint.receive(self)
            clean = True
            return endpoint._unpack_response(msg)
        finally:
            if self._on_settled is not None:
                self._on_settled(clean)

    def abandon(self) -> None:
        """Give up on the reply (idempotent; a no-op once settled). The
        late reply is dropped by id and never decoded, so whatever the
        request lent the server is treated as still in its hands."""
        endpoint, self._endpoint = self._endpoint, None
        if endpoint is None:
            return
        if self.reply is not None:
            self.reply.abandon()
        if self._on_settled is not None:
            self._on_settled(False)


class _Endpoint:
    """One server process + the one shared connection to it."""

    def __init__(self, server_id: int, process, port: int, queue_depth: int) -> None:
        self.server_id = server_id
        self.process = process
        self.port = port
        # The server's admission depth, and per calling thread the replies
        # its overlapped requests still wait for (see ``_await_window``).
        self.queue_depth = queue_depth
        self._unanswered = threading.local()
        self._lock = threading.Lock()
        self._closed = False
        # Shared by every caller thread; dialled on first use and again
        # whenever the previous one has died.
        self._conn: MuxConnection | None = None

    # ---------------------------------------------------------- connection

    def _dial(self) -> MuxConnection:
        sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=CONNECT_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _CONNECTS.inc()
        return MuxConnection(sock, self.server_id)

    def _connection(self) -> MuxConnection:
        """The live shared connection, dialling one if there is none."""
        with self._lock:
            if self._closed:
                raise ServerUnavailable(self.server_id, "transport closed")
            conn = self._conn
            if conn is not None and not conn.dead:
                return conn
        # Dial outside the lock (connect can block); concurrent first
        # callers may race here, so re-check before keeping the new conn.
        conn = self._dial()
        with self._lock:
            if self._closed:
                conn.close()
                raise ServerUnavailable(self.server_id, "transport closed")
            winner = self._conn
            if winner is None or winner.dead:
                self._conn = conn
                return conn
        conn.close()  # lost the race: someone else already redialled
        return winner

    def _retire(self, conn: MuxConnection) -> None:
        with self._lock:
            if self._conn is conn:
                self._conn = None
        conn.close()

    # ------------------------------------------------------------- requests

    def _wire_failure(self, call: _PendingCall, exc: BaseException):
        """Map a send/receive failure; a timeout keeps the connection (only
        this request is abandoned), anything else retires it for everyone."""
        if call.conn is not None and not isinstance(exc, (socket.timeout, TimeoutError)):
            self._retire(call.conn)
        return _map_wire_error(exc, self.server_id)

    def _await_window(self, timeout: float) -> deque:
        """Client-side admission control for overlapped requests.

        A synchronous caller has one request in flight; a thread that begins
        requests without settling them could have any number, and past the
        server's ``queue_depth`` they would be shed (``ServerBusy``) rather
        than served. So each thread's overlapped burst is held to that depth:
        before the next frame goes out, wait until fewer than ``queue_depth``
        of this thread's earlier ones are still unanswered. Replies land in
        their futures without anyone settling them, so the wait cannot
        deadlock on the caller's own begin-all-then-settle order. Load from
        *other* threads stays the server's to admit or shed, as before.
        Returns the thread's list, for the new request to be added to.
        """
        try:
            mine = self._unanswered.replies
        except AttributeError:
            mine = self._unanswered.replies = deque()
        if len(mine) >= self.queue_depth:
            give_up = perf_counter() + timeout
            for _ in range(len(mine)):  # drop the answered, keep the order
                reply = mine.popleft()
                if not reply.answered(0):
                    mine.append(reply)
            while len(mine) >= self.queue_depth:
                if not mine[0].answered(give_up - perf_counter()):
                    raise socket.timeout(
                        f"{len(mine)} requests unanswered after {timeout:.3f}s"
                    )
                mine.popleft()
        return mine

    def _begin(
        self, parts: list, *, array_source=None, on_settled=None, windowed=False
    ) -> _PendingCall:
        """Send one iovec frame; the returned call's ``result()`` receives,
        decodes and unpacks the reply.

        The calling thread's :func:`~repro.net.mux.deadline_scope` deadline
        is stamped into the header and bounds the wait for the reply,
        counted from *now* — requests begun together share one budget
        however late each is settled. ``windowed`` frames first wait for a
        send window below the server's queue depth.
        """
        call = _PendingCall(self, array_source, on_settled)
        deadline = current_deadline()
        timeout = REQUEST_TIMEOUT
        if deadline:
            timeout = max(0.05, min(timeout, deadline - time()))
        call.give_up = call.t0 + timeout
        call.sent = sum(len(p) for p in parts)
        try:
            if windowed:
                mine = self._await_window(timeout)
            call.conn = self._connection()
            call.reply = call.conn.submit(parts, deadline=deadline)
            if windowed:
                mine.append(call.reply)
        except ServerUnavailable as exc:  # transport closed
            call.error = exc
        except (OSError, WireError) as exc:
            call.error = self._wire_failure(call, exc)
            call.error.__cause__ = exc
        return call

    def receive(self, call: _PendingCall) -> tuple:
        """Wait for ``call``'s reply and decode it.

        Raises only *wire-mapped* staging errors; a decoded reply — success
        or a typed ``("err", ...)`` — is returned as-is, so the caller can
        distinguish "the server answered" (segment safely recyclable) from
        "the wire failed" (segment state unknowable) before unpacking.
        Replies decode with ``copy_arrays=False``: arrays are views over the
        private, writable reply buffer (or, via ``array_source``, over a
        granted shared segment) — every consumer either copies into its own
        destination or may treat the buffer as owned. The reply payload is
        decoded *here*, on the awaiting thread — never in the reader —
        because decoding may resolve SegRefs through a per-request
        ``array_source``.
        """
        if call.error is not None:
            raise call.error
        try:
            reply = call.reply.wait(max(0.0, call.give_up - perf_counter()))
            msg = decode_message(
                reply, array_source=call.array_source, copy_arrays=False
            )
        except (OSError, WireError) as exc:
            raise self._wire_failure(call, exc) from exc
        _REQUESTS.inc()
        _BYTES_SENT.inc(call.sent + 20)
        _BYTES_RECEIVED.inc(len(reply) + 20)
        _REQ_SECONDS.record(perf_counter() - call.t0)
        return msg

    def _unpack_response(self, msg: tuple):
        if msg[0] == "ok":
            return msg[1]
        if msg[0] == "err":
            raise_wire_error(msg[1], msg[2], msg[3])
        raise _map_wire_error(
            WireClosed(f"unexpected reply tag {msg[0]!r}"), self.server_id
        )

    def _placement(self, op: str, args: tuple):
        """Where this request's payload bytes go besides the frame itself.

        ``None`` — the tcp answer — puts every byte on the frame. A
        transport with a side channel returns ``(grant, array_sink,
        array_source, on_settled)``: the response grant and request array
        sink for the encoder, the resolver for the reply's arrays, and the
        disposition of whatever was lent, run once with whether a decoded
        reply came back (``False`` also when encoding fails).
        """
        return None

    def request(self, op: str, args: tuple, *, pending: bool = False):
        """One op, one frame. ``pending=True`` returns the issued
        :class:`_PendingCall` instead of settling it."""
        placement = self._placement(op, args)
        if placement is None:
            call = self._begin(encode_request_iov(op, args), windowed=pending)
        else:
            grant, sink, source, on_settled = placement
            try:
                parts = encode_request_iov(op, args, grant=grant, array_sink=sink)
            except BaseException:
                on_settled(False)
                raise
            # What was lent rides the call: whoever settles it returns it.
            call = self._begin(
                parts, array_source=source, on_settled=on_settled, windowed=pending
            )
        return call if pending else call.result()

    # ------------------------------------------------------------ lifecycle

    def close(self, *, shutdown_op: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conn, self._conn = self._conn, None
        if shutdown_op:
            try:
                if conn is None or conn.dead:
                    conn = self._dial()
                conn.call(encode_request_iov("admin:shutdown", ()), timeout=1.0)
            except (OSError, WireError):
                pass
        # The server drains admitted requests before exiting; wait for their
        # replies to land so concurrent callers finish cleanly instead of
        # seeing the socket die under them.
        if conn is not None:
            conn.drain(timeout=5.0)
            conn.close()
        proc = self.process
        if proc is not None:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            self.process = None


class _RemoteView:
    """Read facade over one attribute (``store``) of the server process's
    *unwrapped* server, matching ``FaultyServer``'s control-plane
    passthrough.

    Mirrors what tests and the checkpointer read on local servers
    (``store.object_count``, ``store.versions(name)``, ...) through the
    single ``admin:inspect`` op; the server process checks every
    name against :data:`~repro.net.tcpserver.INSPECTABLE`. ``local_type`` is
    the attribute's class, consulted only for *shape*: a property is read at
    attribute access, a method is called when the caller calls it.
    """

    def __init__(self, endpoint: _Endpoint, owner: str, local_type: type) -> None:
        self._endpoint = endpoint
        self._owner = owner
        self._local_type = local_type

    def _inspect(self, name: str, *args):
        return self._endpoint.request("admin:inspect", (self._owner, name, args))

    def __getattr__(self, name: str):
        if name not in INSPECTABLE[self._owner]:
            raise AttributeError(f"{self._owner}.{name} is not exposed over the wire")
        if isinstance(getattr(self._local_type, name), property):
            return self._inspect(name)
        return partial(self._inspect, name)


class RemoteServer:
    """Client-side proxy for one staging-server process.

    Drop-in for :class:`~repro.staging.server.StagingServer` inside
    ``StagingGroup.servers``: the full method surface plus the control-plane
    attributes the runtime and tests touch (the ``store`` facade, ``inner``
    — itself, faults live server-side — and ``heal``).
    """

    def __init__(self, endpoint: _Endpoint) -> None:
        self._endpoint = endpoint
        self.server_id = endpoint.server_id
        self.lock = threading.RLock()  # parity with StagingServer.lock
        self.store = _RemoteView(endpoint, "store", ObjectStore)
        # Set by the transport's fault hook (shared RemoteFaultHandle),
        # mirroring FaultyServer.injector.
        self.injector = None

    @property
    def inner(self) -> "RemoteServer":
        # Fault state lives in the server process; the proxy is its own
        # control-plane view (``server.inner.store...`` in tests).
        return self

    def heal(self) -> None:
        self._endpoint.request("admin:heal", ())

    @property
    def crashed(self) -> bool:
        """Whether a crash fault is active in the server process (parity
        with ``FaultyServer.crashed``; False when no faults are installed)."""
        status = self._endpoint.request("admin:fault_status", ())
        return bool(status and status["crashed"])

    @property
    def op_count(self) -> int:
        """Data-path ops the server-side fault wrapper has counted."""
        status = self._endpoint.request("admin:fault_status", ())
        return status["op_count"] if status else 0

    def ping(self) -> bool:
        return self._endpoint.request("admin:ping", ()) == "pong"

    def begin(self, op: str, args: tuple) -> _PendingCall:
        """Issue ``op`` without waiting for it: the returned call's
        ``result()`` returns or raises what ``getattr(self, op)(*args)``
        would have. Every call must be settled (``result`` or ``abandon``)."""
        return self._endpoint.request(op, args, pending=True)

    @property
    def nbytes(self) -> int:
        return self._endpoint.request("nbytes", ())

    @property
    def protection_nbytes(self) -> int:
        return self._endpoint.request("protection_nbytes", ())

    def __repr__(self) -> str:
        return f"RemoteServer(id={self.server_id}, port={self._endpoint.port})"


def _make_op(op: str):
    def call(self, *args):
        return self._endpoint.request(op, args)

    call.__name__ = op
    call.__qualname__ = f"RemoteServer.{op}"
    call.__doc__ = f"Remote `StagingServer.{op}` (one round trip)."
    return call


for _op in sorted(SERVER_OPS):
    setattr(RemoteServer, _op, _make_op(_op))
del _op


class RemoteFaultHandle:
    """Client-side view of fault injectors living in the server processes.

    Mirrors the :class:`~repro.faults.plan.FaultInjector` read API
    (``fired``, ``pending_count``, ``pending_for``) by querying each server
    process, so callers like the recovery soak's ``injector.fired`` check
    work identically over TCP.
    """

    def __init__(self, transport: "TcpTransport") -> None:
        self._transport = transport

    def _statuses(self) -> list[dict]:
        out = []
        for endpoint in self._transport.endpoints():
            try:
                status = endpoint.request("admin:fault_status", ())
            except (ServerUnavailable, TransientServerError):
                continue  # a crashed *process* has no faults left to report
            if status is not None:
                out.append(status)
        return out

    @property
    def fired(self) -> list:
        return [plan for s in self._statuses() for plan in s["fired"]]

    @property
    def pending_count(self) -> int:
        return sum(len(s["pending"]) for s in self._statuses())

    def pending_for(self, server: int) -> list:
        return [
            p for s in self._statuses() for p in s["pending"] if p.server == server
        ]


class TcpTransport(Transport):
    """One server process per staging server, each reached over one
    multiplexed TCP connection.

    ``queue_depth`` is each server's admission-control depth (requests
    admitted — queued plus executing — at once; beyond it the server sheds
    with ``ServerBusy``) and ``workers`` its worker-thread count.
    """

    name = "tcp"
    remote = True

    def __init__(self, queue_depth: int = 64, workers: int = 8) -> None:
        self._server_config = {"queue_depth": queue_depth, "workers": workers}
        self._endpoints: dict[int, _Endpoint] = {}
        self._lock = threading.Lock()
        self._closed = False
        _live_transports.add(self)
        # Last-resort reaper if the transport is dropped without close();
        # holds only the endpoint dict, never the transport itself.
        self._finalizer = weakref.finalize(self, _close_endpoints, self._endpoints)

    # -------------------------------------------------------------- spawning

    @staticmethod
    @contextlib.contextmanager
    def _spawnable_main():
        """Hide ``__main__`` from multiprocessing's child bootstrap.

        Spawn-family start methods re-import the parent's main module in
        every child — pointless here (the server body is the importable
        :func:`repro.net.tcpserver.run_server`, and no argument references
        main-module state) and actively harmful for unguarded scripts and
        stdin/REPL sessions, where the re-import re-creates the staging
        group recursively. Swapping in an anonymous main for the duration
        of ``Process.start()`` makes the bootstrap skip main fixup.
        """
        import types

        with _mp_lock:
            real_main = sys.modules.get("__main__")
            sys.modules["__main__"] = types.ModuleType("__main__")
            try:
                yield
            finally:
                if real_main is not None:
                    sys.modules["__main__"] = real_main

    def _spawn(self, server_id: int) -> _Endpoint:
        t0 = perf_counter()
        ctx = _context()
        port_rx, port_tx = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=run_server,
            args=(server_id, port_tx, self._server_config),
            daemon=True,
            name=f"staging-server-{server_id}",
        )
        with self._spawnable_main():
            proc.start()
        port_tx.close()
        if not port_rx.poll(SPAWN_TIMEOUT):
            proc.terminate()
            raise ServerUnavailable(server_id, "server process never reported a port")
        port = port_rx.recv()
        port_rx.close()
        _SPAWNS.inc()
        _SPAWN_SECONDS.record(perf_counter() - t0)
        return self._make_endpoint(server_id, proc, port)

    def _make_endpoint(self, server_id: int, process, port: int) -> _Endpoint:
        """Endpoint factory — the shm transport swaps in its segment-pool variant."""
        return _Endpoint(server_id, process, port, self._server_config["queue_depth"])

    # ------------------------------------------------------------- Transport

    def make_servers(self, num_servers: int) -> list[RemoteServer]:
        with self._lock:
            if self._closed:
                raise ServerUnavailable(-1, "transport closed")
            servers = []
            for i in range(num_servers):
                endpoint = self._spawn(i)
                self._endpoints[i] = endpoint
                servers.append(RemoteServer(endpoint))
            return servers

    def make_replacement(self, server_id: int) -> RemoteServer:
        """A fresh, empty server process for ``server_id``.

        The lost server's process is retired (killed if still running): a
        rebuild models replacing dead hardware, and a truly wedged process
        must not linger holding its port.
        """
        with self._lock:
            if self._closed:
                raise ServerUnavailable(server_id, "transport closed")
            old = self._endpoints.pop(server_id, None)
            if old is not None:
                old.close()
            endpoint = self._spawn(server_id)
            self._endpoints[server_id] = endpoint
            return RemoteServer(endpoint)

    def inject_faults(self, plans, rng=None):
        """Ship each server's plans into its process; return the shared handle."""
        for endpoint in self.endpoints():
            server_plans = [p for p in plans if p.server == endpoint.server_id]
            gen = (
                rng.get(f"faults.corrupt.{endpoint.server_id}")
                if rng is not None
                else None
            )
            endpoint.request("admin:install_faults", (server_plans, gen))
        return RemoteFaultHandle(self)

    def endpoints(self) -> list[_Endpoint]:
        with self._lock:
            return list(self._endpoints.values())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            endpoints, self._endpoints = dict(self._endpoints), {}
        for endpoint in endpoints.values():
            endpoint.close()
        self._finalizer.detach()


def _close_endpoints(endpoints: dict) -> None:
    for endpoint in list(endpoints.values()):
        try:
            endpoint.close(shutdown_op=False)
        except Exception:
            pass


def shutdown_all() -> None:
    """Close every live TcpTransport (test-harness reaper)."""
    for transport in list(_live_transports):
        transport.close()
