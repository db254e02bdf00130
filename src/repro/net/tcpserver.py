"""The staging server process: event-loop frame I/O + RPC dispatcher.

One process per staging server (DataSpaces-style). The process hosts a plain
:class:`~repro.staging.server.StagingServer` and serves the same method
surface clients use in-process, so client/resilience/runtime code is
byte-identical across transports. Faults are injected *here* — the parent
ships :class:`~repro.faults.plan.FaultPlan` lists over an admin op and the
process wraps its server in the same
:class:`~repro.faults.proxy.FaultyServer` the inproc path uses — so crash
refusals, flaky errors, slow service, and corrupt reads all cross a real
socket before the client sees them.

Concurrency model (DESIGN.md §15): a single ``selectors``-based event loop
owns every socket. The loop thread does all reads and writes non-blockingly
— frames are reassembled per connection by
:class:`~repro.net.frames.MuxFrameDecoder` and replies are queued iovecs
flushed with ``sendmsg`` — while decoded requests execute on a bounded
worker pool and complete **out of order by request id**. A wakeup pipe
carries worker-completion and shutdown signals into the selector, replacing
the old 0.2 s accept-poll timeout (the listener is just another readable
key). The former thread-per-connection model coupled concurrency to
connection count; here a multiplexed client interleaves hundreds of
requests over one socket and a stalled (``slow``-faulted) request occupies
one worker, not the whole connection.

Admission control: the loop admits at most ``queue_depth`` requests (a
``TcpTransport`` constructor argument, passed through ``run_server``'s
``config``). Beyond that it sheds with a typed, retryable
:class:`~repro.errors.ServerBusy` instead of queueing without bound;
expired deadlines stamped in frame headers are dropped with
:class:`~repro.errors.DeadlineExceeded` both at admission and again when a
worker picks the request up. ``admin:*`` control ops are recognised by a
byte-level peek (:func:`~repro.net.protocol.peek_request_kind`) and run
inline on the loop thread, bypassing admission — a saturated data plane
must never lock out ``admin:shutdown`` or fault installation.

A connection whose stream does not open a frame with the v2 sentinel (a
foreign client, the retired length-prefixed layout) is closed on the spot;
other connections are unaffected.

Shutdown drains: ``admin:shutdown`` closes the listener immediately, lets
admitted requests finish, flushes every queued reply, and only then closes
connections — in-flight callers get real replies, not resets. New data ops
arriving mid-drain are shed with ``ServerBusy``.

This module is also the forkserver preload target: importing it warms
numpy + the staging stack once, so each server process forks in
milliseconds instead of re-importing the world.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.errors import DeadlineExceeded, ReproError, ServerBusy, StagingError
from repro.faults.plan import FaultInjector
from repro.faults.proxy import FaultyServer
from repro.net.frames import (
    Frame,
    MuxFrameDecoder,
    WireError,
    frame_header_v2,
    send_vectors,
)
from repro.net.protocol import (
    decode_message,
    encode_error,
    encode_response_iov,
    peek_request_kind,
)
from repro.obs import registry as _obs
from repro.staging.server import StagingServer

__all__ = ["SERVER_OPS", "INSPECTABLE", "Dispatcher", "run_server"]

#: How long shutdown waits for admitted requests + queued replies.
_DRAIN_TIMEOUT = 10.0

_RECV_CHUNK = 1 << 20

_SHED = _obs.counter("net.mux.shed")
_DEADLINE_DROPS = _obs.counter("net.mux.deadline_drops")
_ADMITTED = _obs.counter("net.mux.admitted")
_SERVER_INFLIGHT = _obs.gauge("net.mux.server_inflight")

# Methods clients may invoke by name. Everything else (including admin ops,
# which carry an "admin:" prefix and never collide) is rejected.
SERVER_OPS = frozenset(
    {
        "put",
        "put_many",
        "get",
        "get_many",
        "put_blob",
        "get_blob",
        "blob_keys",
        "covers",
        "covers_all",
        "query_versions",
        "evict",
        "evict_older_than_version",
        "evict_consumed",
        "keep_only_latest",
        "snapshot",
        "restore",
        "rebuild_index",
        "summary",
        "enable_journal",
        "disable_journal",
        "journal_mutation_count",
        "seal_delta",
    }
)
# Read-only properties served as zero-arg ops.
SERVER_PROPS = frozenset({"nbytes", "protection_nbytes"})

# What the control plane may touch on the unwrapped server through
# ``admin:inspect`` (RemoteServer.store / .index): attribute → allowed names.
INSPECTABLE = {
    "store": frozenset(
        {
            "object_count",
            "nbytes",
            "fragments",
            "fragment_count",
            "versions",
            "keys",
            "latest_version",
            "clear",
        }
    ),
    "index": frozenset({"names", "versions", "nbytes", "__len__"}),
}


class Dispatcher:
    """Executes decoded requests against the (possibly fault-wrapped) server."""

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self.server = StagingServer(server_id)
        # Guards wrapper install/reset swaps, not data ops (the server's own
        # lock serializes those, same as in-process).
        self._swap_lock = threading.Lock()
        self.stop = threading.Event()
        # Shared-memory attach registry, created on the first shm request so
        # plain TCP servers never open a segment (the module itself is
        # preloaded by the forkserver, see ``repro.net.tcp._context``).
        self._segments = None

    def _shm_segments(self):
        if self._segments is None:
            with self._swap_lock:
                if self._segments is None:
                    import atexit

                    from repro.net.shm import ServerSegments

                    segments = ServerSegments()
                    # The server only *attaches* (never unlinks) segments;
                    # closing at exit drops the mappings so client-side
                    # unlink actually frees the memory.
                    atexit.register(segments.close)
                    self._segments = segments
        return self._segments

    def _resolve_segref(self, ref):
        return self._shm_segments().resolve(ref)

    @property
    def _inner(self) -> StagingServer:
        server = self.server
        return server.inner if isinstance(server, FaultyServer) else server

    # ---------------------------------------------------------------- admin

    def _admin(self, op: str, args: tuple):
        if op == "ping":
            return "pong"
        if op == "shutdown":
            self.stop.set()
            return None
        if op == "metrics":
            # This *process's* metrics — the shed/deadline-drop/inflight
            # counters live here, not in the client, so tests and the
            # bench harness read them over the wire.
            return _obs.snapshot()
        if op == "install_faults":
            (plans, rng) = args
            with self._swap_lock:
                injector = FaultInjector(list(plans))
                if isinstance(self.server, FaultyServer):
                    self.server.injector = injector
                    if rng is not None:
                        self.server._rng = rng
                else:
                    self.server = FaultyServer(self.server, injector, rng=rng)
            return None
        if op == "fault_status":
            server = self.server
            if not isinstance(server, FaultyServer):
                return None
            injector = server.injector
            return {
                "fired": list(injector.fired),
                "pending": injector.pending_for(self.server_id),
                "crashed": server.crashed,
                "op_count": server.op_count,
            }
        if op == "heal":
            server = self.server
            if isinstance(server, FaultyServer):
                server.heal()
            return None
        if op == "reset":
            # A replacement server: brand-new empty state, no fault wrapper.
            with self._swap_lock:
                self.server = StagingServer(self.server_id)
            return None
        if op == "inspect":
            (owner, name, sub_args) = args
            if name not in INSPECTABLE.get(owner, ()):
                raise ValueError(f"{owner}.{name} is not exposed over the wire")
            value = getattr(getattr(self._inner, owner), name)
            return value(*sub_args) if callable(value) else value
        raise ValueError(f"unknown admin op {op!r}")

    # ------------------------------------------------------------- dispatch

    def execute(self, op: str, args: tuple):
        """Run one op; staging errors propagate to the caller for encoding."""
        if op.startswith("admin:"):
            return self._admin(op[len("admin:") :], args)
        if op in SERVER_PROPS:
            return getattr(self.server, op)
        if op not in SERVER_OPS:
            raise ValueError(f"unknown op {op!r}")
        result = getattr(self.server, op)(*args)
        if op in ("put", "put_many"):
            # Ack without echoing the stored objects back over the wire —
            # no group-level caller consumes put returns, and the echo would
            # double every put's byte cost.
            return None
        return result

    def _execute_granted(self, op: str, args: tuple, sink):
        """Run one op, gathering get/get_many results directly into the
        client's granted response segment when the geometry fits.

        Reservation is all-or-nothing per op: either every destination
        array lands in the slab (the store assembles fragments straight
        into shared memory — the server-side copy disappears) or the op
        runs unchanged and its reply takes the ordinary encode path.
        Arguments after the descriptors (a ``get_many``'s ``retain``) pass
        through untouched.
        """
        if sink is not None and op in ("get", "get_many"):
            mark = sink.mark()
            try:
                if op == "get":
                    desc = args[0]
                    out = sink.reserve(desc.bbox.shape, desc.dtype)
                    if out is not None:
                        return self.server.get(*args, out=out)
                else:
                    descs = args[0]
                    outs = []
                    for desc in descs:
                        dest = sink.reserve(desc.bbox.shape, desc.dtype)
                        if dest is None:
                            break
                        outs.append(dest)
                    if len(outs) == len(descs):
                        return self.server.get_many(*args, outs=outs)
                sink.rollback(mark)
            except (AttributeError, TypeError, ValueError):
                # Malformed descriptors: let the plain path raise the
                # canonical error for them.
                sink.rollback(mark)
        return self.execute(op, args)

    def handle_frame(self, payload, deadline: float = 0.0) -> list:
        """Dispatch one decoded frame; returns the reply as iovec parts.

        ``deadline`` is the request's absolute wall-clock deadline from its
        v2 header (0.0 = none): if it has already passed, the request is
        dropped *without executing* and the reply is a typed
        ``DeadlineExceeded`` — checked here (when a worker dequeues the
        request) in addition to at admission, so time spent waiting behind
        the queue counts against the caller's budget too.

        Requests decode with ``copy_arrays=False``: inline arrays are views
        over this frame's private buffer and SegRefs are zero-copy views
        into client-owned segments — safe either way because every op that
        keeps payload data (``store.put``/``put_blob``) copies before the
        reply is sent, and ops that retain views (``restore``) are never
        sent through segments (see ``repro.net.shm.SHM_REQUEST_OPS``).
        """
        if deadline and time.time() > deadline:
            _DEADLINE_DROPS.inc()
            return [encode_error(DeadlineExceeded(self.server_id), self.server_id)]
        try:
            msg = decode_message(
                payload, array_source=self._resolve_segref, copy_arrays=False
            )
        except WireError as exc:
            # The frame itself arrived intact but its payload can't be
            # honoured (stale/unknown segment ref, malformed message): reply
            # with a typed error so the client sees a StagingError instead
            # of a torn connection.
            return [encode_error(_as_staging_error(exc), self.server_id)]
        tag = msg[0]
        if tag not in ("req", "sreq"):
            # A well-formed reply (or any other non-request shape) is never
            # executed: its fields are not an op and its arguments.
            error = StagingError(f"not a request frame: tag {tag!r}")
            return [encode_error(error, self.server_id)]
        sink = None
        if tag == "sreq":
            sink = self._shm_segments().response_sink(msg[3])
        try:
            value = self._execute_granted(msg[1], msg[2], sink)
        except ReproError as exc:
            return [encode_error(exc, self.server_id)]
        except Exception as exc:
            return [encode_error(_as_staging_error(exc), self.server_id)]
        return encode_response_iov(value, array_sink=sink)


def _as_staging_error(exc: Exception):
    return StagingError(f"{type(exc).__name__}: {exc}")


class _Conn:
    """Per-connection loop state: decoder and write queue."""

    __slots__ = ("sock", "fd", "decoder", "out", "events", "inflight", "eof", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.decoder = MuxFrameDecoder()
        self.out: deque = deque()
        self.events = 0  # currently registered selector mask
        self.inflight = 0  # requests admitted from this conn, not yet replied
        self.eof = False
        self.closed = False


class EventLoopServer:
    """Single-threaded selector loop + bounded worker pool (see module doc)."""

    def __init__(
        self, dispatcher: Dispatcher, listener: socket.socket, config: dict
    ) -> None:
        self.dispatcher = dispatcher
        self.listener = listener
        self.queue_depth = int(config["queue_depth"])
        self.sel = selectors.DefaultSelector()
        self.pool = ThreadPoolExecutor(
            max_workers=int(config["workers"]),
            thread_name_prefix=f"staging-worker-{dispatcher.server_id}",
        )
        self.conns: dict[int, _Conn] = {}
        self.inflight = 0  # admitted, not yet completed (loop thread only)
        self.draining = False
        self._drain_deadline = 0.0
        # Worker → loop completion channel: (conn, frame, parts).
        self._done: deque = deque()
        self._done_lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        _obs.gauge("net.mux.queue_depth").set(self.queue_depth)

    # ------------------------------------------------------------------ run

    def run(self) -> None:
        self.listener.setblocking(False)
        self.sel.register(self.listener, selectors.EVENT_READ, self._on_accept)
        self.sel.register(self._wake_r, selectors.EVENT_READ, self._on_wakeup)
        try:
            while True:
                timeout = 0.05 if self.draining else None
                for key, mask in self.sel.select(timeout):
                    key.data(key, mask)
                self._reap_completions()
                if self.draining and self._drained():
                    break
        finally:
            self._teardown()

    def _drained(self) -> bool:
        if self.inflight == 0 and not any(c.out for c in self.conns.values()):
            return True
        return time.time() >= self._drain_deadline

    def _teardown(self) -> None:
        self.pool.shutdown(wait=False)
        for conn in list(self.conns.values()):
            self._close_conn(conn)
        try:
            self.sel.unregister(self._wake_r)
        except KeyError:
            pass
        os.close(self._wake_r)
        os.close(self._wake_w)
        self.sel.close()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full ⇒ a wakeup is already pending

    def _on_wakeup(self, key, mask) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    # --------------------------------------------------------------- accept

    def _on_accept(self, key, mask) -> None:
        while True:
            try:
                sock, _addr = self.listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.conns[conn.fd] = conn
            conn.events = selectors.EVENT_READ
            self.sel.register(sock, conn.events, self._make_io_cb(conn))

    def _make_io_cb(self, conn: _Conn):
        def _cb(key, mask):
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ and not conn.closed:
                self._on_read(conn)

        return _cb

    # ----------------------------------------------------------------- read

    def _on_read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            # Peer finished sending. Keep the conn up until every admitted
            # request has replied and the write queue is flushed.
            conn.eof = True
            if conn.decoder.pending_bytes:
                self._close_conn(conn)  # torn mid-frame: nothing to salvage
            else:
                self._update_events(conn)
                self._maybe_retire(conn)
            return
        try:
            conn.decoder.feed(data)
        except WireError:
            self._close_conn(conn)
            return
        for frame in conn.decoder.frames():
            self._handle_frame(conn, frame)
            if conn.closed:
                return

    # ------------------------------------------------------------ admission

    def _handle_frame(self, conn: _Conn, frame: Frame) -> None:
        tag, op = peek_request_kind(frame.payload)
        if op is not None and op.startswith("admin:"):
            # Control plane: inline on the loop thread, no admission check,
            # no deadline drop — shutdown/heal must work under overload.
            parts = self.dispatcher.handle_frame(frame.payload)
            self._complete(conn, frame, parts)
            if self.dispatcher.stop.is_set() and not self.draining:
                self._begin_drain()
            return
        server_id = self.dispatcher.server_id
        if frame.deadline and time.time() > frame.deadline:
            _DEADLINE_DROPS.inc()
            err = [encode_error(DeadlineExceeded(server_id), server_id)]
            self._complete(conn, frame, err)
            return
        if self.inflight >= self.queue_depth or self.draining:
            _SHED.inc()
            err = [encode_error(ServerBusy(server_id), server_id)]
            self._complete(conn, frame, err)
            return
        _ADMITTED.inc()
        self.inflight += 1
        conn.inflight += 1
        _SERVER_INFLIGHT.set(self.inflight)
        self.pool.submit(self._work, conn, frame)

    def _work(self, conn: _Conn, frame: Frame) -> None:
        """Worker-thread body: execute and hand the reply back to the loop."""
        try:
            parts = self.dispatcher.handle_frame(frame.payload, deadline=frame.deadline)
        except Exception as exc:  # handle_frame encodes; this is a belt
            parts = [
                encode_error(_as_staging_error(exc), self.dispatcher.server_id)
            ]
        with self._done_lock:
            self._done.append((conn, frame, parts))
        self._wake()

    def _reap_completions(self) -> None:
        while True:
            with self._done_lock:
                if not self._done:
                    return
                conn, frame, parts = self._done.popleft()
            self.inflight -= 1
            conn.inflight -= 1
            _SERVER_INFLIGHT.set(self.inflight)
            self._complete(conn, frame, parts)

    # ---------------------------------------------------------------- write

    def _complete(self, conn: _Conn, frame: Frame, parts: list) -> None:
        if conn.closed:
            return  # client went away; drop the reply
        head = frame_header_v2(sum(len(p) for p in parts), frame.request_id)
        conn.out.append(memoryview(head))
        for part in parts:
            if len(part):
                conn.out.append(memoryview(part).cast("B"))
        self._flush(conn)
        self._maybe_retire(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.closed:
            return
        try:
            send_vectors(conn.sock, conn.out)
        except OSError:
            self._close_conn(conn)
            return
        self._update_events(conn)

    def _update_events(self, conn: _Conn) -> None:
        if conn.closed:
            return
        desired = 0
        if conn.out:
            desired |= selectors.EVENT_WRITE
        if not conn.eof:
            desired |= selectors.EVENT_READ
        if desired == conn.events:
            return
        # A half-closed conn with in-flight work wants neither event: it
        # leaves the selector entirely (an EOF socket polls readable forever
        # — keeping it registered would spin the loop) and re-registers when
        # a completion queues its reply.
        if desired == 0:
            self.sel.unregister(conn.sock)
        elif conn.events == 0:
            self.sel.register(conn.sock, desired, self._make_io_cb(conn))
        else:
            self.sel.modify(conn.sock, desired, self._make_io_cb(conn))
        conn.events = desired

    def _maybe_retire(self, conn: _Conn) -> None:
        if conn.eof and not conn.closed and conn.inflight == 0 and not conn.out:
            self._close_conn(conn)

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.out.clear()
        self.conns.pop(conn.fd, None)
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------- shutdown

    def _begin_drain(self) -> None:
        """Stop accepting, let admitted work finish, flush, then exit."""
        self.draining = True
        self._drain_deadline = time.time() + _DRAIN_TIMEOUT
        try:
            self.sel.unregister(self.listener)
        except (KeyError, ValueError):
            pass
        try:
            self.listener.close()
        except OSError:
            pass


def run_server(server_id: int, port_conn, config: dict) -> None:
    """Child-process entry: bind, report the port, serve until shutdown.

    ``port_conn`` is the parent's end of a ``multiprocessing.Pipe``; the
    bound port is the only thing ever written to it. ``config`` carries the
    event-loop sizing (``queue_depth``, ``workers``) from the parent's
    ``TcpTransport``.
    """
    dispatcher = Dispatcher(server_id)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(128)
    port_conn.send(listener.getsockname()[1])
    port_conn.close()
    EventLoopServer(dispatcher, listener, config).run()
