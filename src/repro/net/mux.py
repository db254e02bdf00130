"""Client-side request multiplexing and deadline propagation.

One :class:`MuxConnection` turns a single TCP socket into a concurrent RPC
channel: any number of caller threads send v2 frames (fresh u64 request ids,
the caller's deadline stamped in the header) and park on per-request
futures; a dedicated reader thread demultiplexes replies **by id**, so
completions may arrive in any order — a slow request no longer head-of-line
blocks the connection it shares, and an endpoint needs one socket total,
not one per caller thread.

Send path — coalesced writes. Senders append their frame's iovec to a
shared outbox and one of them (whoever wins the non-blocking flush lock)
drains it with batched ``sendmsg`` calls. Under concurrency this folds many
small frames into single syscalls — on loopback, per-op syscall and wakeup
cost dominates small-payload round trips. The flusher re-checks the outbox
after releasing the lock, so an iovec enqueued while a flush was in flight
is never stranded.

Two halves. :meth:`MuxConnection.submit` sends a frame and returns a
:class:`PendingReply`; :meth:`PendingReply.wait` collects the payload later
(``call`` is the two back to back). One thread may therefore hold many
requests in flight — a scatter to N servers costs one round of latency, not
N — and every handle ends in exactly one ``wait`` or ``abandon``, either of
which drops its ``_pending`` entry and its share of the in-flight gauge.

Failure semantics. A wire-level failure (reset, EOF, torn frame) fails
*every* pending future with the underlying error — the stream position is
unknowable, the connection is dead, and the endpoint dials a fresh one. A
per-request **timeout** fails only its own future (``socket.timeout``, which
the transport maps to ``TransientServerError``): the connection is still
byte-aligned, and the late reply is discarded by id when it eventually
arrives — as is the reply to an abandoned handle.

Deadlines. :func:`deadline_scope` publishes an *absolute wall-clock*
deadline (``time.time()`` seconds — both ends of every transport share the
host clock) in a thread-local; the transport stamps it into each v2 header
sent from that thread. ``StagingClient._server_op`` opens a scope around
every attempt, so the retry budget the client enforces locally is the same
budget the server uses to drop requests that expired in its queue.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.net.frames import (
    MuxFrameDecoder,
    ShortRead,
    WireClosed,
    WireError,
    frame_header_v2,
    send_vectors,
)
from repro.obs import registry as _obs

__all__ = ["current_deadline", "deadline_scope", "MuxConnection", "PendingReply"]

_REQUESTS = _obs.counter("net.mux.requests")
_CONNECTIONS = _obs.counter("net.mux.connections")
_INFLIGHT = _obs.gauge("net.mux.inflight")
_COALESCED = _obs.counter("net.mux.coalesced_sends")
_SEND_BATCH = _obs.histogram("net.mux.send_batch.frames")
_TIMEOUTS = _obs.counter("net.mux.timeouts")

_RECV_CHUNK = 1 << 18


# --------------------------------------------------------------- deadlines

_tls = threading.local()


def current_deadline() -> float:
    """The calling thread's absolute wall-clock deadline (0.0 = none)."""
    return getattr(_tls, "deadline", 0.0)


class deadline_scope:
    """Publish an absolute deadline for every wire request in the block.

    Nests: an inner scope may only *tighten* the deadline (the outer bound
    still applies), and the previous value is restored on exit.
    """

    __slots__ = ("_deadline", "_prev")

    def __init__(self, deadline: float) -> None:
        self._deadline = float(deadline)

    def __enter__(self) -> "deadline_scope":
        self._prev = getattr(_tls, "deadline", 0.0)
        if self._prev and self._deadline:
            _tls.deadline = min(self._prev, self._deadline)
        else:
            _tls.deadline = self._deadline or self._prev
        return self

    def __exit__(self, *exc) -> None:
        _tls.deadline = self._prev


# ----------------------------------------------------------- mux connection


class PendingReply:
    """The reply slot of one submitted request (see :meth:`MuxConnection.submit`)."""

    __slots__ = ("_conn", "_future", "request_id")

    def __init__(self, conn: "MuxConnection", request_id: int, future: Future) -> None:
        self._conn: MuxConnection | None = conn
        self._future = future
        self.request_id = request_id

    def wait(self, timeout: float):
        """The reply payload (a writable bytearray).

        Raises the connection's wire error if it is (or becomes) dead, or
        ``socket.timeout`` if only *this* request ran out of time — the
        connection survives a timeout and the stray reply is dropped by id.
        """
        try:
            return self._future.result(timeout=timeout)
        except _FutureTimeout:
            _TIMEOUTS.inc()
            raise socket.timeout(
                f"mux request {self.request_id} timed out after {timeout:.3f}s"
            ) from None
        finally:
            self.abandon()

    def abandon(self) -> None:
        """Stop waiting for the reply (idempotent; a no-op after ``wait``)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.forget(self.request_id)
            self._future = None  # lets go of the payload, if it came

    def answered(self, timeout: float) -> bool:
        """Whether the server is done with this request — its reply (or the
        connection's failure) is in, or nobody waits for it any more —
        waiting up to ``timeout`` seconds for that. Consumes nothing."""
        future = self._future
        if future is None:
            return True
        try:
            future.exception(timeout)
        except _FutureTimeout:
            return False
        return True


class MuxConnection:
    """Many caller threads sharing one socket via per-request futures."""

    def __init__(self, sock: socket.socket, server_id: int) -> None:
        sock.settimeout(None)  # per-request timeouts live on the futures
        self.sock = sock
        self.server_id = server_id
        self._ids = itertools.count(1)
        self._pending: dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._outbox: deque = deque()
        self._outbox_lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._dead: BaseException | None = None
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name=f"mux-reader-{server_id}"
        )
        self._reader.start()
        _CONNECTIONS.inc()

    # ------------------------------------------------------------- requests

    def submit(self, parts: list, deadline: float = 0.0) -> PendingReply:
        """Send one frame now; its reply is collected with ``wait`` later.
        Raises the connection's wire error if it is dead or the send fails.
        """
        request_id = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            if self._dead is not None:
                raise WireClosed(f"mux connection dead: {self._dead}")
            self._pending[request_id] = future
        _REQUESTS.inc()
        _INFLIGHT.add(1)
        reply = PendingReply(self, request_id, future)
        try:
            n = sum(len(p) for p in parts)
            head = frame_header_v2(n, request_id, deadline)
            vecs = [memoryview(head)]
            vecs += [memoryview(p).cast("B") for p in parts if len(p)]
            self._send(vecs)
        except BaseException:
            reply.abandon()
            raise
        return reply

    def call(self, parts: list, deadline: float = 0.0, timeout: float = 30.0):
        """Send one frame and wait for its reply payload (submit + wait)."""
        return self.submit(parts, deadline).wait(timeout)

    def forget(self, request_id: int) -> None:
        """Drop a request's reply slot (its handle was waited or abandoned);
        a reply that still arrives is discarded by id."""
        _INFLIGHT.add(-1)
        with self._pending_lock:
            self._pending.pop(request_id, None)

    @property
    def pending_count(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    @property
    def dead(self) -> bool:
        return self._dead is not None

    # ----------------------------------------------------- coalesced sends

    def _send(self, vecs: list) -> None:
        with self._outbox_lock:
            self._outbox.extend(vecs)
        while True:
            if not self._flush_lock.acquire(blocking=False):
                # Another sender is flushing; it re-checks the outbox after
                # releasing, so these vecs cannot be stranded.
                _COALESCED.inc()
                return
            try:
                with self._outbox_lock:
                    batch, self._outbox = self._outbox, deque()
                if not batch:
                    return
                _SEND_BATCH.record(len(batch))
                send_vectors(self.sock, batch)
            except OSError as exc:
                self._fail(exc)
                raise
            finally:
                self._flush_lock.release()
            with self._outbox_lock:
                if not self._outbox:
                    return

    # ------------------------------------------------------------ read side

    def _read_loop(self) -> None:
        # Buffered: one large recv often carries several coalesced replies
        # (the server flushes all completions for a conn in one sendmsg), so
        # syscalls per reply amortize toward one — the read-side mirror of
        # the coalesced send path.
        decoder = MuxFrameDecoder()
        try:
            while True:
                data = self.sock.recv(_RECV_CHUNK)
                if not data:
                    if decoder.pending_bytes:
                        raise ShortRead("stream ended mid-frame")
                    raise WireClosed("connection closed at frame boundary")
                decoder.feed(data)
                for frame in decoder.frames():
                    with self._pending_lock:
                        future = self._pending.pop(frame.request_id, None)
                    if future is not None:
                        future.set_result(frame.payload)
                    # else: the caller timed out or abandoned the handle;
                    # drop the reply.
        except (OSError, WireError) as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        with self._pending_lock:
            if self._dead is None:
                self._dead = exc
            pending, self._pending = self._pending, {}
        for future in pending.values():
            # A future whose caller already timed out is done; skip it.
            if not future.done():
                future.set_exception(exc)
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------ lifecycle

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until no requests are pending (replies demuxed) or timeout.
        Used by clean shutdown so in-flight calls finish before the socket
        closes underneath them."""
        deadline = time.time() + timeout
        while self.pending_count and time.time() < deadline:
            if self._dead is not None:
                return False
            time.sleep(0.002)
        return self.pending_count == 0

    def close(self) -> None:
        self._fail(WireClosed("mux connection closed"))
