"""Message framing over byte streams: one layout, one decoder, one sender.

Every frame carries the multiplexing header the RPC core rides on — a u64
request id (replies are matched to requests by id, never by arrival order)
and an absolute wall-clock deadline (0.0 = none; both peers share the host
clock, the transports are strictly local)::

    +--------------+----------+----------------+------------+---------------+
    | !I 0xFFFFFFFF| !I length| !Q request id  | !d deadline| payload       |
    +--------------+----------+----------------+------------+---------------+

The length counts payload bytes only. A frame larger than
:data:`MAX_FRAME_BYTES` is rejected before any payload is read — a corrupted
or misaligned length must not turn into a multi-gigabyte allocation. The
leading sentinel word (:data:`V2_MAGIC`) is checked on every frame: a stream
that opens a frame with anything else (a foreign client, the retired
length-prefixed v1 layout, a misaligned stream) is a :class:`ProtocolError`
and the connection is dropped.

The pieces: :func:`frame_header_v2` packs the 24-byte header;
:func:`send_vectors` is the scatter-gather writer (header, control bytes and
payload views — e.g. :func:`repro.net.codec.encode_iov` output — reach
``sendmsg`` without ever being concatenated), shared by the blocking client
and the non-blocking server loop; :class:`MuxFrameDecoder` is the push-style
reader. Each decoded payload lands in one preallocated *writable* bytearray
(no chunk-list reassembly), so zero-copy decode views over it
(:func:`repro.net.codec.decode` with ``copy_arrays=False``) are mutable,
matching in-process semantics.

Error taxonomy (all subclass :class:`WireError`):

* :class:`WireClosed` — the peer closed the stream at a frame boundary.
  Between requests this is a clean shutdown; mid-conversation the transport
  maps it to fail-stop (``ServerUnavailable``).
* :class:`ShortRead` — the stream ended *inside* a frame (torn write, peer
  killed mid-send). Always fail-stop: the connection state is unknowable.
* :class:`FrameTooLarge` / :class:`ProtocolError` — the byte stream itself
  is malformed; the connection must be dropped.
"""

from __future__ import annotations

import itertools
import socket
import struct
from collections import deque
from typing import NamedTuple

__all__ = [
    "MAX_FRAME_BYTES",
    "V2_MAGIC",
    "WireError",
    "WireClosed",
    "ShortRead",
    "FrameTooLarge",
    "ProtocolError",
    "Frame",
    "frame_header_v2",
    "send_vectors",
    "MuxFrameDecoder",
]

# sendmsg vector ceiling per call (UIO_MAXIOV is 1024 on Linux; stay under).
_SENDMSG_MAX_VECS = 512

# Generous ceiling: the largest legitimate frame is one put_many request
# carrying a server's fragments (a few hundred MB would already be absurd).
MAX_FRAME_BYTES = 1 << 31  # 2 GiB

#: Sentinel word opening every frame. Greater than MAX_FRAME_BYTES, so the
#: retired v1 layout (a bare ``!I`` length prefix) can never be mistaken
#: for it.
V2_MAGIC = 0xFFFFFFFF
#: Sentinel, payload length, request id, absolute wall-clock deadline
#: (time.time() seconds; 0.0 = no deadline).
_V2_HEAD = struct.Struct("!IIQd")
_MAGIC_BYTES = struct.pack("!I", V2_MAGIC)


class WireError(Exception):
    """Base for all framing-level failures."""


class WireClosed(WireError):
    """Peer closed the stream at a frame boundary (clean EOF)."""


class ShortRead(WireError):
    """Stream ended mid-frame: the peer died or tore a write."""


class FrameTooLarge(WireError):
    """Declared frame length exceeds MAX_FRAME_BYTES."""


class ProtocolError(WireError):
    """Byte stream or payload is malformed."""


class Frame(NamedTuple):
    """One decoded frame: payload plus its mux header."""

    payload: bytearray
    request_id: int
    #: Absolute ``time.time()`` instant; 0.0 = none.
    deadline: float = 0.0


def frame_header_v2(payload_len: int, request_id: int, deadline: float = 0.0) -> bytes:
    """The 24-byte v2 header for a ``payload_len``-byte frame."""
    if payload_len > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {payload_len} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return _V2_HEAD.pack(V2_MAGIC, payload_len, request_id, deadline)


def send_vectors(sock: socket.socket, queue: deque) -> bool:
    """Write ``queue`` (memoryviews, consumed from the left) with ``sendmsg``.

    Handles partial sends and the kernel's vector-count ceiling. On a
    blocking socket this returns True once everything is written; on a
    non-blocking one it stops when the socket would block and returns
    False, leaving the unsent remainder (a partially sent buffer is
    replaced by its tail) at the front of ``queue``.
    """
    while queue:
        try:
            sent = sock.sendmsg(list(itertools.islice(queue, _SENDMSG_MAX_VECS)))
        except (BlockingIOError, InterruptedError):
            return False
        while sent:
            head = queue[0]
            if sent >= len(head):
                sent -= len(head)
                queue.popleft()
            else:
                queue[0] = head[sent:]
                sent = 0
    return True


class MuxFrameDecoder:
    """Incremental frame decoder: feed arbitrary byte chunks, pop frames.

    ``feed`` never blocks and tolerates any split of the stream — one byte
    at a time, header torn across chunks, many frames in one chunk. This is
    the read path of both the event-loop server and the client's reader
    thread: ``feed`` whatever ``recv`` returned, pop frames. ``close``
    signals EOF: clean at a boundary, :class:`ShortRead` mid-frame.
    """

    __slots__ = ("_head", "_frame", "_filled", "_frames", "_closed")

    def __init__(self) -> None:
        self._head = bytearray()
        # Header parsed, payload (preallocated) still filling.
        self._frame: Frame | None = None
        self._filled = 0
        self._frames: list[Frame] = []
        self._closed = False

    def feed(self, data) -> None:
        if self._closed:
            raise ProtocolError("feed() after close()")
        view = memoryview(data)
        while len(view):
            if self._frame is None:
                take = min(_V2_HEAD.size - len(self._head), len(view))
                self._head += view[:take]
                view = view[take:]
                # The sentinel is judged as soon as its four bytes are in:
                # a foreign stream is refused without waiting for 20 more.
                if len(self._head) >= 4 and self._head[:4] != _MAGIC_BYTES:
                    raise ProtocolError(
                        f"frame opens with 0x{self._head[:4].hex()},"
                        f" not the v2 sentinel 0x{V2_MAGIC:08x}"
                    )
                if len(self._head) < _V2_HEAD.size:
                    return
                _magic, n, request_id, deadline = _V2_HEAD.unpack(self._head)
                if n > MAX_FRAME_BYTES:
                    raise FrameTooLarge(
                        f"peer declared {n}-byte frame, cap {MAX_FRAME_BYTES}"
                    )
                self._head.clear()
                self._frame = Frame(bytearray(n), request_id, deadline)
                self._filled = 0
            else:
                payload = self._frame.payload
                take = min(len(payload) - self._filled, len(view))
                payload[self._filled : self._filled + take] = view[:take]
                self._filled += take
                view = view[take:]
            if self._filled == len(self._frame.payload):
                self._frames.append(self._frame)
                self._frame = None

    def close(self) -> None:
        """Signal end-of-stream. Raises ShortRead if a frame is in flight."""
        self._closed = True
        if self.pending_bytes:
            raise ShortRead("stream ended mid-frame")

    @property
    def pending_bytes(self) -> int:
        """Bytes consumed toward an incomplete frame (its header included)."""
        if self._frame is None:
            return len(self._head)
        return _V2_HEAD.size + self._filled

    def frames(self) -> list[Frame]:
        """Pop all completed frames (in arrival order)."""
        out = self._frames
        self._frames = []
        return out
