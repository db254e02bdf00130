"""RPC message shapes and the wire error taxonomy.

Three message kinds ride the frames, all encoded with the codec
(:mod:`repro.net.codec`):

* request:   ``("req", op, args)`` — ``op`` is the method name on
  :class:`~repro.staging.server.StagingServer` (or an ``admin:``-prefixed
  control op handled by the server process itself); ``args`` is a tuple.
* response:  ``("ok", value)`` on success.
* error:     ``("err", kind, server_id, message)`` — a *staging-level*
  failure re-raised on the client verbatim. ``kind`` indexes
  :data:`WIRE_ERRORS`; only those types cross the wire typed, anything else
  arrives as ``("err", "staging", ...)`` → :class:`~repro.errors.StagingError`.

Every frame carries exactly one request or one reply: a multi-fragment
scatter/gather is one ``put_many`` / ``get_many`` request, never several
requests packed together.

The shared-memory transport (:mod:`repro.net.shm`) sends the same shapes;
values inside ``args`` / responses may be :class:`~repro.net.codec.SegRef`
tags pointing into shared segments. Only a request that *grants* the server
a response segment has its own shape, ``("sreq", op, args, grant)`` with
``grant = ("grant", segment_name, generation, capacity)`` — a client-owned
segment the server may scatter bulk reply payloads into.

Staging-level errors are distinct from *wire-level* failures: the latter
(connect refused, reset, timeout, short read) never appear as ``("err", ...)``
messages — they surface as socket exceptions and the transport maps them to
:class:`~repro.errors.ServerUnavailable` / :class:`~repro.errors.TransientServerError`
(the mapping table lives in :mod:`repro.net.tcp`; rationale in DESIGN.md §13).
"""

from __future__ import annotations

from repro.errors import (
    DeadlineExceeded,
    DecodingError,
    ObjectNotFound,
    ServerBusy,
    ServerUnavailable,
    StagingDegradedError,
    StagingError,
    TransientServerError,
    VersionConflict,
)
from repro.net.codec import decode, encode, encode_iov
from repro.net.frames import ProtocolError
from repro.obs import registry as _obs

__all__ = [
    "WIRE_ERRORS",
    "encode_request_iov",
    "encode_response_iov",
    "encode_error",
    "decode_message",
    "error_kind_for",
    "peek_request_kind",
    "raise_wire_error",
]

_BUSY_SEEN = _obs.counter("net.mux.server_busy")
_DEADLINE_SEEN = _obs.counter("net.mux.deadline_exceeded")

# kind string ↔ exception type for staging-level errors that must arrive on
# the client as their original type (retry policy and degraded reads branch
# on these). Listed leaf-first so error_kind_for picks the most specific.
WIRE_ERRORS: dict[str, type[StagingError]] = {
    "not_found": ObjectNotFound,
    "version_conflict": VersionConflict,
    "unavailable": ServerUnavailable,
    "deadline": DeadlineExceeded,
    "busy": ServerBusy,
    "transient": TransientServerError,
    "degraded": StagingDegradedError,
    "decoding": DecodingError,
    "staging": StagingError,
}

_KIND_BY_TYPE = {cls: kind for kind, cls in WIRE_ERRORS.items()}

# Exceptions that carry a server_id constructor argument.
_SERVER_SCOPED = (ServerUnavailable, TransientServerError)


def error_kind_for(exc: BaseException) -> str:
    """Most specific wire kind for a staging exception."""
    kind = _KIND_BY_TYPE.get(type(exc))
    if kind is not None:
        return kind
    for cls, k in _KIND_BY_TYPE.items():  # walk leaf-first insertion order
        if isinstance(exc, cls):
            return k
    return "staging"


def encode_request_iov(op: str, args: tuple, *, grant=None, array_sink=None) -> list:
    """Request as an iovec; with a ``grant`` it takes the shm form
    ``("sreq", op, args, grant)``."""
    if grant is None:
        return encode_iov(("req", op, args), array_sink=array_sink)
    return encode_iov(("sreq", op, args, grant), array_sink=array_sink)


def encode_response_iov(value, *, array_sink=None) -> list:
    return encode_iov(("ok", value), array_sink=array_sink)


def encode_error(exc: BaseException, server_id: int) -> bytes:
    if isinstance(exc, _SERVER_SCOPED):
        server_id = exc.server_id
    return encode(("err", error_kind_for(exc), server_id, str(exc)))


def raise_wire_error(kind: str, server_id: int, message: str):
    """Re-raise a wire error tuple as its original exception type."""
    cls = WIRE_ERRORS.get(kind, StagingError)
    if cls is ServerBusy:
        _BUSY_SEEN.inc()
    elif cls is DeadlineExceeded:
        _DEADLINE_SEEN.inc()
    if issubclass(cls, _SERVER_SCOPED):
        raise cls(server_id, message)
    raise cls(message)


# Byte-level peek constants (mirror repro.net.codec's tag bytes): a request
# payload always opens with _TUPLE, an item count, then a _STR message tag.
_TAG_TUPLE = 0x08
_TAG_STR = 0x05


def _peek_str(view, offset: int) -> tuple[str | None, int]:
    if len(view) < offset + 5 or view[offset] != _TAG_STR:
        return None, offset
    n = int.from_bytes(view[offset + 1 : offset + 5], "big")
    end = offset + 5 + n
    if n > 256 or len(view) < end:
        return None, offset
    try:
        return bytes(view[offset + 5 : end]).decode("utf-8"), end
    except UnicodeDecodeError:
        return None, offset


def peek_request_kind(payload) -> tuple[str | None, str | None]:
    """Cheaply read a request frame's ``(message tag, op name)`` without
    decoding the payload.

    The event-loop server uses this to route *before* paying the decode:
    admin (``admin:``-prefixed) ops bypass admission control and run inline
    on the loop thread, everything else goes through the bounded queue to
    the worker pool. Reads a handful of header bytes; any shape it does not
    recognise (responses and malformed bytes report ``(None, None)``) —
    callers must treat that as "not admin", never as an error, and let the
    real decoder rule on validity.
    """
    view = memoryview(payload)
    if len(view) < 5 or view[0] != _TAG_TUPLE:
        return None, None
    tag, end = _peek_str(view, 5)
    if tag is None:
        return None, None
    if tag in ("req", "sreq"):
        op, _ = _peek_str(view, end)
        return tag, op
    return None, None


def decode_message(payload, *, array_source=None, copy_arrays: bool = True) -> tuple:
    """Decode one frame payload; validates the message envelope shape.

    ``array_source``/``copy_arrays`` pass through to the codec: the shm
    path resolves :class:`~repro.net.codec.SegRef` payloads through the
    peer's segment registry, and both wire transports decode with
    ``copy_arrays=False`` on paths whose consumers copy for themselves.
    """
    msg = decode(payload, array_source=array_source, copy_arrays=copy_arrays)
    if not isinstance(msg, tuple) or not msg:
        raise ProtocolError(f"message is not a tagged tuple: {type(msg).__name__}")
    tag = msg[0]
    if tag == "req":
        if len(msg) != 3 or not isinstance(msg[1], str) or not isinstance(msg[2], tuple):
            raise ProtocolError("malformed request message")
    elif tag == "sreq":
        if len(msg) != 4 or not isinstance(msg[1], str) or not isinstance(msg[2], tuple):
            raise ProtocolError("malformed shm request message")
    elif tag == "ok":
        if len(msg) != 2:
            raise ProtocolError("malformed ok response")
    elif tag == "err":
        if len(msg) != 4 or not isinstance(msg[1], str) or not isinstance(msg[2], int):
            raise ProtocolError("malformed error response")
    else:
        raise ProtocolError(f"unknown message tag {tag!r}")
    return msg
