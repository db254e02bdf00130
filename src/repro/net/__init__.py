"""Wire transport between staging clients and staging servers.

The staging substrate reaches its servers through a pluggable *transport*:

* :class:`~repro.net.transport.InprocTransport` — the seed behaviour: every
  server is an in-process :class:`~repro.staging.server.StagingServer`
  behind its own lock, calls are plain method calls, payloads move by
  reference (zero copies added). This stays the default.
* :class:`~repro.net.tcp.TcpTransport` — one server **process** per staging
  server (DataSpaces-style), reached over one multiplexed TCP connection
  per server (:mod:`repro.net.mux`) carrying request-id frames
  (:mod:`repro.net.frames`), a struct-tagged object codec
  (:mod:`repro.net.codec`) and scatter-gather sends (``sendmsg`` over the
  codec's iovec output), one request per frame (:mod:`repro.net.tcp`).
  Wire-level failures map onto the existing
  :class:`~repro.errors.ServerUnavailable` /
  :class:`~repro.errors.TransientServerError` taxonomy, so retry/backoff,
  health mark-down, degraded reads, and rebuild work unchanged over sockets.
* :class:`~repro.net.shm.ShmTransport` — same server processes and fault
  machinery, but bulk ndarray payloads move through client-owned
  ``multiprocessing.shared_memory`` segments (zero-copy views on the read
  side, one strided copy on the write side) while the TCP connection
  degrades into a doorbell for small control messages. Node-local only.

Select a transport per group (``StagingGroup.create(transport="shm")``) or
process-wide via the ``REPRO_TRANSPORT`` environment variable (used by the
CI transport matrix). See DESIGN.md §13 for the frame layout, the RPC op
table, the error-mapping table, and the one-request-per-server rule, and
§14 for the shared-memory data plane (segment layout, grants, lifecycle,
fallbacks).
"""

from repro.net.codec import decode, encode
from repro.net.frames import (
    Frame,
    FrameTooLarge,
    MuxFrameDecoder,
    ProtocolError,
    ShortRead,
    WireClosed,
)
from repro.net.mux import current_deadline, deadline_scope
from repro.net.protocol import (
    WIRE_ERRORS,
    decode_message,
    error_kind_for,
    raise_wire_error,
)
from repro.net.transport import (
    TRANSPORT_ENV,
    InprocTransport,
    Transport,
    resolve_transport,
)

__all__ = [
    "encode",
    "decode",
    "Frame",
    "MuxFrameDecoder",
    "deadline_scope",
    "current_deadline",
    "ProtocolError",
    "ShortRead",
    "WireClosed",
    "FrameTooLarge",
    "decode_message",
    "error_kind_for",
    "raise_wire_error",
    "WIRE_ERRORS",
    "Transport",
    "InprocTransport",
    "resolve_transport",
    "TRANSPORT_ENV",
]


def __getattr__(name: str):
    # The wire transports pull in multiprocessing; load them lazily so the
    # default in-process path never pays the import.
    if name == "TcpTransport":
        from repro.net.tcp import TcpTransport

        return TcpTransport
    if name == "ShmTransport":
        from repro.net.shm import ShmTransport

        return ShmTransport
    raise AttributeError(name)
