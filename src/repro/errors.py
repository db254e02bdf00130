"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors. Subsystems
raise the most specific subclass that applies.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "StagingError",
    "ObjectNotFound",
    "VersionConflict",
    "ServerUnavailable",
    "TransientServerError",
    "DeadlineExceeded",
    "ServerBusy",
    "StagingDegradedError",
    "EncodingError",
    "DecodingError",
    "ConsistencyError",
    "ReplayError",
    "CheckpointError",
    "ProcessFailure",
    "CommunicatorRevoked",
    "SimulationError",
    "ConfigError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class GeometryError(ReproError):
    """Invalid bounding box or domain-decomposition operation."""


class StagingError(ReproError):
    """Generic staging-area failure."""


class ObjectNotFound(StagingError):
    """A get/query referenced a (name, version, region) not present in staging."""


class VersionConflict(StagingError):
    """A put would overwrite an existing version with different payload."""


class ServerUnavailable(StagingError):
    """A staging server suffered a fail-stop loss; requests to it cannot
    succeed until it is rebuilt (clients must not retry, only route around)."""

    def __init__(self, server_id: int, message: str = ""):
        self.server_id = server_id
        super().__init__(message or f"staging server {server_id} unavailable")


class TransientServerError(StagingError):
    """A staging-server request failed transiently (timeout, dropped message);
    safe to retry with backoff."""

    def __init__(self, server_id: int, message: str = ""):
        self.server_id = server_id
        super().__init__(message or f"transient failure on staging server {server_id}")


class DeadlineExceeded(TransientServerError):
    """A request's propagated deadline expired before the server ran it.

    Raised server-side (the request is dropped without executing) and
    re-raised typed on the client. Subclassing :class:`TransientServerError`
    folds it into the existing retry path: the client's ``_server_op`` loop
    retries while its own budget allows and gives up when the same deadline
    that expired on the wire has expired locally too.
    """

    def __init__(self, server_id: int, message: str = ""):
        super().__init__(
            server_id,
            message or f"request deadline expired before staging server {server_id} ran it",
        )


class ServerBusy(TransientServerError):
    """The server's bounded in-flight queue is full; the request was shed.

    Load-shedding admission control (depth via ``TcpTransport(queue_depth=)``):
    rather than queueing without bound and letting latency collapse, the
    server refuses immediately with this typed, retryable error — the
    client's backoff becomes the flow-control signal.
    """

    def __init__(self, server_id: int, message: str = ""):
        super().__init__(
            server_id, message or f"staging server {server_id} queue full; request shed"
        )


class StagingDegradedError(StagingError):
    """More staging servers are lost than the protection scheme tolerates;
    the requested data cannot be served or reconstructed."""


class EncodingError(ReproError):
    """Erasure-coding encode failed (bad parameters or shard layout)."""


class DecodingError(ReproError):
    """Erasure-coding decode failed (too many erasures or corrupt shards)."""


class ConsistencyError(ReproError):
    """A crash-consistency invariant was violated.

    Raised by the consistency checker when a component observes a different
    (version, payload) than it did during its initial execution — exactly the
    failure mode the paper's data-logging mechanism exists to prevent.
    """


class ReplayError(ReproError):
    """Event replay could not honour the logged history."""


class CheckpointError(ReproError):
    """Checkpoint capture or restore failed."""


class ProcessFailure(ReproError):
    """A simulated fail-stop failure (used as control flow by ULFM).

    ``kind="node"`` means the whole node died, taking any node-local
    checkpoint copies with it (multi-level checkpointing falls back to the
    last durable tier).
    """

    def __init__(
        self, rank: int, component: str = "", at_step: int = -1, kind: str = "process"
    ):
        self.rank = rank
        self.component = component
        self.at_step = at_step
        self.kind = kind
        super().__init__(
            f"fail-stop {kind} failure of rank {rank}"
            + (f" in component {component!r}" if component else "")
            + (f" at step {at_step}" if at_step >= 0 else "")
        )


class CommunicatorRevoked(ReproError):
    """The communicator was revoked after a peer failure (ULFM semantics)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class ConfigError(ReproError):
    """An experiment configuration is invalid or internally inconsistent."""
