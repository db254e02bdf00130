"""Staging substrate: versioned object store, DHT placement, servers and
the client-side geometric put/get API."""

from repro.staging.client import StagingClient, StagingGroup
from repro.staging.cow import (
    StagingCheckpointer,
    compose_chain,
    is_cow_snapshot,
    snapshot_cost_bytes,
)
from repro.staging.hashing import PlacementMap
from repro.staging.resilience import (
    GroupHealth,
    ProtectionConfig,
    ProtectionIndex,
    PutRecord,
    RetryPolicy,
    rebuild_server,
)
from repro.staging.server import StagingServer
from repro.staging.store import ObjectStore, StoredObject

__all__ = [
    "StagingClient",
    "StagingGroup",
    "StagingCheckpointer",
    "compose_chain",
    "is_cow_snapshot",
    "snapshot_cost_bytes",
    "PlacementMap",
    "StagingServer",
    "ObjectStore",
    "StoredObject",
    "GroupHealth",
    "ProtectionConfig",
    "ProtectionIndex",
    "PutRecord",
    "RetryPolicy",
    "rebuild_server",
]
