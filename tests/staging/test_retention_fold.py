"""Non-logged retention rides the put/get it follows.

Original DataSpaces retention (``enable_logging=False``) keeps, on every
server, the latest version plus everything some active consumer has not
read. The floor is planned with the op and travels as ``retain=(name,
floor)`` on the op's own ``put_many`` / ``get_many``; a live server the op
does not otherwise touch gets an ``evict_consumed`` in the same round. So a
non-logged op costs one frame per live server, not one more round per op.

Every test runs on inproc, tcp and shm, unprotected and with RS(+2). A
protected read leaves the version it reads for the next op to drop (its
degraded decode may still need that version's parity from servers the read
round already answered); the model below carries that rule.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.interface import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox, Domain
from repro.obs import get_registry
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import ProtectionConfig, StagingClient, StagingGroup

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))
SERVERS = 4
HALF = BBox((0, 0, 0), (8, 8, 8))  # reaches servers 0 and 1 only
PRODUCER, CONSUMERS = "sim", ("ana", "viz")

TRANSPORTS = ["inproc", "tcp", "shm"]
PROTECTIONS = {"off": None, "rs2": ProtectionConfig(mode="rs", parity=2)}


def _requests() -> int:
    counter = get_registry().get("net.tcp.requests")
    return 0 if counter is None else counter.value


def _owners(group: StagingGroup, box: BBox) -> set[int]:
    return {sid for sid, _ in group.placement.shards(box)}


@pytest.fixture(params=TRANSPORTS)
def transport(request) -> str:
    return request.param


@pytest.fixture(params=sorted(PROTECTIONS))
def protection(request) -> str:
    return request.param


@pytest.fixture
def service(transport, protection):
    group = StagingGroup.create(
        DOMAIN,
        num_servers=SERVERS,
        transport=transport,
        protection=PROTECTIONS[protection],
    )
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=False), max_ahead=16, max_wait=10.0
    )
    svc.register(PRODUCER)
    for consumer in CONSUMERS:
        svc.register(consumer)
        svc.declare_coupling("u", consumer)
    yield svc
    svc.close()


class RetentionModel:
    """What every server and the protection index hold after each op.

    A put adds its version to its owners; every op then applies its floor
    on every live server: versions below ``min(floor, latest on that
    server)`` go. The floor is "lowest version some active consumer has not
    read" — for a get, counting its own read — except that a protected get
    stops at the version it reads.
    """

    def __init__(self, protected: bool) -> None:
        self.protected = protected
        self.held: dict[int, set[int]] = {s: set() for s in range(SERVERS)}
        self.records: set[int] = set()
        self.frontier = {c: -1 for c in CONSUMERS}

    def _floor(self) -> int:
        return min(self.frontier.values()) + 1

    @staticmethod
    def _apply(versions: set[int], floor: float) -> set[int]:
        if not versions:
            return versions
        keep_from = min(floor, max(versions))
        return {v for v in versions if v >= keep_from}

    def _retain(self, floor: float) -> None:
        self.held = {s: self._apply(vs, floor) for s, vs in self.held.items()}
        self.records = self._apply(self.records, floor)

    def put(self, version: int, owners: set[int]) -> None:
        for s in owners:
            self.held[s].add(version)
        if self.protected:
            self.records.add(version)
        self._retain(self._floor())

    def get(self, consumer: str, version: int) -> None:
        self.frontier[consumer] = max(self.frontier[consumer], version)
        floor = self._floor()
        self._retain(min(floor, version) if self.protected else floor)

    def rule(self, ever: dict[int, set[int]]) -> dict[int, set[int]]:
        """The rule from scratch: latest, plus everything unread."""
        return {s: self._apply(set(vs), self._floor()) for s, vs in ever.items()}


def _check(svc: SynchronizedStaging, model: RetentionModel, ever) -> None:
    group = svc.group
    held = {s: set(group.servers[s].query_versions("u")) for s in range(SERVERS)}
    assert held == model.held
    assert set(group.records.versions("u")) == model.records
    if not model.protected:
        assert held == model.rule(ever)


def test_servers_keep_latest_plus_unread_after_every_op(service, protection):
    """Two consumers at different frontiers and a put reaching 2 of 4
    servers: after every op the servers and the protection records hold
    exactly what the retention rule says; every read is byte-exact; and a
    non-logged put or get costs one frame per live server it reaches."""
    svc, group = service, service.group
    model = RetentionModel(protected=protection != "off")
    ever: dict[int, set[int]] = {s: set() for s in range(SERVERS)}
    boxes = {0: DOMAIN.bbox, 1: DOMAIN.bbox, 2: HALF, 3: DOMAIN.bbox}
    assert len(_owners(group, HALF)) == 2
    remote = group.transport.remote

    def put(v: int) -> None:
        d = ObjectDescriptor("u", v, boxes[v])
        before = _requests()
        svc.put(PRODUCER, d, make_payload(d), step=v)
        owners = _owners(group, boxes[v])
        for s in owners:
            ever[s].add(v)
        model.put(v, owners)
        if remote:
            blobs = sum(len(r.parity) for r in group.records.for_key("u", v))
            assert _requests() - before == SERVERS + blobs
        _check(svc, model, ever)

    def get(consumer: str, v: int) -> None:
        d = ObjectDescriptor("u", v, boxes[v])
        before = _requests()
        got = svc.get_blocking(consumer, d, step=v)
        assert got.served_version == v
        np.testing.assert_array_equal(got.data, make_payload(d))
        model.get(consumer, v)
        if remote:
            # Coverage probe (answered by the records when protected), then
            # the fetch: one frame per live server.
            probes = 0 if model.protected else len(_owners(group, boxes[v]))
            assert _requests() - before == probes + SERVERS
        _check(svc, model, ever)

    put(0)
    get("ana", 0)
    put(1)
    put(2)
    get("ana", 1)
    get("viz", 0)
    get("viz", 1)
    get("ana", 2)
    put(3)
    get("viz", 2)
    get("ana", 3)
    get("viz", 3)


def test_read_whose_floor_takes_its_own_version_returns_its_bytes(transport, protection):
    """The server evicts after serving, in the same lock hold: a get whose
    floor passes the very version it reads still returns that version."""
    group = StagingGroup.create(
        DOMAIN, num_servers=SERVERS, transport=transport, protection=PROTECTIONS[protection]
    )
    try:
        client = StagingClient(group, client_id="fold")
        d0, d1 = (ObjectDescriptor("u", v, DOMAIN.bbox) for v in (0, 1))
        client.put(d0, make_payload(d0))
        client.put(d1, make_payload(d1))
        got = client.get(d0, ("u", math.inf))
        np.testing.assert_array_equal(got, make_payload(d0))
        for server in group.servers:
            assert server.query_versions("u") == [1]
        np.testing.assert_array_equal(client.get(d1), make_payload(d1))
    finally:
        group.close()


def test_logged_ops_send_no_retention(transport):
    """Logged mode never sends ``retain``: a put reaches only its owners."""
    group = StagingGroup.create(DOMAIN, num_servers=SERVERS, transport=transport)
    svc = SynchronizedStaging(WorkflowStaging(group, enable_logging=True))
    try:
        svc.register(PRODUCER)
        d = ObjectDescriptor("u", 0, HALF)
        before = _requests()
        svc.put(PRODUCER, d, make_payload(d), step=0)
        if group.transport.remote:
            assert _requests() - before == len(_owners(group, HALF))
    finally:
        svc.close()
