"""Faults on the folded non-logged retention path, over tcp.

Non-logged retention rides a put's / get's own data calls (``retain``) and
reaches the servers those calls miss as a best-effort ``evict_consumed`` in
the same round. A fault on a retaining data call is a fault on the data
call — handled exactly as without retention — while a fault on a
best-effort ``evict_consumed`` is skipped: one attempt, no retry, no health
change.
"""

from __future__ import annotations

import pytest

from repro.core.interface import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.errors import ServerUnavailable
from repro.faults import FaultPlan, inject_faults
from repro.geometry import BBox, Domain
from repro.obs import get_registry
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import RetryPolicy, StagingGroup

from tests.conftest import make_payload

pytestmark = pytest.mark.integration

DOMAIN = Domain((16, 16, 8))
HALF = BBox((0, 0, 0), (8, 8, 8))  # owned by servers 0 and 1
FAST_RETRY = RetryPolicy(max_attempts=4, base_backoff=0.001, max_backoff=0.004)


@pytest.fixture
def service():
    group = StagingGroup.create(DOMAIN, num_servers=4, retry=FAST_RETRY, transport="tcp")
    svc = SynchronizedStaging(WorkflowStaging(group, enable_logging=False), max_wait=5.0)
    svc.register("sim")
    svc.register("ana")
    svc.declare_coupling("u", "ana")
    yield svc
    svc.close()


def _put(svc, version: int, box: BBox = DOMAIN.bbox) -> ObjectDescriptor:
    d = ObjectDescriptor("u", version, box)
    svc.put("sim", d, make_payload(d), step=version)
    return d


def test_crash_on_a_retaining_get_many_marks_down_and_raises(service):
    """The get's own ``get_many`` carries the retention; a crash there is a
    crash of the read: the server goes down and the get raises."""
    svc, group = service, service.group
    d0 = _put(svc, 0)
    _put(svc, 1)
    victim = 2
    # The get's first op on the victim is the coverage probe; crash the next.
    at = group.servers[victim].op_count + 1
    inject_faults(group, [FaultPlan(server=victim, op=at, kind="crash")])
    with pytest.raises(ServerUnavailable):
        svc.get_blocking("ana", d0, step=0)
    assert group.health.state(victim) == "down"
    assert group.servers[victim].op_count == at + 1


@pytest.mark.parametrize("kind", ["crash", "flaky"])
def test_unreachable_non_owner_is_skipped_without_retry(service, kind):
    """A put reaching 2 of 4 servers sends the other two an
    ``evict_consumed``; one that fails is skipped after one attempt, its
    health untouched, and keeps its consumed versions until a later op
    reaches it."""
    svc, group = service, service.group
    _put(svc, 0)
    _put(svc, 1)
    svc.retire_consumer("ana")  # no active consumer: keep only the latest
    victim = 3
    assert victim not in {sid for sid, _ in group.placement.shards(HALF)}
    retries = get_registry().counter("staging.client.retries")
    before_retries, before_ops = retries.value, group.servers[victim].op_count
    inject_faults(group, [FaultPlan(server=victim, op=before_ops, kind=kind)])
    _put(svc, 2, HALF)
    assert group.servers[victim].op_count == before_ops + 1
    assert retries.value == before_retries
    assert group.health.state(victim) == "up"
    assert group.servers[2].query_versions("u") == [1]
    if kind == "flaky":
        assert group.servers[victim].query_versions("u") == [0, 1]
        # The fault budget is spent: the next op's retention reaches it.
        _put(svc, 3, HALF)
        assert group.servers[victim].query_versions("u") == [1]
