"""The client's fan-out: one round of wire latency per logical op.

Runs on whatever transport ``REPRO_TRANSPORT`` selects (the CI transport
lane re-runs ``tests/staging`` over tcp and shm). On a wire transport a
4-server ``put`` / ``get`` / ``covers`` and a GC pass must overlap their
requests — measured against server-side ``slow`` faults — while retry,
mark-down and the pending-eviction queue behave per server exactly as on the
sequential inproc path, which each wire test is also run against.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.core.garbage import GarbageCollector
from repro.descriptors import ObjectDescriptor
from repro.errors import ServerUnavailable
from repro.faults import FaultPlan, inject_faults
from repro.geometry import Domain
from repro.obs import get_registry
from repro.staging import RetryPolicy, StagingClient, StagingGroup

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))
SERVERS = 4
LATENCY = 0.05
FAST_RETRY = RetryPolicy(max_attempts=4, base_backoff=0.001, max_backoff=0.004)


def _desc(version: int = 0) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, DOMAIN.bbox)


def make_group(transport=None) -> tuple[StagingGroup, StagingClient]:
    group = StagingGroup.create(
        DOMAIN, num_servers=SERVERS, retry=FAST_RETRY, transport=transport
    )
    return group, StagingClient(group, client_id="fan-out")


@pytest.fixture
def staged():
    group, client = make_group()
    yield group, client
    group.close()


def slow_everywhere(group) -> None:
    """Every data op on every server takes ``LATENCY`` longer, until healed."""
    inject_faults(
        group,
        [
            FaultPlan(server=s, op=0, kind="slow", latency=LATENCY, calls=0)
            for s in range(SERVERS)
        ],
    )


def assert_one_round(group, elapsed: float, sequential_ops: int) -> None:
    if group.transport.remote:
        assert elapsed < 2 * LATENCY, f"{elapsed:.3f}s: requests did not overlap"
    else:
        # The inproc reference has nothing to overlap: one op after another.
        assert elapsed >= sequential_ops * LATENCY


def logged_versions(group, client, versions: int):
    """A data log + collector with ``versions`` logged, all but the latest
    already read and checkpointed past (so one pass collects the rest)."""
    log = DataLog(group=group)
    queues = {"ana": EventQueue(component="ana")}
    gc = GarbageCollector(log=log, queues=queues, queue_provider=queues.get)
    for v in range(versions):
        d = _desc(v)
        client.put(d, make_payload(d))
        log.record_put("field", v, d.nbytes, producer="sim", step=v)
        log.record_get("field", "ana", v)
    queues["ana"].record_checkpoint(step=versions - 1)
    log.record_get("field", "ana", versions - 1)
    return log, gc


def unsettled(group) -> dict:
    """What a finished fan-out must not leave behind on a wire transport."""
    left = {}
    if not group.transport.remote:
        return left
    for endpoint in group.transport.endpoints():
        conn = endpoint._conn
        if conn is not None and conn.pending_count:
            left[f"pending@{endpoint.server_id}"] = conn.pending_count
        pool = getattr(endpoint, "pool", None)
        if pool is not None and pool._busy:
            left[f"leased@{endpoint.server_id}"] = len(pool._busy)
    return left


class TestOneRoundPerOp:
    def test_put_get_covers_overlap_across_servers(self, staged):
        group, client = staged
        d = _desc()
        payload = make_payload(d)
        client.put(d, payload)  # warm: connections dialled, slabs created
        slow_everywhere(group)

        d1 = _desc(1)
        t0 = perf_counter()
        assert client.put(d1, make_payload(d1)) >= SERVERS
        assert_one_round(group, perf_counter() - t0, SERVERS)

        t0 = perf_counter()
        got = client.get(d)
        assert_one_round(group, perf_counter() - t0, SERVERS)
        np.testing.assert_array_equal(got, payload)

        t0 = perf_counter()
        assert client.covers(d1)
        assert_one_round(group, perf_counter() - t0, SERVERS)
        assert not unsettled(group)

    def test_gc_pass_evicts_every_version_in_one_round(self, staged):
        group, client = staged
        log, gc = logged_versions(group, client, versions=5)
        slow_everywhere(group)
        t0 = perf_counter()
        report = gc.collect_incremental()
        assert_one_round(group, perf_counter() - t0, 4 * SERVERS)
        assert report.versions_collected == 4
        assert report.bytes_freed == 4 * _desc().nbytes
        assert log.pending_eviction_count() == 0
        assert not unsettled(group)


class TestPerServerPolicy:
    def test_flaky_server_is_the_only_one_retried(self, staged):
        group, client = staged
        inject_faults(group, [FaultPlan(server=1, op=0, kind="flaky", calls=1)])
        retries = get_registry().counter("staging.client.retries")
        before = retries.value
        d = _desc()
        client.put(d, make_payload(d))
        assert retries.value == before + 1
        assert [s.op_count for s in group.servers] == [1, 2, 1, 1]
        np.testing.assert_array_equal(client.get(d), make_payload(d))
        assert all(group.health.state(s) == "up" for s in range(SERVERS))

    @pytest.mark.parametrize("op", ["put", "get"])
    def test_crash_marks_down_and_raises_after_the_other_replies(self, staged, op):
        group, client = staged
        d = _desc()
        client.put(d, make_payload(d))
        inject_faults(group, [FaultPlan(server=1, op=0, kind="crash")])
        with pytest.raises(ServerUnavailable) as err:
            client.put(_desc(1), make_payload(_desc(1))) if op == "put" else client.get(d)
        assert err.value.server_id == 1
        assert group.health.state(1) == "down"
        assert [group.health.state(s) for s in (0, 2, 3)] == ["up"] * 3
        shards = StagingClient._by_server(group.placement.shards(d.bbox))
        asked = [group.servers[sid].op_count for sid in shards]
        if group.transport.remote:
            # Servers after the crashed one in placement order were asked,
            # answered, and had their replies consumed before the raise.
            assert asked == [1] * SERVERS
            assert not unsettled(group)
            if op == "put":
                for sid in (0, 2, 3):
                    descs = [_desc(1).with_bbox(box) for box in shards[sid]]
                    assert group.servers[sid].covers_all(descs)
        else:
            # The sequential reference stops at the server that failed.
            reached = list(shards).index(1) + 1
            assert asked == [1] * reached + [0] * (SERVERS - reached)

    @pytest.mark.parametrize("down", range(SERVERS))
    def test_covers_never_probes_a_down_server(self, staged, down):
        """Regression: a coverage probe that reached a down-marked server
        used to flip it back up (``mark_success``) — whether it was reached
        depended on its place in the probe order."""
        group, client = staged
        d = _desc()
        client.put(d, make_payload(d))
        assert client.covers(d)
        inject_faults(group, [])  # counting wrappers, no faults
        group.health.mark_down(down)
        assert not client.covers(d)
        assert group.health.state(down) == "down"
        assert group.servers[down].op_count == 0
        assert client.latest_version("field") == 0  # skips it as well
        assert group.servers[down].op_count == 0


class TestEvictionsMatchSequential:
    """Overlapped evictions classify every (server, version) reply exactly
    as the sequential path does: same bytes freed, same pending queue."""

    VERSIONS = 5

    def _faulted_pass(self, transport):
        group, client = make_group(transport)
        try:
            log, gc = logged_versions(group, client, self.VERSIONS)
            doomed = self.VERSIONS - 1
            inject_faults(
                group,
                [
                    # Every eviction of the pass fails on 1, crawls on 2,
                    # and finds 3 gone.
                    FaultPlan(server=1, op=0, kind="flaky", calls=doomed),
                    FaultPlan(server=2, op=0, kind="slow", latency=0.002, calls=0),
                    FaultPlan(server=3, op=0, kind="crash"),
                ],
            )
            first = gc.collect_incremental()
            queued = log.pending_evictions()
            health = [group.health.state(s) for s in range(SERVERS)]
            second = gc.collect_incremental()  # the flaky budget is spent
            return first, queued, health, second, log.pending_evictions()
        finally:
            group.close()

    def test_bytes_freed_and_pending_queue_match_inproc(self):
        ours = self._faulted_pass(None)
        reference = self._faulted_pass("inproc")
        assert ours == reference
        first, queued, health, second, left = ours
        assert first.versions_collected == self.VERSIONS - 1
        assert queued == {1: [("field", v) for v in range(self.VERSIONS - 1)]}
        assert health[3] == "down"
        assert second.pending_drained == self.VERSIONS - 1
        assert first.bytes_freed + second.bytes_freed > 0
        assert left == {}

    def test_hundred_version_pass_is_admitted_not_shed(self, staged):
        """More evictions than the server's queue depth (64) in one pass:
        the begin half windows them, so nothing is shed with ``ServerBusy``
        into the pending-eviction queue."""
        group, client = staged
        log, gc = logged_versions(group, client, versions=101)
        busy = get_registry().counter("net.mux.server_busy")
        before = busy.value
        report = gc.collect_incremental()
        assert report.versions_collected == 100
        assert report.bytes_freed == 100 * _desc().nbytes
        assert log.pending_eviction_count() == 0
        assert busy.value == before
        for v in range(100):
            assert not client.covers(_desc(v))
        assert client.covers(_desc(100))
