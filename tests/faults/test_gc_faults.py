"""GC eviction under injected server faults: {crash, slow, flaky} × evict.

The satellite bugfix under test: :meth:`DataLog.evict` must distinguish
fail-stop from transient failures. A *crashed* server's fragments die with
it (written off); a *slow or flaky* server is alive and still holds its
fragments, so they go on that server's pending-eviction queue and are
retried until confirmed — never silently written off (the leak this PR
fixes), and never left fetchable after GC reports the version collected.
"""

from __future__ import annotations

import pytest

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.core.garbage import GarbageCollector
from repro.descriptors import ObjectDescriptor
from repro.faults import FaultPlan, inject_faults
from repro.geometry import Domain
from repro.staging import (
    ProtectionConfig,
    RetryPolicy,
    StagingClient,
    StagingGroup,
    StagingServer,
)

from tests.conftest import make_payload

FAST_RETRY = RetryPolicy(max_attempts=4, base_backoff=0.001, max_backoff=0.004)
DOMAIN = Domain((16, 16, 8))
EVICT_KINDS = ("crash", "slow", "flaky")


def _desc(version: int) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, DOMAIN.bbox)


def _plan(kind: str, server: int, calls: int = 1) -> FaultPlan:
    latency = 0.002 if kind == "slow" else 0.0
    return FaultPlan(server=server, op=0, kind=kind, calls=calls, latency=latency)


def collectable_setup(versions: int = 3):
    """Group + log + gc with ``versions`` logged, all but the latest dead."""
    group = StagingGroup.create(
        DOMAIN,
        num_servers=4,
        protection=ProtectionConfig(mode="rs", parity=2),
        retry=FAST_RETRY,
    )
    client = StagingClient(group, client_id="gc-faults")
    log = DataLog(group=group)
    queues = {"ana": EventQueue(component="ana")}
    gc = GarbageCollector(log=log, queues=queues, queue_provider=queues.get)
    for v in range(versions):
        d = _desc(v)
        client.put(d, make_payload(d))
        log.record_put("field", v, d.nbytes, producer="sim", step=v)
        log.record_get("field", "ana", v)
    queues["ana"].record_checkpoint(step=versions - 1)
    log.record_get("field", "ana", versions - 1)  # rollback floor: latest
    return group, client, log, gc


def live_fragments(group, name: str, version: int) -> dict[int, int]:
    """(server_id -> fragment count) for servers that are still *live*."""
    out = {}
    for server in group.servers:
        if getattr(server, "crashed", False):
            continue
        out[server.server_id] = len(server.store.fragments(name, version))
    return out


@pytest.mark.parametrize("kind", EVICT_KINDS)
class TestEvictFaultMatrix:
    def test_collected_version_not_fetchable_after_drain(self, kind):
        group, client, log, gc = collectable_setup()
        inject_faults(group, [_plan(kind, server=1, calls=1)])
        report = gc.collect()
        assert report.versions_collected == 2
        assert log.logged_versions("field") == [2]
        # Transient kinds may leave fragments queued behind the fault; they
        # must drain to zero once the fault clears (flaky: calls exhausted).
        if log.pending_eviction_count():
            drained, _freed = log.drain_pending_evictions()
            assert drained > 0
        assert log.pending_eviction_count() == 0
        # The paper-level guarantee: after GC reports a version collected
        # (and pending work drained), no live server still serves it.
        for v in (0, 1):
            counts = live_fragments(group, "field", v)
            assert all(c == 0 for c in counts.values()), (
                f"v{v} fragments survive on live servers: {counts}"
            )
        # The retained latest version is still fully readable.
        assert client.covers(_desc(2))


class TestTransientQueuesPending:
    def test_flaky_evict_queues_not_writes_off(self):
        """The bug this PR fixes: a flaky server's fragments used to be
        written off like a crash — leaking them forever."""
        group, client, log, gc = collectable_setup()
        # Enough flaky calls that both evictions (v0, v1) fail transiently.
        inject_faults(group, [_plan("flaky", server=1, calls=2)])
        report = gc.collect()
        assert report.versions_collected == 2
        # Logically collected, but server 1's fragments are *pending*, not
        # written off — and still physically present on the flaky server.
        assert log.pending_eviction_count(1) == 2
        assert log.pending_evictions() == {1: [("field", 0), ("field", 1)]}
        for v in (0, 1):
            assert len(group.servers[1].inner.store.fragments("field", v)) > 0
        # Next pass retries: the fault budget is exhausted, so both drain.
        drained, freed = log.drain_pending_evictions()
        assert drained == 2
        assert freed > 0
        assert log.pending_eviction_count() == 0
        for v in (0, 1):
            assert len(group.servers[1].inner.store.fragments("field", v)) == 0

    def test_gc_pass_drains_pending(self):
        group, client, log, gc = collectable_setup()
        inject_faults(group, [_plan("flaky", server=2, calls=2)])
        gc.collect()
        assert log.pending_eviction_count(2) == 2
        assert gc.has_work()  # pending evictions count as GC work
        report = gc.collect_incremental()
        assert report.pending_drained == 2
        assert log.pending_eviction_count() == 0

    def test_crash_during_drain_writes_off(self):
        group, client, log, gc = collectable_setup()
        # First a transient failure queues the evictions...
        inject_faults(group, [_plan("flaky", server=1, calls=2)])
        gc.collect()
        assert log.pending_eviction_count(1) == 2
        # ...then the server fail-stops: retrying is pointless, write off.
        inject_faults(group, [_plan("crash", server=1)])
        drained, _ = log.drain_pending_evictions()
        assert drained == 0
        assert log.pending_eviction_count() == 0
        assert group.health.state(1) == "down"


class TestCrashWritesOff:
    def test_crashed_server_fragments_written_off(self):
        group, client, log, gc = collectable_setup()
        inject_faults(group, [_plan("crash", server=0)])
        report = gc.collect()
        assert report.versions_collected == 2
        # Fail-stop: nothing queued (the memory died with the server).
        assert log.pending_eviction_count() == 0
        assert group.health.state(0) == "down"
        # Survivor servers all dropped their fragments.
        for v in (0, 1):
            assert all(
                c == 0 for c in live_fragments(group, "field", v).values()
            )

    def test_rebuilt_server_drain_tolerates_missing(self):
        """ObjectNotFound during a drain counts as drained: a rebuilt
        replacement server never held the queued fragments."""
        group, client, log, gc = collectable_setup()
        inject_faults(group, [_plan("flaky", server=1, calls=2)])
        gc.collect()
        assert log.pending_eviction_count(1) == 2
        # Simulate replacement: heal the proxy and wipe its store and blobs.
        group.servers[1].heal()
        group.servers[1].restore(StagingServer.empty_snapshot())
        drained, _freed = log.drain_pending_evictions()
        assert drained == 2
        assert log.pending_eviction_count() == 0


class TestRecoveryWakeup:
    def test_health_recovery_wakes_collector(self):
        group, client, log, gc = collectable_setup()
        woken = []
        log.recovery_waker = lambda: woken.append(True)
        inject_faults(group, [_plan("flaky", server=1, calls=2)])
        gc.collect()
        assert log.pending_eviction_count(1) == 2
        assert group.health.state(1) != "up"  # transient failures marked
        # The server answers again: health transitions back to up and the
        # waker fires (there is pending work for that server).
        group.health.mark_success(1)
        assert woken

    def test_no_wakeup_without_pending_work(self):
        group, client, log, gc = collectable_setup()
        woken = []
        log.recovery_waker = lambda: woken.append(True)
        group.health.mark_failure(1)
        group.health.mark_success(1)
        assert not woken
