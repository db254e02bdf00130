"""The client's fan-out: one round of wire latency per logical op.

Runs on whatever transport ``REPRO_TRANSPORT`` selects (the CI transport
lane re-runs ``tests/staging`` over tcp and shm). On a wire transport a
4-server ``put`` / ``get`` / ``covers`` and a GC pass must overlap their
requests — measured against server-side ``slow`` faults — while retry,
mark-down and the pending-eviction queue behave per server exactly as on the
sequential inproc path, which each wire test is also run against. The
protected path (``staging.resilience``) is held to the same rule per *stage*:
data then parity of a put, survivors then parity of a degraded read. Inproc,
a payload of at least ``PARALLEL_THRESHOLD_BYTES`` on a ``parallel`` group
begins on the shard-I/O pool instead; the per-server policy cases run both
ways.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.core.data_log import DataLog
from repro.core.event_queue import EventQueue
from repro.core.garbage import GarbageCollector
from repro.corec.reedsolomon import RSCode
from repro.descriptors import ObjectDescriptor
from repro.errors import ServerUnavailable, VersionConflict
from repro.faults import FaultPlan, inject_faults
from repro.geometry import Domain
from repro.obs import get_registry
from repro.staging import ProtectionConfig, RetryPolicy, StagingClient, StagingGroup
from repro.staging.client import PARALLEL_THRESHOLD_BYTES

from tests.conftest import make_payload

DOMAIN = Domain((16, 16, 8))
# 512 KiB of float64: a put or get of it begins on the pool of a parallel group.
POOLED_DOMAIN = Domain((64, 64, 16))
assert int(np.prod(POOLED_DOMAIN.shape)) * 8 >= PARALLEL_THRESHOLD_BYTES
SERVERS = 4
LATENCY = 0.05
FAST_RETRY = RetryPolicy(max_attempts=4, base_backoff=0.001, max_backoff=0.004)


def _desc(version: int = 0, domain: Domain = DOMAIN) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, domain.bbox)


def make_group(
    transport=None, protection=None, domain: Domain = DOMAIN, parallel=None
) -> tuple[StagingGroup, StagingClient]:
    group = StagingGroup.create(
        domain,
        num_servers=SERVERS,
        retry=FAST_RETRY,
        transport=transport,
        protection=protection,
        parallel=parallel,
    )
    return group, StagingClient(group, client_id="fan-out")


def pool_ops() -> int:
    return get_registry().counter("staging.pool.parallel_ops").value


def pooled_or_inline(pooled: bool):
    """A group whose inproc puts and gets begin on the pool, or inline."""
    if pooled:
        return make_group(domain=POOLED_DOMAIN, parallel=True)
    return make_group(parallel=False)


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


def assert_one_round(
    group, elapsed: float, sequential_ops: int, rounds: int = 1
) -> None:
    if group.transport.remote:
        assert elapsed < (rounds + 1) * LATENCY, (
            f"{elapsed:.3f}s: requests did not overlap"
        )
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
    def test_flaky_server_is_the_only_one_retried(self):
        for pooled in (False, True):
            group, client = pooled_or_inline(pooled)
            try:
                inject_faults(group, [FaultPlan(server=1, op=0, kind="flaky", calls=1)])
                retries = get_registry().counter("staging.client.retries")
                before = retries.value, pool_ops()
                d = _desc(domain=group.domain)
                client.put(d, make_payload(d))
                assert retries.value == before[0] + 1
                assert [s.op_count for s in group.servers] == [1, 2, 1, 1]
                np.testing.assert_array_equal(client.get(d), make_payload(d))
                assert all(group.health.state(s) == "up" for s in range(SERVERS))
                ran_pooled = pooled and not group.transport.remote
                assert (pool_ops() > before[1]) == ran_pooled
            finally:
                group.close()

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    @pytest.mark.parametrize("op", ["put", "get"])
    def test_crash_marks_down_and_raises_after_the_other_replies(self, op, pooled):
        """Every transport, inline or pooled: servers after the crashed one
        in placement order are asked, answer, and have their replies
        consumed before the raise."""
        group, client = pooled_or_inline(pooled)
        try:
            d = _desc(domain=group.domain)
            client.put(d, make_payload(d))
            inject_faults(group, [FaultPlan(server=1, op=0, kind="crash")])
            d1 = _desc(1, group.domain)
            with pytest.raises(ServerUnavailable) as err:
                client.put(d1, make_payload(d1)) if op == "put" else client.get(d)
            assert err.value.server_id == 1
            assert group.health.state(1) == "down"
            assert [group.health.state(s) for s in (0, 2, 3)] == ["up"] * 3
            shards = StagingClient._by_server(group.placement.shards(d.bbox))
            assert [group.servers[sid].op_count for sid in shards] == [1] * SERVERS
            assert not unsettled(group)
            if op == "put":
                for sid in (0, 2, 3):
                    descs = [d1.with_bbox(box) for box in shards[sid]]
                    assert group.servers[sid].covers_all(descs)
        finally:
            group.close()

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


RS2 = ProtectionConfig(mode="rs", parity=2)
# On 4 servers RS(+2) codes a full-domain put as two codewords of two data
# shards each: 4 ``put_many`` + 4 ``put_blob``, two ops on every server.


@pytest.fixture
def protected():
    group, client = make_group(protection=RS2)
    yield group, client
    group.close()


def verify_failures() -> int:
    return get_registry().counter("staging.client.verify_failures").value


class TestProtectedPathOverlaps:
    def test_two_rounds_per_put_one_per_read(self, protected):
        group, client = protected
        d = _desc()
        payload = make_payload(d)
        client.put(d, payload)  # warm: connections dialled, slabs created
        slow_everywhere(group)

        d1 = _desc(1)
        t0 = perf_counter()
        client.put(d1, make_payload(d1))
        assert_one_round(group, perf_counter() - t0, 2 * SERVERS, rounds=2)
        assert not unsettled(group)

        t0 = perf_counter()
        got = client.get(d)
        assert_one_round(group, perf_counter() - t0, SERVERS)
        np.testing.assert_array_equal(got, payload)
        assert not unsettled(group)

        group.health.mark_down(1)  # survivors, then one parity row
        t0 = perf_counter()
        got = client.get(d)
        assert_one_round(group, perf_counter() - t0, SERVERS, rounds=2)
        np.testing.assert_array_equal(got, payload)
        assert not unsettled(group)

    @pytest.mark.parametrize("mode", ["rs", "replication"])
    def test_record_and_bytes_match_inproc(self, mode):
        cfg = ProtectionConfig(mode=mode, parity=2, replicas=2)
        seen = []
        for transport in (None, "inproc"):
            group, client = make_group(transport, protection=cfg)
            try:
                d = _desc()
                client.put(d, make_payload(d))
                seen.append((group.records.all_records(), client.get(d).tobytes()))
                assert not unsettled(group)
            finally:
                group.close()
        ours, reference = seen
        assert ours == reference
        (rec,) = ours[0]
        assert len(rec.parity) == (4 if mode == "rs" else 0)
        assert [len(c) for c in rec.copies] == ([] if mode == "rs" else [2] * SERVERS)
        assert ours[1] == make_payload(_desc()).tobytes()


class TestProtectedPathPerServerPolicy:
    @pytest.mark.parametrize("op", [0, 1], ids=["data-op", "parity-op"])
    def test_crash_mid_put_leaves_nothing_in_flight(self, protected, op):
        group, client = protected
        d = _desc()
        client.put(d, make_payload(d))  # warm
        inject_faults(group, [FaultPlan(server=1, op=op, kind="crash")])
        d1 = _desc(1)
        client.put(d1, make_payload(d1))  # degraded, still within RS(+2)
        assert group.health.state(1) == "down"
        assert [group.health.state(s) for s in (0, 2, 3)] == ["up"] * 3
        assert not unsettled(group)
        (rec,) = group.records.for_key("field", 1)
        assert 1 not in {p.server for p in rec.parity}
        np.testing.assert_array_equal(client.get(d1), make_payload(d1))
        assert not unsettled(group)

    @pytest.mark.parametrize("kind, mismatches", [("corrupt", 1), ("flaky", 0)])
    def test_bad_shard_read_retries_its_server_only(self, protected, kind, mismatches):
        group, client = protected
        d = _desc()
        client.put(d, make_payload(d))
        inject_faults(group, [FaultPlan(server=1, op=0, kind=kind, calls=1)])
        retries = get_registry().counter("staging.client.retries")
        before = retries.value, verify_failures()
        np.testing.assert_array_equal(client.get(d), make_payload(d))
        assert (retries.value, verify_failures()) == (before[0] + 1, before[1] + mismatches)
        assert [s.op_count for s in group.servers] == [1, 2, 1, 1]
        assert all(group.health.state(s) == "up" for s in range(SERVERS))
        assert not unsettled(group)

    def test_parity_falls_back_to_the_next_candidate(self):
        """RS(+1) on 4 servers: the second codeword is shard 3 alone, its one
        parity row goes to server 0 first, with 1 and 2 to spare."""
        group, client = make_group(protection=ProtectionConfig(mode="rs", parity=1))
        try:
            d = _desc()
            # Server 0's first op is its put_many, its second the put_blob.
            inject_faults(group, [FaultPlan(server=0, op=1, kind="crash")])
            client.put(d, make_payload(d))
            (rec,) = group.records.all_records()
            assert [(p.group, p.j, p.server) for p in rec.parity] == [(0, 0, 3), (1, 0, 1)]
            assert rec.parity_blob_key(1, 0) in group.servers[1].blob_keys("field", 0)
            assert group.health.state(0) == "down"
            assert not unsettled(group)
            np.testing.assert_array_equal(client.get(d), make_payload(d))
        finally:
            group.close()

    @pytest.mark.parametrize("mode", ["rs", "replication"])
    @pytest.mark.parametrize("transport", ["inproc", "shm"])
    def test_rejected_reput_leaves_the_stored_version_protected(self, transport, mode):
        """A conflicting re-put is refused by the data round, before any
        blob is begun: blob keys depend on the descriptor alone and
        ``put_blob`` overwrites, so parity or copies of the refused bytes
        would replace the ones the stored record's digests name."""
        cfg = ProtectionConfig(mode=mode, parity=2, replicas=1)
        group, client = make_group(transport, protection=cfg)
        try:
            d = _desc()
            payload = make_payload(d)
            client.put(d, payload)
            (rec,) = group.records.all_records()
            with pytest.raises(VersionConflict):
                client.put(d, payload + 1)
            assert group.records.all_records() == [rec]
            assert not unsettled(group)
            group.health.mark_down(1)
            np.testing.assert_array_equal(client.get(d), payload)
        finally:
            group.close()


class TestProtectedPutUnwinds:
    def test_exception_between_the_rounds_abandons_what_was_begun(self, monkeypatch):
        """An error that is not a staging error (a bug in encode, an
        interrupt) escapes with the data round in flight: every pending call
        is abandoned and every slab returned, no record is registered, and
        the client is usable."""
        group, client = make_group("shm", protection=RS2)
        try:
            d = _desc()
            client.put(d, make_payload(d))  # warm
            with monkeypatch.context() as patched:

                def broken(self, data):
                    raise RuntimeError("encode bug")

                patched.setattr(RSCode, "encode_parity", broken)
                with pytest.raises(RuntimeError, match="encode bug"):
                    client.put(_desc(1), make_payload(_desc(1)))
            assert not unsettled(group)
            assert group.records.for_key("field", 1) == []
            d2 = _desc(2)
            client.put(d2, make_payload(d2))
            np.testing.assert_array_equal(client.get(d2), make_payload(d2))
            assert not unsettled(group)
        finally:
            group.close()
