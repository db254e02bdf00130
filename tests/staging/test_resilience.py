"""Unit tests for protection config, health, records, and rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.descriptors import ObjectDescriptor
from repro.errors import ConfigError, ObjectNotFound
from repro.faults import FaultPlan, inject_faults
from repro.geometry import BBox, Domain
from repro.obs import get_registry
from repro.staging import (
    GroupHealth,
    ProtectionConfig,
    ProtectionIndex,
    RetryPolicy,
    StagingClient,
    StagingGroup,
    resilience,
)
from repro.staging.resilience import PutRecord, ShardInfo

DOMAIN = Domain((16, 16, 8))
DESC = ObjectDescriptor("field", 1, DOMAIN.bbox)
DATA = np.arange(DOMAIN.bbox.volume, dtype=np.float64).reshape(DOMAIN.bbox.shape)


class TestConfigs:
    def test_protection_config_validation(self):
        with pytest.raises(ConfigError):
            ProtectionConfig(mode="raid6")
        with pytest.raises(ConfigError):
            ProtectionConfig(mode="rs", parity=0)
        with pytest.raises(ConfigError):
            ProtectionConfig(mode="replication", replicas=0)

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff=0.1, max_backoff=0.01)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline=0)

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(base_backoff=0.01, max_backoff=0.05, jitter=0.0)
        assert policy.backoff_for(1) == pytest.approx(0.01)
        assert policy.backoff_for(2) == pytest.approx(0.02)
        assert policy.backoff_for(3) == pytest.approx(0.04)
        assert policy.backoff_for(4) == pytest.approx(0.05)  # capped
        assert policy.backoff_for(10) == pytest.approx(0.05)

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_backoff=0.01, max_backoff=0.08, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(1, 6):
            raw = RetryPolicy(
                base_backoff=0.01, max_backoff=0.08, jitter=0.0
            ).backoff_for(attempt)
            jittered = policy.backoff_for(attempt, rng)
            assert raw <= jittered <= raw * 1.5


class TestGroupHealth:
    def test_transient_failures_walk_up_suspect_down(self):
        health = GroupHealth(2, down_after=3)
        assert health.state(0) == "up"
        health.mark_failure(0)
        assert health.state(0) == "suspect"
        health.mark_failure(0)
        assert health.state(0) == "suspect"
        health.mark_failure(0)
        assert health.state(0) == "down"
        assert health.down_servers() == [0]
        assert health.alive() == [1]

    def test_success_resets_failure_streak(self):
        health = GroupHealth(1, down_after=2)
        health.mark_failure(0)
        health.mark_success(0)
        health.mark_failure(0)
        assert health.state(0) == "suspect"  # streak restarted

    def test_mark_down_is_immediate_and_sticky(self):
        health = GroupHealth(1)
        health.mark_down(0)
        health.mark_failure(0)
        assert health.is_down(0)
        health.reset(0)
        assert health.state(0) == "up"

    def test_snapshot_round_trip(self):
        health = GroupHealth(3)
        health.mark_down(1)
        health.mark_failure(2)
        snap = health.snapshot()
        other = GroupHealth(3)
        other.restore(snap)
        assert [other.state(i) for i in range(3)] == ["up", "down", "suspect"]


class TestProtectionIndex:
    def _record(self, version: int, bbox: BBox | None = None) -> PutRecord:
        desc = ObjectDescriptor("x", version, bbox or BBox((0, 0), (4, 4)))
        return PutRecord(
            record_id=f"x@v{version}:{desc.bbox}",
            desc=desc,
            mode="rs",
            parity_count=1,
            shard_len=8,
            shards=(ShardInfo(server=0, boxes=(desc.bbox,), nbytes=8, digest="d"),),
            groups=((0,),),
        )

    def test_overlapping_filters_by_version_and_region(self):
        index = ProtectionIndex()
        index.add(self._record(1, BBox((0, 0), (2, 2))))
        index.add(self._record(1, BBox((2, 2), (4, 4))))
        index.add(self._record(2))
        probe = ObjectDescriptor("x", 1, BBox((0, 0), (2, 2)))
        assert len(index.overlapping(probe)) == 1
        assert len(index.for_key("x", 1)) == 2
        assert index.versions("x") == [1, 2]

    def test_evict_and_evict_older_than(self):
        index = ProtectionIndex()
        for v in (1, 2, 3):
            index.add(self._record(v))
        assert index.evict("x", 2) == 1
        assert index.evict("x", 2) == 0
        assert index.evict_older_than("x", 3) == 1  # v1
        assert index.versions("x") == [3]

    def test_snapshot_round_trip(self):
        index = ProtectionIndex()
        index.add(self._record(1))
        snap = index.snapshot()
        index.evict("x", 1)
        index.restore(snap)
        assert len(index) == 1


def protected(**overrides) -> tuple[StagingGroup, StagingClient]:
    kwargs = dict(
        protection=ProtectionConfig(mode="rs", parity=2),
        retry=RetryPolicy(base_backoff=0.001, max_backoff=0.004),
    )
    kwargs.update(overrides)
    group = StagingGroup.create(DOMAIN, num_servers=4, **kwargs)
    return group, StagingClient(group)


class TestProtectedPath:
    def test_protected_put_places_parity_on_non_owner_servers(self):
        group, client = protected()
        client.put(DESC, DATA)
        (record,) = group.records.for_key(DESC.name, DESC.version)
        for p in record.parity:
            owners = {record.shards[i].server for i in record.groups[p.group]}
            assert p.server not in owners
        assert sum(s.protection_nbytes for s in group.servers) > 0

    def test_unprotected_group_has_zero_overhead(self):
        group = StagingGroup.create(DOMAIN, num_servers=4)
        client = StagingClient(group)
        client.put(DESC, DATA)
        assert len(group.records) == 0
        assert sum(s.protection_nbytes for s in group.servers) == 0

    def test_absent_data_still_raises_object_not_found(self):
        # No fault anywhere: a read of a version never written must surface
        # as ObjectNotFound (blocking gets depend on it), not as degraded.
        group, client = protected()
        client.put(DESC, DATA)
        with pytest.raises(ObjectNotFound):
            client.get(DESC.with_version(9))

    def test_eviction_drops_fragments_and_records(self):
        group, client = protected()
        client.put(DESC, DATA)
        for server in group.servers:
            server.evict(DESC.name, DESC.version)
        group.records.evict(DESC.name, DESC.version)
        assert sum(s.nbytes for s in group.servers) == 0
        assert sum(s.protection_nbytes for s in group.servers) == 0
        assert len(group.records) == 0

    def test_latest_version_sees_versions_only_parity_remembers(self):
        group, client = protected()
        client.put(DESC, DATA)
        lost = group.records.for_key(DESC.name, DESC.version)[0].shards[0].server
        inject_faults(group, [FaultPlan(server=lost, op=0, kind="crash")])
        assert client.latest_version(DESC.name) == DESC.version

    def test_covers_true_under_survivable_loss_false_beyond(self):
        group, client = protected(protection=ProtectionConfig(mode="rs", parity=1))
        client.put(DESC, DATA)
        inject_faults(group, [FaultPlan(server=0, op=0, kind="crash")])
        client.get(DESC)  # drive health to notice the crash
        assert client.covers(DESC)
        group.health.mark_down(1)
        assert not client.covers(DESC)


class TestRebuild:
    def test_rebuild_restores_direct_serving(self):
        group, client = protected()
        client.put(DESC, DATA)
        inject_faults(group, [FaultPlan(server=2, op=0, kind="crash")])
        np.testing.assert_array_equal(client.get(DESC), DATA)  # degraded
        rebuilt = group.rebuild(2)
        assert rebuilt > 0
        assert group.health.state(2) == "up"
        # The replacement serves directly: drop protection and read raw.
        group.drop_protection()
        np.testing.assert_array_equal(client.get(DESC), DATA)

    def test_rebuild_restores_parity_for_future_losses(self):
        group, client = protected()
        client.put(DESC, DATA)
        inject_faults(group, [FaultPlan(server=1, op=0, kind="crash")])
        client.get(DESC)
        group.rebuild(1)
        # Now lose a *different* server: the rebuilt parity must carry it.
        group.health.mark_down(3)
        np.testing.assert_array_equal(client.get(DESC), DATA)

    def test_rebuild_is_counted_per_record(self):
        group, client = protected()
        client.put(DESC, DATA)
        client.put(DESC.with_version(2), DATA * 2)
        group.health.mark_down(0)
        rebuilt = group.rebuild(0)
        direct = StagingClient(group)
        group.drop_protection()
        np.testing.assert_array_equal(direct.get(DESC.with_version(2)), DATA * 2)
        assert rebuilt > 0

    def test_rebuild_says_where_its_time_went(self):
        group, client = protected()
        client.put(DESC, DATA)
        group.health.mark_down(2)
        stages = [
            get_registry().histogram(f"staging.rebuild.{stage}.seconds")
            for stage in ("provision", "fetch", "decode", "store")
        ]
        total = get_registry().histogram("staging.rebuild.seconds")
        before = [h.count for h in stages], total.total, sum(h.total for h in stages)
        assert group.rebuild(2) > 0
        assert [h.count for h in stages] == [n + 1 for n in before[0]]
        # Serial rebuild: the stages are disjoint slices of the whole.
        assert sum(h.total for h in stages) - before[2] <= total.total - before[1]

    @pytest.mark.parametrize("verify_reads", [True, False])
    def test_rebuild_hashes_each_stored_shard_exactly_once(self, monkeypatch, verify_reads):
        """A copy re-placed on the replacement was read from its shard's
        owner: with ``verify_reads`` the fetch held it to its digest and the
        store must not hash it again; without, the store still must."""
        group, client = protected(
            protection=ProtectionConfig(
                mode="replication", replicas=1, verify_reads=verify_reads
            )
        )
        client.put(DESC, DATA)
        (rec,) = group.records.all_records()
        lost = rec.copies[0][0]  # holds shard 0's copy (and its own shard)
        group.health.mark_down(lost)
        hashed = []
        digest = resilience._digest
        monkeypatch.setattr(
            resilience, "_digest", lambda buf: hashed.append(buf) or digest(buf)
        )
        assert group.rebuild(lost) > 0
        shard0 = [buf for buf in hashed if digest(buf) == rec.shards[0].digest]
        assert len(shard0) == 1

