"""Recovery paths against their oracles: the bytes that were put.

The recovery engine parallelises two paths — concurrent per-server restore
(gated by the group's ``parallel`` switch) and pipelined, batch-decoded
rebuild. Replay has one path (a strict recorded-order cursor). These tests
check that:

* a replay script rejects a recovering component that re-issues its gets in
  a different order than it recorded them, at the service's default
  settings;
* a workflow that fails and recovers stays read-stable against the
  non-logged ``ds`` reference run;
* restoring a CoW snapshot chain with the per-server fan-out lands on the
  same bytes as the inline restore, across random epoch boundaries;
* a rebuild repopulates a replacement server with exactly the source bytes
  at every batch size, under random fault plans;
* the two satellite bug fixes hold: reconstructed shards are digest-
  verified before anything lands on a replacement (a corrupt survivor
  cannot be laundered through a rebuild), and degraded-read shard fetches
  ride the retry/backoff loop (a transiently corrupted read burns a retry
  instead of surfacing as an erasure or an error).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.errors import ReplayError
from repro.faults import FaultPlan, inject_faults
from repro.geometry import Domain
from repro.obs import registry as _obs
from repro.runtime import FailurePlan, ThreadedWorkflow
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import (
    ProtectionConfig,
    RetryPolicy,
    StagingClient,
    StagingGroup,
)
from repro.staging.resilience import rebuild_server
from repro.workloads import coupled_specs

from tests.conftest import make_payload
from tests.staging.test_store_index_invariant import check_lockstep

pytestmark = pytest.mark.integration

DOMAIN = Domain((16, 16, 8))
NAMES = ("u", "v", "w")
FAST_RETRY = RetryPolicy(base_backoff=0.001, max_backoff=0.004)


def desc_for(name: str, version: int) -> ObjectDescriptor:
    return ObjectDescriptor(name, version, DOMAIN.bbox)


# --------------------------------------------------------------------- replay


class TestStrictReplayOrder:
    def test_swapped_gets_of_two_variables_raise_at_default_settings(self):
        group = StagingGroup.create(DOMAIN, num_servers=2)
        svc = SynchronizedStaging(WorkflowStaging(group), max_wait=5.0)
        svc.register("sim")
        svc.register("ana")
        for name in ("u", "v"):
            svc.declare_coupling(name, "ana")
            svc.put("sim", desc_for(name, 0), make_payload(desc_for(name, 0)), step=0)
        svc.get_blocking("ana", desc_for("u", 0), step=0)
        svc.get_blocking("ana", desc_for("v", 0), step=0)
        try:
            script = svc.workflow_restart("ana", 0)
            assert [ev.desc.name for ev in script.events] == ["u", "v"]
            # The recorded order is u then v; re-issuing v first diverges
            # from the initial execution even though v's own stream is intact.
            with pytest.raises(ReplayError):
                svc.get_blocking("ana", desc_for("v", 0), step=0)
            # The divergence consumed nothing: the recorded order still replays.
            assert svc.get_blocking("ana", desc_for("u", 0), step=0).replayed
            assert svc.get_blocking("ana", desc_for("v", 0), step=0).replayed
            assert not svc.in_replay("ana")
        finally:
            svc.close()


class TestWorkflowReplayDifferential:
    """End-to-end: recovery keeps a run read-stable against the reference."""

    def test_failure_recovery_consistent_with_reference(self):
        specs = coupled_specs(num_steps=12, domain=Domain((8, 8, 4)))
        reference = ThreadedWorkflow(specs, "ds").run()
        run = ThreadedWorkflow(
            specs,
            "uncoordinated",
            failures=[FailurePlan("analytic", 5), FailurePlan("simulation", 8)],
        ).run()
        run.verify_against(reference)  # raises on divergence
        assert run.component_stats["analytic"].rollbacks == 1


# -------------------------------------------------------------------- restore


def run_restore_workload(parallel: bool, epochs: list[int]) -> dict:
    """Put versions in bursts split by snapshot epochs; roll back twice.

    ``epochs`` gives the number of puts per name in each inter-snapshot
    burst, so random draws move the CoW chain's delta boundaries around.
    Returns the digests read back after restoring to the last and then the
    first snapshot.
    """
    group = StagingGroup.create(DOMAIN, num_servers=4, parallel=parallel)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=False),
        poll_timeout=0.02,
        max_wait=20.0,
        max_ahead=100,  # the pinned consumer below must not throttle puts
    )
    svc.register("sim")
    svc.register("ana")
    for name in NAMES:
        # A declared consumer that never reads pins every version in
        # staging (retention is frontier-driven), so restores can be
        # byte-checked against the full put history.
        svc.declare_coupling(name, "ana")
    version = {n: 0 for n in NAMES}
    snaps = []
    for burst in epochs:
        snaps.append(svc.snapshot())
        for _ in range(burst):
            for name in NAMES:
                d = desc_for(name, version[name])
                svc.put("sim", d, make_payload(d), step=version[name])
                version[name] += 1
    out: dict[tuple[str, int, str], str] = {}
    for which, snap_i in (("last", len(snaps) - 1), ("first", 0)):
        svc.restore(snaps[snap_i])
        for srv in svc.group.servers:
            check_lockstep(srv)
        live = sum(epochs[:snap_i])
        reader = StagingClient(svc.group)  # exact-version reads
        for name in NAMES:
            for v in range(live):
                d = desc_for(name, v)
                got = reader.get(d)
                expect = make_payload(d)
                assert np.array_equal(got, expect), (name, v, which)
                out[(name, v, which)] = True
        out[("count", snap_i, which)] = str(
            sum(s.store.object_count for s in svc.group.servers)
        )
    svc.shutdown()
    return out


class TestRestoreDifferential:
    @settings(max_examples=6, deadline=None)
    @given(
        epochs=st.lists(
            st.integers(min_value=0, max_value=3), min_size=2, max_size=4
        )
    )
    def test_parallel_restore_matches_serial_across_epochs(self, epochs):
        assert run_restore_workload(False, epochs) == run_restore_workload(
            True, epochs
        )

    def test_parallel_restore_fans_out_per_server(self):
        before = _obs.counter("recovery.restore.parallel_servers").value
        run_restore_workload(True, [2, 2])
        assert _obs.counter("recovery.restore.parallel_servers").value > before


# -------------------------------------------------------------------- rebuild


def seeded_protected_group(
    versions: int, mode: str = "rs"
) -> tuple[StagingGroup, StagingClient]:
    cfg = (
        ProtectionConfig(mode="rs", parity=2)
        if mode == "rs"
        else ProtectionConfig(mode="replication", replicas=1)
    )
    group = StagingGroup.create(
        DOMAIN, num_servers=4, protection=cfg, retry=FAST_RETRY
    )
    client = StagingClient(group)
    for name in ("a", "b"):
        for v in range(versions):
            client.put(desc_for(name, v), make_payload(desc_for(name, v)))
    return group, client


def rebuild_and_read(versions: int, lost: int, mode: str, batch_size: int) -> None:
    group, client = seeded_protected_group(versions, mode=mode)
    # What the lost server held, by the records that describe it.
    owned = [
        rec.shards[i].nbytes
        for rec in group.records.all_records()
        for i, shard in enumerate(rec.shards)
        if shard.server == lost
    ]
    rebuilt = rebuild_server(group, lost, batch_size=batch_size)
    assert group.health.state(lost) == "up"
    srv = group.servers[lost]
    assert srv.nbytes == sum(owned)
    assert rebuilt == srv.nbytes + srv.protection_nbytes
    # Read everything back through the replacement only: drop protection so
    # the raw geometric path serves, and byte-compare against the source.
    group.drop_protection()
    for name in ("a", "b"):
        for v in range(versions):
            got = client.get(desc_for(name, v))
            expect = make_payload(desc_for(name, v))
            assert np.array_equal(got, expect), (name, v, batch_size)


class TestRebuildDifferential:
    @settings(max_examples=6, deadline=None)
    @given(
        lost=st.integers(min_value=0, max_value=3),
        versions=st.integers(min_value=1, max_value=5),
        mode=st.sampled_from(["rs", "replication"]),
    )
    def test_rebuild_restores_source_bytes(
        self, lost, versions, mode
    ):
        for batch_size in (1, 2, 2 * versions):  # 2 * versions: all records
            rebuild_and_read(versions, lost, mode, batch_size)

    def test_pipelined_rebuild_runs_in_batches(self):
        group, _client = seeded_protected_group(4)  # 8 records -> 4 batches
        before = _obs.counter("recovery.rebuild.batches").value
        rebuild_server(group, 1, batch_size=2)
        assert _obs.counter("recovery.rebuild.batches").value - before == 4

    def test_degraded_survivors_still_rebuild_identically(self):
        # A second server crashing mid-rebuild (first op against it) forces
        # reconstruction through parity. Rebuild the crashed survivor
        # afterwards too, then byte-check the whole group raw.
        group, client = seeded_protected_group(3)
        inject_faults(group, [FaultPlan(server=2, op=0, kind="crash")])
        rebuild_server(group, 0, batch_size=2)
        rebuild_server(group, 2, batch_size=2)
        group.drop_protection()
        for name in ("a", "b"):
            for v in range(3):
                d = desc_for(name, v)
                assert np.array_equal(client.get(d), make_payload(d)), (name, v)


class TestRebuildVerification:
    """Satellite fix: rebuilt bytes are digest-verified before storing."""

    def test_pipelined_rebuild_refuses_corrupt_reconstruction(self):
        # verify_reads=False disables fetch-time digest checks, so a corrupt
        # survivor read flows into reconstruction. The rebuild-side
        # verification is unconditional and must refuse to store the result.
        group = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            protection=ProtectionConfig(mode="rs", parity=2, verify_reads=False),
            retry=FAST_RETRY,
        )
        client = StagingClient(group)
        for name in ("a", "b"):
            client.put(desc_for(name, 0), make_payload(desc_for(name, 0)))
        (rec,) = group.records.for_key("a", 0)
        lost = rec.shards[0].server
        mate = rec.shards[1].server  # codeword mate: its bytes feed the decode
        inject_faults(
            group, [FaultPlan(server=mate, op=0, kind="corrupt", calls=20)]
        )
        failures = _obs.counter("staging.rebuild.verify_failures").value
        skipped = _obs.counter("staging.rebuild.skipped_records").value
        rebuild_server(group, lost, batch_size=2)
        assert _obs.counter("staging.rebuild.verify_failures").value > failures
        assert _obs.counter("staging.rebuild.skipped_records").value > skipped
        # Nothing unverified landed on the replacement (record-level
        # all-or-nothing: its parity/copy blobs are withheld too), and the
        # server is only healthy *empty*, never holding corrupt bytes.
        srv = group.servers[lost]
        assert srv.store.object_count == 0
        assert srv.protection_nbytes == 0
        assert group.health.state(lost) == "up"


class TestDegradedReadRetry:
    """Satellite fix: shard fetch digest checks ride the retry loop."""

    def test_transient_corruption_is_retried_not_fatal(self):
        cfg = ProtectionConfig(mode="rs", parity=1)
        group = StagingGroup.create(
            DOMAIN, num_servers=4, protection=cfg, retry=FAST_RETRY
        )
        client = StagingClient(group)
        d = desc_for("field", 1)
        data = make_payload(d)
        client.put(d, data)
        (rec,) = group.records.for_key("field", 1)
        survivor = rec.shards[1].server
        inject_faults(
            group,
            [
                FaultPlan(server=rec.shards[0].server, op=0, kind="crash"),
                FaultPlan(server=survivor, op=0, kind="corrupt", calls=1),
            ],
        )
        failures = _obs.counter("staging.client.verify_failures").value
        got = client.get(d)  # degraded read; survivor corrupts exactly once
        np.testing.assert_array_equal(got, data)
        assert _obs.counter("staging.client.verify_failures").value > failures
        # The corruption was transient: one retry cleared it, so the
        # survivor must not have been demoted to down.
        assert not group.health.is_down(survivor)

    def test_transient_copy_corruption_is_retried(self):
        cfg = ProtectionConfig(mode="replication", replicas=1)
        group = StagingGroup.create(
            DOMAIN, num_servers=4, protection=cfg, retry=FAST_RETRY
        )
        client = StagingClient(group)
        d = desc_for("field", 1)
        data = make_payload(d)
        client.put(d, data)
        (rec,) = group.records.for_key("field", 1)
        holder = rec.copies[0][0]
        inject_faults(
            group,
            [
                FaultPlan(server=rec.shards[0].server, op=0, kind="crash"),
                FaultPlan(server=holder, op=0, kind="corrupt", calls=1),
            ],
        )
        got = client.get(d)
        np.testing.assert_array_equal(got, data)
        assert not group.health.is_down(holder)


class TestRecoveryReport:
    """The obs-report section for recovery metrics renders from real runs."""

    def test_recovery_report_renders_and_empty_without_activity(self):
        from repro.analysis.obs_report import recovery_report

        assert recovery_report(snapshot={}) == ""
        group = StagingGroup.create(
            DOMAIN,
            num_servers=4,
            protection=ProtectionConfig(mode="rs", parity=2),
            retry=FAST_RETRY,
        )
        client = StagingClient(group)
        for v in range(4):
            d = desc_for("field", v)
            client.put(d, make_payload(d))
        (rec,) = group.records.for_key("field", 0)
        lost = rec.shards[0].server
        inject_faults(group, [FaultPlan(server=lost, op=0, kind="crash")])
        client.get(desc_for("field", 0))  # degraded read marks the server down
        rebuild_server(group, lost, batch_size=2)
        out = recovery_report()
        assert "recovery" in out
        assert "degraded reads" in out
        assert "rebuilds" in out
        assert "decode pipeline" in out
