"""Service-level degraded operation: the synchronized staging service keeps
serving reads byte-identically across staging-server loss, snapshots carry
the resilience state, and rebuild reintegrates a replacement server."""

import numpy as np
import pytest

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.faults import FaultPlan, inject_faults
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import ProtectionConfig, RetryPolicy, StagingGroup

from tests.conftest import make_payload


@pytest.fixture
def pgroup(domain) -> StagingGroup:
    return StagingGroup.create(
        domain,
        num_servers=4,
        protection=ProtectionConfig(mode="rs", parity=2),
        retry=RetryPolicy(base_backoff=0.001, max_backoff=0.004),
    )


@pytest.fixture
def service(pgroup):
    svc = SynchronizedStaging(
        WorkflowStaging(pgroup, enable_logging=True), poll_timeout=0.05, max_wait=3.0
    )
    svc.register("sim")
    svc.register("ana")
    return svc


def fdesc(domain, version):
    return ObjectDescriptor("field", version, domain.bbox)


class TestDegradedService:
    def test_reads_survive_server_crash(self, service, pgroup, domain):
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        inject_faults(pgroup, [FaultPlan(server=1, op=0, kind="crash")])
        result = service.get_blocking("ana", d, 0)
        np.testing.assert_array_equal(result.data, make_payload(d))

    def test_puts_survive_server_crash(self, service, pgroup, domain):
        inject_faults(pgroup, [FaultPlan(server=2, op=0, kind="crash")])
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        result = service.get_blocking("ana", d, 0)
        np.testing.assert_array_equal(result.data, make_payload(d))

    def test_snapshot_restores_protection_and_health(self, service, pgroup, domain):
        d0 = fdesc(domain, 0)
        service.put("sim", d0, make_payload(d0), 0)
        snap = service.snapshot()
        d1 = fdesc(domain, 1)
        service.put("sim", d1, make_payload(d1), 1)
        pgroup.health.mark_down(3)

        service.restore(snap)
        # Records rewound with the data: v1's record is gone, v0's remains.
        assert pgroup.records.for_key("field", 0)
        assert not pgroup.records.for_key("field", 1)
        # Health rewound too: the post-snapshot down-marking is forgotten.
        assert pgroup.health.state(3) == "up"

    def test_rollback_before_first_checkpoint_rewinds_protection_records(
        self, service, pgroup, domain
    ):
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        assert len(pgroup.records) == 1
        pgroup.health.mark_down(3)

        service.restore(None)  # a coordinated rollback with nothing captured
        # Records must not outlive their data: a stale record makes covers()
        # true for a version whose get then raises ObjectNotFound.
        assert len(pgroup.records) == 0
        assert pgroup.total_bytes == 0
        assert sum(s.protection_nbytes for s in pgroup.servers) == 0
        assert not service.staging.client.covers(d)
        # Emptiness says nothing about liveness: health is not rewound.
        assert pgroup.health.state(3) == "down"

    def test_rebuild_server_restores_direct_service(self, service, pgroup, domain):
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        inject_faults(pgroup, [FaultPlan(server=1, op=0, kind="crash")])
        service.get_blocking("ana", d, 0)  # degraded read downs server 1

        rebuilt = service.rebuild_server(1)
        assert rebuilt > 0
        assert pgroup.health.state(1) == "up"
        pgroup.drop_protection()
        result = service.get_blocking("ana", d, 1)
        np.testing.assert_array_equal(result.data, make_payload(d))
