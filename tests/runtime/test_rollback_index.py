"""Regression: coordinated rollback restores every server's store *and* its
protection blobs, together.

SynchronizedStaging.restore once reached into ``srv.store`` and rolled back
only the object stores, leaving the server's other metadata with entries for
versions written after the snapshot and without entries for versions the
snapshot re-added. A server's metadata is now its store; what still sits
beside it is the blob side-store (parity shards), so these tests pin that
stores, blobs and the group's protection records land on the same versions
through the whole service path: snapshot -> more writes -> restore.
"""

import numpy as np
import pytest

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.errors import StagingError
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import ProtectionConfig, StagingGroup

from tests.conftest import make_payload


@pytest.fixture
def service(domain):
    group = StagingGroup.create(
        domain, num_servers=4, protection=ProtectionConfig(mode="rs", parity=1)
    )
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.05, max_wait=3.0
    )
    svc.register("sim")
    svc.register("ana")
    return svc


def fdesc(domain, version):
    return ObjectDescriptor("field", version, domain.bbox)


def held_versions(service) -> tuple[set, set, set]:
    """Versions of ``field`` held as fragments, as blobs, and as records."""
    group = service.group
    frags, blobs = set(), set()
    for srv in group.servers:
        frags.update(srv.store.versions("field"))
        blobs.update(v for name, v in srv.snapshot()["blobs"] if name == "field")
    records = {v for v in range(4) if group.records.for_key("field", v)}
    return frags, blobs, records


def assert_held(service, versions: set) -> None:
    assert held_versions(service) == (versions, versions, versions)


class TestCoordinatedRollbackIndex:
    def test_restore_drops_stale_index_entries(self, service, domain):
        d0 = fdesc(domain, 0)
        service.put("sim", d0, make_payload(d0), 0)
        snap = service.snapshot()

        # Writes after the snapshot vanish from stores and blobs on restore.
        for v in (1, 2):
            d = fdesc(domain, v)
            service.put("sim", d, make_payload(d), v)
        assert_held(service, {0, 1, 2})
        service.restore(snap)
        assert_held(service, {0})

    def test_restore_readds_evicted_index_entries(self, service, domain):
        d0 = fdesc(domain, 0)
        service.put("sim", d0, make_payload(d0), 0)
        snap = service.snapshot()

        # A server-side evict drops the version's fragments and blobs.
        for srv in service.group.servers:
            srv.evict("field", 0)
        assert held_versions(service)[:2] == (set(), set())
        service.restore(snap)

        # The restored version is readable again, blobs included.
        assert_held(service, {0})
        r = service.get_blocking("ana", d0, 0)
        assert np.array_equal(r.data, make_payload(d0))

    def test_restore_to_empty_start(self, service, domain):
        snap = service.snapshot()  # nothing written yet
        d0 = fdesc(domain, 0)
        service.put("sim", d0, make_payload(d0), 0)
        service.restore(snap)
        assert_held(service, set())
        for srv in service.group.servers:
            assert srv.nbytes == srv.protection_nbytes == 0

    def test_restore_rejects_mismatched_server_count(self, service):
        with pytest.raises(StagingError):
            service.restore({"servers": [], "frontier": {}})
