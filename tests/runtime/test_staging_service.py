"""Tests for the synchronized staging service (blocking gets, flow control)."""

import threading
import time

import numpy as np
import pytest

from repro.core import WorkflowStaging
from repro.descriptors import ObjectDescriptor
from repro.obs import get_registry
from repro.runtime.staging_service import SynchronizedStaging, WaitInterrupted

from tests.conftest import make_payload


@pytest.fixture
def service(group):
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.05, max_wait=3.0
    )
    svc.register("sim")
    svc.register("ana")
    return svc


def fdesc(domain, version):
    return ObjectDescriptor("field", version, domain.bbox)


class TestBlockingGet:
    def test_get_available_data_immediate(self, service, domain):
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        r = service.get_blocking("ana", d, 0)
        assert np.array_equal(r.data, make_payload(d))

    def test_get_waits_for_producer(self, service, domain):
        d = fdesc(domain, 0)
        results = []

        def reader():
            results.append(service.get_blocking("ana", d, 0))

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.1)
        assert not results  # still waiting
        service.put("sim", d, make_payload(d), 0)
        t.join(timeout=5)
        assert results and results[0].served_version == 0

    def test_interrupt_predicate_aborts(self, service, domain):
        flag = {"stop": False}
        d = fdesc(domain, 0)
        errs = []

        def reader():
            try:
                service.get_blocking("ana", d, 0, interrupt=lambda: flag["stop"])
            except WaitInterrupted:
                errs.append(True)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.1)
        flag["stop"] = True
        t.join(timeout=5)
        assert errs == [True]

    def test_shutdown_aborts(self, service, domain):
        d = fdesc(domain, 0)
        errs = []

        def reader():
            try:
                service.get_blocking("ana", d, 0)
            except WaitInterrupted:
                errs.append(True)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        service.shutdown()
        t.join(timeout=5)
        assert errs == [True]

    def test_lock_wait_is_measured(self, service, domain):
        """A get that queues behind the metadata lock records that wait."""
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        lock_wait = get_registry().histogram("staging.service.lock_wait.seconds")
        held = threading.Event()

        def holder():
            with service._meta:
                held.set()
                time.sleep(0.05)

        t = threading.Thread(target=holder)
        t.start()
        held.wait()
        count, total = lock_wait.count, lock_wait.total
        service.get_blocking("ana", d, 0)
        t.join()
        assert lock_wait.count == count + 1
        assert lock_wait.total - total >= 0.04

    def test_deadline_aborts(self, group, domain):
        svc = SynchronizedStaging(
            WorkflowStaging(group), poll_timeout=0.02, max_wait=0.1
        )
        svc.register("ana")
        with pytest.raises(WaitInterrupted, match="waited over"):
            svc.get_blocking("ana", fdesc(domain, 0), 0)


class TestFlowControl:
    def test_producer_blocked_by_lagging_consumer(self, service, domain):
        service.declare_coupling("field", "ana")
        # Fill the window (max_ahead=2): versions 0 and 1 with frontier -1.
        for v in range(2):
            d = fdesc(domain, v)
            service.put("sim", d, make_payload(d), v)
        blocked = []

        def producer():
            d = fdesc(domain, 2)
            try:
                service.put("sim", d, make_payload(d), 2)
                blocked.append("completed")
            except WaitInterrupted:
                blocked.append("interrupted")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.15)
        assert blocked == []  # producer waiting for the consumer
        service.get_blocking("ana", fdesc(domain, 0), 0)  # consumer advances
        t.join(timeout=5)
        assert blocked == ["completed"]

    def test_no_consumers_no_blocking(self, service, domain):
        for v in range(6):
            d = fdesc(domain, v)
            service.put("sim", d, make_payload(d), v)  # never blocks

    def test_frontier_tracks_reads(self, service, domain):
        service.declare_coupling("field", "ana")
        d = fdesc(domain, 0)
        service.put("sim", d, make_payload(d), 0)
        assert service._min_frontier("field") == -1
        service.get_blocking("ana", d, 0)
        assert service._min_frontier("field") == 0


class TestSnapshot:
    def test_snapshot_restore(self, service, domain):
        service.declare_coupling("field", "ana")
        d0 = fdesc(domain, 0)
        service.put("sim", d0, make_payload(d0), 0)
        service.get_blocking("ana", d0, 0)
        snap = service.snapshot()
        d1 = fdesc(domain, 1)
        service.put("sim", d1, make_payload(d1), 1)
        service.get_blocking("ana", d1, 1)
        service.restore(snap)
        assert service._min_frontier("field") == 0
        assert service.memory_bytes() == d0.nbytes

    def test_restore_wrong_shape_rejected(self, service):
        from repro.errors import StagingError

        with pytest.raises(StagingError):
            service.restore({"servers": [], "frontier": {}})
