"""Stress tests for the concurrent staging data path.

The service's two-tier locking (metadata lock + per-server locks) moves
payload bytes outside the metadata lock. These tests drive it with real
thread concurrency over >= 4 servers and check the three promises:

* every read returns exactly the bytes that were put (the payload oracle);
* flow control and interruptible waits still work (no deadlock, prompt
  aborts) while payload phases are in flight;
* snapshot/restore quiesce the data plane, so concurrent rollback keeps
  every server's store and index in lockstep.

Payloads are sized above ``PARALLEL_THRESHOLD_BYTES`` so the pool fan-out
path actually runs (small payloads stay on the caller's thread by design).
"""

import threading
import time

import numpy as np
import pytest

from repro.core import WorkflowStaging
from repro.core.events import payload_digest
from repro.descriptors import ObjectDescriptor
from repro.geometry import Domain
from repro.runtime.staging_service import SynchronizedStaging, WaitInterrupted
from repro.staging import StagingGroup
from repro.staging.client import PARALLEL_THRESHOLD_BYTES

from tests.conftest import make_payload, requires_inproc
from tests.staging.test_store_index_invariant import check_lockstep

pytestmark = pytest.mark.integration

NUM_SERVERS = 4
STEPS = 6
# 64*64*16 float64 = 512 KiB per put: comfortably above the fan-out gate.
DOMAIN = Domain((64, 64, 16))
assert int(np.prod(DOMAIN.shape)) * 8 >= 2 * PARALLEL_THRESHOLD_BYTES


def make_service(enable_logging: bool = True) -> SynchronizedStaging:
    # parallel=True forces the pool fan-out even on a single-core host.
    group = StagingGroup.create(DOMAIN, num_servers=NUM_SERVERS, parallel=True)
    return SynchronizedStaging(
        WorkflowStaging(group, enable_logging=enable_logging),
        poll_timeout=0.02,
        max_wait=20.0,
        max_ahead=2,
    )


def desc_for(name: str, version: int) -> ObjectDescriptor:
    return ObjectDescriptor(name, version, DOMAIN.bbox)


def run_producer_consumer_workload() -> dict[tuple[str, int], str]:
    """Two producers + two consumers over shared staging; returns digests."""
    svc = make_service()
    names = ["u", "v"]
    readers = ["ana0", "ana1"]
    for i, name in enumerate(names):
        svc.register(f"sim{i}")
    for reader in readers:
        svc.register(reader)
        for name in names:
            svc.declare_coupling(name, reader)
    results: dict[tuple[str, str, int], str] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def producer(i: int, name: str) -> None:
        try:
            for v in range(STEPS):
                d = desc_for(name, v)
                svc.put(f"sim{i}", d, make_payload(d), step=v)
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    def consumer(reader: str) -> None:
        try:
            for v in range(STEPS):
                for name in names:
                    r = svc.get_blocking(reader, desc_for(name, v), step=v)
                    expect = make_payload(desc_for(name, v))
                    assert np.array_equal(r.data, expect), (reader, name, v)
                    with lock:
                        results[(reader, name, v)] = r.digest
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=producer, args=(i, name))
        for i, name in enumerate(names)
    ] + [threading.Thread(target=consumer, args=(reader,)) for reader in readers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "workload deadlocked"
    assert not errors, errors
    svc.shutdown()
    # Both consumers saw identical bytes for every (name, version).
    merged: dict[tuple[str, int], str] = {}
    for (_reader, name, v), digest in results.items():
        assert merged.setdefault((name, v), digest) == digest
    return merged


class TestByteIdentity:
    def test_reads_match_the_payload_oracle(self):
        digests = run_producer_consumer_workload()
        assert digests == {
            (name, v): payload_digest(make_payload(desc_for(name, v)))
            for name in ("u", "v")
            for v in range(STEPS)
        }


class TestLivenessUnderConcurrency:
    def test_flow_control_paces_producer_without_deadlock(self):
        svc = make_service()
        svc.register("sim")
        svc.register("ana")
        svc.declare_coupling("u", "ana")
        put_versions: list[int] = []

        def producer() -> None:
            for v in range(STEPS):
                d = desc_for("u", v)
                svc.put("sim", d, make_payload(d), step=v)
                put_versions.append(v)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.3)
        # The consumer has read nothing (frontier -1): the producer completes
        # versions 0..max_ahead-1 and then throttles — not running free.
        assert len(put_versions) == svc.max_ahead
        for v in range(STEPS):
            r = svc.get_blocking("ana", desc_for("u", v), step=v)
            assert r.served_version == v
        t.join(timeout=30)
        assert not t.is_alive()
        assert put_versions == list(range(STEPS))

    def test_interrupt_aborts_waiting_get_promptly(self):
        svc = make_service()
        svc.register("ana")
        flag = {"stop": False}
        caught: list[BaseException] = []

        def reader() -> None:
            try:
                svc.get_blocking(
                    "ana", desc_for("u", 0), step=0, interrupt=lambda: flag["stop"]
                )
            except WaitInterrupted as exc:
                caught.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.1)
        flag["stop"] = True
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(caught) == 1

    def test_shutdown_wakes_all_waiters(self):
        svc = make_service()
        caught: list[BaseException] = []

        def reader(i: int) -> None:
            svc.register(f"ana{i}")
            try:
                svc.get_blocking(f"ana{i}", desc_for("u", 0), step=0)
            except WaitInterrupted as exc:
                caught.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        svc.shutdown()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert len(caught) == 4


class TestRollbackUnderConcurrency:
    def test_concurrent_restore_keeps_servers_in_lockstep(self):
        # Non-logged mode, no declared consumers: producers run unthrottled
        # while the main thread repeatedly rolls the whole group back.
        svc = make_service(enable_logging=False)
        names = ["u", "v"]
        for i in range(len(names)):
            svc.register(f"sim{i}")
        errors: list[BaseException] = []

        def producer(i: int, name: str) -> None:
            try:
                for v in range(STEPS * 2):
                    d = desc_for(name, v)
                    svc.put(f"sim{i}", d, make_payload(d), step=v)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        base = svc.snapshot()
        threads = [
            threading.Thread(target=producer, args=(i, name))
            for i, name in enumerate(names)
        ]
        for t in threads:
            t.start()
        snaps = [base]
        for _ in range(6):
            time.sleep(0.01)
            snaps.append(svc.snapshot())
            svc.restore(snaps[len(snaps) // 2])
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "producers deadlocked against restore"
        assert not errors, errors
        # Every server's metadata stayed in lockstep with its payload store.
        for srv in svc.group.servers:
            check_lockstep(srv)
        # And a final full rollback still lands exactly on the base image.
        svc.restore(base)
        for srv in svc.group.servers:
            check_lockstep(srv)
            assert srv.store.object_count == 0

    @requires_inproc
    def test_snapshot_waits_out_inflight_puts(self):
        # The final get of v3 assumes the producer's last put lands after
        # the last restore — true in-process where puts and restores are
        # sub-millisecond, but over a wire the snapshot→restore window is
        # wide enough that the restore can legitimately roll back v3.
        svc = make_service(enable_logging=False)
        svc.register("sim")
        d = desc_for("u", 0)
        payload = make_payload(d)
        done = threading.Event()

        def producer() -> None:
            for v in range(4):
                svc.put("sim", desc_for("u", v), make_payload(desc_for("u", v)), step=v)
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        # Snapshots taken while puts are in flight must each be internally
        # consistent: restoring any of them yields lockstep servers and a
        # fully assembled (never torn) payload for whatever they captured.
        for _ in range(5):
            snap = svc.snapshot()
            svc.restore(snap)
        t.join(timeout=30)
        assert not t.is_alive()
        assert done.is_set()
        r = svc.get_blocking("sim", desc_for("u", 3), step=3)
        assert np.array_equal(r.data, make_payload(desc_for("u", 3)))
        assert np.array_equal(payload, make_payload(d))  # inputs untouched
