"""Concurrent background GC: watermarks, pausing, and bounded data-plane stalls."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import WorkflowStaging
from repro.core.garbage import BackgroundCollector, GCReport
from repro.descriptors import ObjectDescriptor
from repro.geometry import Domain
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import StagingGroup

from tests.conftest import make_payload

DOMAIN = Domain((8, 8, 4))


def make_service(**gc_kwargs) -> SynchronizedStaging:
    group = StagingGroup.create(DOMAIN, num_servers=4)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True, auto_gc=False),
        poll_timeout=0.05,
        max_wait=5.0,
        max_ahead=10**9,  # these tests pace themselves
    )
    svc.register("sim")
    svc.register("ana")
    svc.declare_coupling("field", "ana")
    return svc


def fdesc(version: int) -> ObjectDescriptor:
    return ObjectDescriptor("field", version, DOMAIN.bbox)


def run_coupled_steps(svc: SynchronizedStaging, steps: int, check_every: int = 5):
    """Produce/consume/checkpoint ``steps`` versions through the service."""
    for v in range(steps):
        d = fdesc(v)
        svc.put("sim", d, make_payload(d), v)
        svc.get_blocking("ana", d, v)
        if (v + 1) % check_every == 0:
            svc.workflow_check("ana", v)
            svc.workflow_check("sim", v)


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestBackgroundCollectorUnit:
    """BackgroundCollector against fake batch/pressure functions."""

    def test_burst_drains_to_low_watermark(self):
        pressure = [1000]

        def batch():
            pressure[0] = max(0, pressure[0] - 100)
            return GCReport(1, 100, 0)

        bg = BackgroundCollector(
            run_batch=batch,
            pressure_bytes=lambda: pressure[0],
            high_watermark=500,
            low_watermark=200,
            interval=0.01,
        )
        bg.start()
        try:
            assert wait_until(lambda: pressure[0] <= 200)
        finally:
            bg.stop()
        assert len(bg.reports) >= 8  # 1000 -> 200 at 100/batch
        assert not bg.running

    def test_burst_stops_without_progress(self):
        calls = []

        def batch():
            calls.append(1)
            return GCReport(0, 0, 0)  # floors pin everything

        bg = BackgroundCollector(
            run_batch=batch,
            pressure_bytes=lambda: 10_000,  # permanently over the watermark
            high_watermark=100,
            interval=0.01,
        )
        bg.start()
        try:
            assert wait_until(lambda: len(calls) >= 3)
            time.sleep(0.05)
            # One batch per tick (no runaway burst), not thousands.
            assert len(calls) < 50
        finally:
            bg.stop()

    def test_paused_predicate_suspends_batches(self):
        calls = []
        paused = threading.Event()
        paused.set()
        bg = BackgroundCollector(
            run_batch=lambda: calls.append(1) or GCReport(0, 0, 0),
            pressure_bytes=lambda: 0,
            high_watermark=100,
            interval=0.01,
            paused=paused.is_set,
        )
        bg.start()
        try:
            time.sleep(0.08)
            assert not calls
            paused.clear()
            assert wait_until(lambda: len(calls) >= 1)
        finally:
            bg.stop()

    def test_wakeup_triggers_immediate_batch(self):
        calls = []
        bg = BackgroundCollector(
            run_batch=lambda: calls.append(1) or GCReport(0, 0, 0),
            pressure_bytes=lambda: 0,
            high_watermark=100,
            interval=60.0,  # effectively never ticks on its own
        )
        bg.start()
        try:
            assert not calls
            bg.wakeup()
            assert wait_until(lambda: len(calls) >= 1)
        finally:
            bg.stop()

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            BackgroundCollector(
                run_batch=lambda: GCReport(0, 0, 0),
                pressure_bytes=lambda: 0,
                high_watermark=10,
                low_watermark=20,
            )


class TestServiceIntegration:
    def test_background_gc_collects_dead_versions(self):
        svc = make_service()
        bg = svc.start_background_gc(high_watermark=1, interval=0.01)
        try:
            run_coupled_steps(svc, steps=20, check_every=5)
            # All but a short tail (one checkpoint window) become dead; the
            # collector reclaims them without any synchronous gc call.
            assert wait_until(
                lambda: svc.staging.log.version_count("field") <= 6
            ), f"retained: {svc.staging.log.logged_versions('field')}"
            assert any(r.versions_collected for r in svc.staging.gc_reports)
            assert bg.running
        finally:
            svc.shutdown()
        assert not bg.running

    def test_start_is_idempotent_and_stop_restores_auto_gc(self):
        svc = make_service()
        svc.staging.auto_gc = True
        bg = svc.start_background_gc(high_watermark=1 << 20)
        assert svc.start_background_gc(high_watermark=1) is bg
        assert svc.staging.auto_gc is False  # checks only queue candidates
        assert svc.staging.log.recovery_waker == bg.wakeup
        assert bg.wakeup in svc.staging.checkpointer.epoch_listeners
        svc.stop_background_gc()
        assert svc.staging.auto_gc is True
        assert svc.staging.log.recovery_waker is None
        assert bg.wakeup not in svc.staging.checkpointer.epoch_listeners
        svc.shutdown()

    def test_stop_runs_final_pass(self):
        svc = make_service()
        # Collector that never gets a chance to run (huge interval).
        svc.start_background_gc(high_watermark=1 << 30, interval=60.0)
        run_coupled_steps(svc, steps=12, check_every=3)
        svc.stop_background_gc()  # final unbounded pass drains candidates
        assert svc.staging.log.version_count("field") <= 4
        svc.shutdown()

    def test_gc_pauses_during_replay(self):
        svc = make_service()
        run_coupled_steps(svc, steps=6, check_every=3)
        assert not svc._gc_paused()
        svc.workflow_restart("ana", 6)
        if svc.staging.any_replaying():
            assert svc._gc_paused()
        svc.shutdown()

    def test_gc_excluded_around_snapshot(self):
        svc = make_service()
        assert not svc._gc_paused()
        svc._exclude_gc()
        assert svc._gc_paused()
        svc._readmit_gc()
        assert not svc._gc_paused()
        # A real snapshot excludes and readmits symmetrically.
        run_coupled_steps(svc, steps=3, check_every=10)
        svc.snapshot()
        assert not svc._gc_paused()
        svc.shutdown()


class TestBoundedStalls:
    def test_data_plane_stall_stays_bounded_under_background_gc(self):
        """With a one-eviction batch budget, a put/get never waits behind a
        sweep — only behind at most one candidate's eviction."""
        svc = make_service()
        svc.start_background_gc(
            high_watermark=1, low_watermark=0, interval=0.001, batch_versions=1
        )
        try:
            max_latency = 0.0
            collected = lambda: any(r.versions_collected for r in svc.staging.gc_reports)
            # At least 150 steps, and on until the collector has evicted
            # something while the loop runs: when it first gets the lock
            # depends on thread scheduling.
            for v in range(1000):
                if v >= 150 and collected():
                    break
                d = fdesc(v)
                t0 = time.perf_counter()
                svc.put("sim", d, make_payload(d), v)
                svc.get_blocking("ana", d, v)
                max_latency = max(max_latency, time.perf_counter() - t0)
                if (v + 1) % 5 == 0:
                    svc.workflow_check("ana", v)
            # The acceptance bar is <1ms of GC-induced stall; the assertion
            # is looser to absorb CI scheduling noise, while the benchmark
            # (bench_gc) measures the precise figure.
            assert max_latency < 0.25, f"max put+get latency {max_latency:.3f}s"
            # GC actually ran concurrently (the test is vacuous otherwise).
            assert collected()
        finally:
            svc.shutdown()
        assert svc.staging.log.version_count("field") <= 6
