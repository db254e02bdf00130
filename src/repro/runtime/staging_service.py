"""Thread-safe staging service for the threaded runtime.

Wraps :class:`~repro.core.interface.WorkflowStaging` with a *two-tier* lock
hierarchy and adds the blocking read DataSpaces clients rely on: a
consumer's get waits until the producer's version arrives. Waits are
interruptible so global rollbacks (coordinated scheme) and shutdowns never
deadlock.

Lock hierarchy (outer to inner; see DESIGN.md, performance architecture):

1. **metadata lock** (``_meta``) — guards flow-control frontiers, replay
   scripts, event queues, the data log, and the GC. Held only for the
   metadata phases of an operation.
2. **per-server locks** (``StagingServer.lock``) — guard one server's store
   and index. The payload phase of a put/get holds only these, so requests
   whose shards land on different servers move bytes concurrently.

A request is serviced as *plan (meta) → move payload (server locks) → commit
(meta)*. Snapshot/restore quiesce the data plane first (an in-flight-ops
gate) so a coordinated checkpoint never captures a torn, half-written group.
Every put and get takes that one path. Recovery has one path too:
``workflow_restart`` builds a replay script that is walked in recorded order.

Also provides whole-staging snapshot/restore — under *global coordinated*
checkpointing the staging servers are part of the global snapshot and roll
back together with the applications.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.core.event_queue import ReplayScript
from repro.core.events import WChkId, payload_digest
from repro.core.garbage import BackgroundCollector, GCReport
from repro.core.interface import GetPlan, GetResult, PutResult, WorkflowStaging
from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import ObjectNotFound, StagingError
from repro.obs import registry as _obs
from repro.staging.client import StagingGroup

__all__ = ["SynchronizedStaging", "WaitInterrupted"]

_LOCK_WAIT = _obs.histogram("staging.service.lock_wait.seconds")
_FLOW_STALLS = _obs.counter("staging.service.flow_stall.count")
_FLOW_STALL_SECONDS = _obs.histogram("staging.service.flow_stall.seconds")
_BLOCKING_WAITS = _obs.counter("staging.service.blocking_get.waits")
_BLOCKING_WAIT_SECONDS = _obs.histogram("staging.service.blocking_get.wait.seconds")
_WAITS_INTERRUPTED = _obs.counter("staging.service.waits_interrupted")
_DATA_PHASES = _obs.counter("staging.service.data_phase.count")
_DATA_PHASE_RETRIES = _obs.counter("staging.service.data_phase.retries")
_QUIESCE_WAIT_SECONDS = _obs.histogram("staging.service.quiesce_wait.seconds")
_CAPTURE_SECONDS = _obs.histogram("checkpoint.capture.seconds")
_GATE_SECONDS = _obs.histogram("checkpoint.gate.seconds")
_RESTORE_SECONDS = _obs.histogram("checkpoint.restore.seconds")
_RECOVERY_RESTART_SECONDS = _obs.histogram("recovery.workflow_restart.seconds")


class WaitInterrupted(StagingError):
    """A blocking get was interrupted (rollback or shutdown)."""


class SynchronizedStaging:
    """Concurrent access to a WorkflowStaging plus blocking version waits."""

    def __init__(
        self,
        staging: WorkflowStaging,
        poll_timeout: float = 1.0,
        max_wait: float = 60.0,
        max_ahead: int = 2,
    ) -> None:
        self.staging = staging
        self.poll_timeout = poll_timeout
        self.max_wait = max_wait
        # Coupling flow control: a producer may run at most this many
        # versions ahead of the slowest registered consumer. Models the
        # paper's "write immediately followed by read" coordination
        # (DataSpaces coupling locks) and bounds staging memory.
        self.max_ahead = max_ahead
        self._meta = threading.RLock()
        self._data_arrived = threading.Condition(self._meta)
        # Data-plane quiescence gate: payload phases run outside _meta, so
        # snapshot/restore block new data phases and wait out in-flight ones.
        self._quiesced = threading.Condition(self._meta)
        self._inflight = 0
        self._excluders = 0
        self._shutdown = False
        # name -> set of consumer component names (declared couplings).
        self._flow_consumers: dict[str, set[str]] = {}
        # (name, component) -> highest version read.
        self._frontier: dict[tuple[str, str], int] = {}
        # Frontier entries changed since the last checkpoint epoch — the
        # frontier's mutation journal (it only ever advances per key, so a
        # dict of latest values is an exact journal).
        self._frontier_dirty: dict[tuple[str, str], int] = {}
        # Serializes whole checkpoint/restore operations against each other
        # so chain updates that happen *outside* the metadata lock (delta
        # materialization, compaction) stay ordered. Acquired before _meta;
        # nothing holding _meta ever takes it, so ordering is acyclic.
        self._ckpt_lock = threading.Lock()
        # Finished consumers no longer gate producers.
        self._retired: set[str] = set()
        staging.frontier_source = self._unconsumed_floor
        # ---- background garbage collection --------------------------------
        self._bg_gc: BackgroundCollector | None = None
        self._bg_gc_prev_auto: bool | None = None
        # Operations that must exclude GC (snapshot/restore/rebuild) bump
        # this; the collector's pause predicate reads it. Guarded by its own
        # lock so the predicate never has to touch ``_meta``.
        self._gc_pause_lock = threading.Lock()
        self._gc_excluded = 0
        # An epoch boundary makes pre-epoch versions collectable: feed the
        # GC's candidate queue whenever the checkpointer seals one. (Always
        # registered — the synchronous incremental passes benefit too.)
        staging.checkpointer.epoch_listeners.append(staging.gc.note_epoch)

    # ------------------------------------------------------------ lifecycle

    def register(self, component: str) -> None:
        with self._meta:
            self.staging.register(component)

    def shutdown(self) -> None:
        """Wake every waiter with WaitInterrupted; used at teardown."""
        # Join the collector before taking _meta: its batches acquire _meta,
        # so joining while holding the lock could deadlock.
        self.stop_background_gc()
        with self._meta:
            self._shutdown = True
            self._data_arrived.notify_all()

    def close(self) -> None:
        """Shut the service down *and* release the staging transport.

        ``shutdown()`` alone leaves the group usable (tests re-read staged
        state after stopping the service); ``close()`` is the full teardown
        for owners of the whole stack — it additionally closes the group's
        transport, which on TCP terminates the server processes. Idempotent.
        """
        self.shutdown()
        self.staging.group.close()

    # ---------------------------------------------------- garbage collection

    def gc_step(
        self, max_versions: int | None = 1, max_seconds: float | None = None
    ) -> GCReport:
        """One bounded incremental GC batch under the metadata lock.

        The default budget of a *single* eviction per batch is what bounds
        the data plane's GC-induced stall: the lock is released between
        batches, so a concurrent put/get waits for at most one candidate's
        eviction, never a sweep.
        """
        with self._meta:
            report = self.staging.gc.collect_incremental(
                max_versions=max_versions, max_seconds=max_seconds
            )
            if (
                report.versions_collected
                or report.events_trimmed
                or report.pending_drained
            ):
                # Idle no-op batches would swamp the report list.
                self.staging.gc_reports.append(report)
            return report

    def _gc_paused(self) -> bool:
        """Pause predicate for the background collector (lock-free-ish).

        True while a snapshot/restore/rebuild excludes GC or any component
        is mid-replay. Reads race benignly with the writers: a stale False
        only means one more bounded batch, which still serializes correctly
        through ``_meta``.
        """
        if self._gc_excluded:
            return True
        return self.staging.any_replaying()

    def _exclude_gc(self) -> None:
        with self._gc_pause_lock:
            self._gc_excluded += 1

    def _readmit_gc(self) -> None:
        with self._gc_pause_lock:
            self._gc_excluded -= 1

    def start_background_gc(
        self,
        high_watermark: int,
        low_watermark: int | None = None,
        interval: float = 0.05,
        batch_versions: int | None = 1,
        batch_seconds: float | None = None,
    ) -> BackgroundCollector:
        """Start concurrent watermark-driven collection (idempotent).

        Synchronous auto-GC on ``workflow_check`` is suspended while the
        collector runs — checkpoints only queue candidates (O(1) under
        ``_meta``) and nudge the collector, so the checkpoint path loses its
        last collection work. Fault recovery wakes the collector too, via
        the data log's ``recovery_waker``, so pending evictions queued
        behind a transient fault drain as soon as the server heals.
        """
        if self._bg_gc is not None:
            return self._bg_gc
        collector = BackgroundCollector(
            run_batch=lambda: self.gc_step(batch_versions, batch_seconds),
            pressure_bytes=self.staging.log.logged_bytes,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            interval=interval,
            paused=self._gc_paused,
        )
        with self._meta:
            self._bg_gc_prev_auto = self.staging.auto_gc
            self.staging.auto_gc = False
            self.staging.log.recovery_waker = collector.wakeup
            self.staging.checkpointer.epoch_listeners.append(collector.wakeup)
        self._bg_gc = collector
        collector.start()
        return collector

    def stop_background_gc(self, final_pass: bool = True) -> None:
        """Stop the collector thread and restore synchronous auto-GC.

        ``final_pass`` runs one last *unbounded* incremental pass after the
        thread joins, so candidates queued between its final batch and the
        stop are not stranded (teardown determinism for tests/benchmarks).
        """
        collector = self._bg_gc
        if collector is None:
            return
        self._bg_gc = None
        collector.stop()
        with self._meta:
            self.staging.log.recovery_waker = None
            listeners = self.staging.checkpointer.epoch_listeners
            if collector.wakeup in listeners:
                listeners.remove(collector.wakeup)
            if self._bg_gc_prev_auto is not None:
                self.staging.auto_gc = self._bg_gc_prev_auto
                self._bg_gc_prev_auto = None
        if final_pass:
            self.gc_step(max_versions=None, max_seconds=None)

    @property
    def background_gc(self) -> BackgroundCollector | None:
        """The running background collector, if any."""
        return self._bg_gc

    # -------------------------------------------------------- data-phase gate

    def _begin_data_phase(self) -> None:
        """Enter the data plane (caller holds ``_meta``)."""
        while self._excluders:
            self._quiesced.wait()
        self._inflight += 1
        _DATA_PHASES.inc()

    def _end_data_phase(self) -> None:
        """Leave the data plane (caller holds ``_meta``)."""
        self._inflight -= 1
        if self._inflight == 0:
            self._quiesced.notify_all()

    def _abort_data_phase(self) -> None:
        """Leave the data plane from an except path (acquires ``_meta``)."""
        with self._meta:
            self._end_data_phase()

    def _quiesce_data_plane(self) -> None:
        """Block new data phases and wait out in-flight ones (holds ``_meta``)."""
        t0 = time.monotonic()
        self._excluders += 1
        while self._inflight:
            self._quiesced.wait()
        _QUIESCE_WAIT_SECONDS.record(time.monotonic() - t0)

    def _release_data_plane(self) -> None:
        self._excluders -= 1
        if self._excluders == 0:
            self._quiesced.notify_all()

    # ------------------------------------------------------------------ ops

    def declare_coupling(self, name: str, consumer: str) -> None:
        """Register that ``consumer`` reads variable ``name``.

        Feeds both flow control (producer pacing) and the data log's
        GC-protection of unread versions.
        """
        with self._meta:
            self._flow_consumers.setdefault(name, set()).add(consumer)
            if self.staging.enable_logging:
                self.staging.declare_coupling(name, consumer)

    def retire_consumer(self, consumer: str) -> None:
        """Exclude a *finished* consumer from flow control.

        A consumer that has read everything it ever will must not throttle
        the producer — critical after a coordinated rollback rewinds read
        frontiers below versions the parked consumer will never re-read.
        """
        with self._meta:
            self._retired.add(consumer)
            self._data_arrived.notify_all()

    def rejoin_consumer(self, consumer: str) -> None:
        """Re-admit a consumer dragged back below its final step."""
        with self._meta:
            self._retired.discard(consumer)

    def _min_frontier(
        self, name: str, reader: str | None = None, version: int = -1
    ) -> int | None:
        """Slowest active consumer's read frontier (None: no active
        consumers), counting ``reader`` as having read ``version``."""
        consumers = self._flow_consumers.get(name)
        if not consumers:
            return None
        active = [c for c in consumers if c not in self._retired]
        if not active:
            return None
        return min(
            max(self._frontier.get((name, c), -1), version if c == reader else -1)
            for c in active
        )

    def _unconsumed_floor(
        self, name: str, reader: str | None = None, version: int = -1
    ) -> int | None:
        """Lowest version not yet read by every consumer (retention floor);
        a get plans its floor as if its ``reader`` had read ``version``."""
        frontier = self._min_frontier(name, reader, version)
        return None if frontier is None else frontier + 1

    # ------------------------------------------------------------------ put

    def put(
        self,
        component: str,
        desc: ObjectDescriptor,
        data: np.ndarray,
        step: int,
        interrupt: Callable[[], bool] | None = None,
    ) -> PutResult:
        """Serviced write; wakes any consumer blocked on this version.

        Blocks while the slowest consumer lags more than ``max_ahead``
        versions behind this write (coupling flow control). Replay-suppressed
        writes never block: their data already flowed in the initial run.
        """
        data = self.staging.validate_put(desc, data)
        t_req = time.monotonic()
        with self._meta:
            _LOCK_WAIT.record(time.monotonic() - t_req)
            # The flow-control budget starts once the request is being
            # serviced: lock contention must not eat into max_wait.
            deadline = time.monotonic() + self.max_wait
            stalled_since: float | None = None
            while not self.staging.in_replay(component):
                frontier = self._min_frontier(desc.name)
                if frontier is None or desc.version - frontier <= self.max_ahead:
                    break
                if self._shutdown:
                    _WAITS_INTERRUPTED.inc()
                    raise WaitInterrupted("staging service shut down")
                if interrupt is not None and interrupt():
                    _WAITS_INTERRUPTED.inc()
                    raise WaitInterrupted(f"flow wait for {desc} interrupted")
                if time.monotonic() > deadline:
                    _WAITS_INTERRUPTED.inc()
                    raise WaitInterrupted(
                        f"{component!r}: consumers stalled > {self.max_wait}s "
                        f"behind {desc}"
                    )
                if stalled_since is None:
                    stalled_since = time.monotonic()
                    _FLOW_STALLS.inc()
                self._data_arrived.wait(timeout=self.poll_timeout)
            if stalled_since is not None:
                _FLOW_STALL_SECONDS.record(time.monotonic() - stalled_since)
            suppressed = self.staging.suppress_replayed_put(component, desc, data)
            if suppressed is not None:
                self._data_arrived.notify_all()
                return suppressed
            retain = self.staging.put_retention(desc.name)
            self._begin_data_phase()
        # ---- data phase: payload moves under per-server locks only -------
        try:
            shards = self.staging.client.put(desc, data, retain)
            digest = payload_digest(data) if self.staging.enable_logging else ""
        except BaseException:
            self._abort_data_phase()
            raise
        with self._meta:
            self._end_data_phase()
            result = self.staging.commit_put(
                component, desc, digest, step, shards, retain
            )
            self._data_arrived.notify_all()
            return result

    # ------------------------------------------------------------------ get

    def get_blocking(
        self,
        component: str,
        desc: ObjectDescriptor,
        step: int,
        interrupt: Callable[[], bool] | None = None,
    ) -> GetResult:
        """Read ``desc``, waiting until its data is available.

        ``interrupt`` is polled while waiting; returning True aborts the wait
        with :class:`WaitInterrupted` (e.g. a coordinated rollback was
        requested while this consumer waited for a version the rolled-back
        producer will never write).

        The payload is assembled outside the metadata lock; if a concurrent
        eviction or rollback removes the planned version mid-fetch, the
        fetch raises and the wait loop simply resumes (the interrupt
        predicate or deadline bounds the retry).
        """
        t_start = time.monotonic()
        deadline: float | None = None
        waited = False
        while True:
            plan: GetPlan | None = None
            with self._meta:
                if deadline is None:
                    now = time.monotonic()
                    _LOCK_WAIT.record(now - t_start)
                    # As in put(): the wait budget starts once the lock is
                    # held, so lock contention does not eat into max_wait.
                    deadline = now + self.max_wait
                while True:
                    if self._shutdown:
                        _WAITS_INTERRUPTED.inc()
                        raise WaitInterrupted("staging service shut down")
                    if interrupt is not None and interrupt():
                        _WAITS_INTERRUPTED.inc()
                        raise WaitInterrupted(f"wait for {desc} interrupted")
                    if time.monotonic() > deadline:
                        _WAITS_INTERRUPTED.inc()
                        raise WaitInterrupted(
                            f"{component!r} waited over {self.max_wait}s for {desc}"
                        )
                    plan = self.staging.plan_get(component, desc)
                    if plan is not None:
                        self._begin_data_phase()
                        break
                    if not waited:
                        waited = True
                        _BLOCKING_WAITS.inc()
                    self._data_arrived.wait(timeout=self.poll_timeout)
            # ---- data phase: assemble payload under per-server locks -----
            try:
                data = self.staging.fetch_get(desc, plan.version, plan.retain)
                digest = payload_digest(data)
            except ObjectNotFound:
                # Planned version vanished mid-fetch (eviction/rollback race);
                # go back to waiting.
                self._abort_data_phase()
                _DATA_PHASE_RETRIES.inc()
                continue
            except BaseException:
                self._abort_data_phase()
                raise
            with self._meta:
                self._end_data_phase()
                if plan.replayed:
                    result = self.staging.commit_replayed_get(
                        component, desc, data, digest
                    )
                else:
                    result = self.staging.commit_get(
                        component, desc, data, digest, plan.version, step, plan.retain
                    )
                if waited:
                    _BLOCKING_WAIT_SECONDS.record(time.monotonic() - t_start)
                self._record_read(component, desc, result)
                return result

    def _record_read(
        self, component: str, desc: ObjectDescriptor, result: GetResult
    ) -> None:
        """Advance the consumer's frontier; wake producers it may unblock
        (caller holds ``_meta``).

        Non-logged retention needs nothing here: the get already dropped the
        versions this read consumed, on the servers, as it served them (its
        plan counted this frontier advance in). That keeps the eviction
        point at read time whatever the producer/consumer interleaving — the
        ``In`` baseline's inconsistency demonstration depends on it.
        """
        key = (desc.name, component)
        self._frontier[key] = max(self._frontier.get(key, -1), result.served_version)
        self._frontier_dirty[key] = self._frontier[key]
        self._data_arrived.notify_all()

    # ---------------------------------------------------- workflow interface

    def workflow_check(self, component: str, step: int, durable: bool = True) -> WChkId:
        with self._meta:
            return self.staging.handle_check(component, step, durable=durable)

    def workflow_restart(
        self, component: str, step: int, durable_only: bool = False
    ) -> ReplayScript:
        t0 = time.monotonic()
        with self._meta:
            script = self.staging.handle_restart(
                component, step, durable_only=durable_only
            )
            # A recovering component changes no data, but consumers blocked
            # on it should re-check their interrupt predicates.
            self._data_arrived.notify_all()
        _RECOVERY_RESTART_SECONDS.record(time.monotonic() - t0)
        return script

    def in_replay(self, component: str) -> bool:
        with self._meta:
            return self.staging.in_replay(component)

    # ------------------------------------------------------------- snapshot

    def snapshot(self, full: bool = False) -> dict:
        """Capture staging state (global coordinated checkpoint).

        Includes the consumer read frontiers: they are coupling state, and a
        global rollback must rewind them alongside the stores or retention
        would evict versions the rolled-back consumers still need. The data
        plane is quiesced first so no in-flight put tears the snapshot.

        Default is **incremental**: the first call takes a full base capture
        (fanned out per server on the shard pool) and starts the mutation
        journals; every later call's work under the quiescence gate is just
        sealing those journals — O(mutations since the last epoch), not
        O(state) — and the delta is packaged after the gate reopens.
        ``full=True`` returns a plain full snapshot (the shape of a chain's
        base) and never turns journaling on by itself — the full-copy
        reference the incremental path is tested against.
        """
        t0 = time.monotonic()
        ckpt = self.staging.checkpointer
        # GC pauses for the whole operation (not just the gated window):
        # delta packaging outside the gate still reads sealed journals that
        # share payload references with the stores.
        self._exclude_gc()
        try:
            return self._snapshot_excluded(full, ckpt, t0)
        finally:
            self._readmit_gc()

    def _snapshot_excluded(self, full: bool, ckpt, t0: float) -> dict:
        with self._ckpt_lock:
            sealed: dict | None = None
            with self._meta:
                self._quiesce_data_plane()
                t_gate = time.monotonic()
                try:
                    if full or ckpt.wants_full():
                        snap = ckpt.capture_full(
                            self._frontier,
                            # An explicit full=True capture on a group that
                            # never checkpointed incrementally stays purely
                            # seed-shaped; once a chain exists it doubles as
                            # a fresh base.
                            start_chain=(not full) or ckpt.journaling,
                        )
                        self._frontier_dirty.clear()
                        if not full:
                            snap = ckpt.chain_view()
                    else:
                        sealed = ckpt.seal()
                        sealed["frontier"] = dict(self._frontier_dirty)
                        self._frontier_dirty.clear()
                finally:
                    _GATE_SECONDS.record(time.monotonic() - t_gate)
                    self._release_data_plane()
            if sealed is not None:
                # Delta packaging + chain upkeep run outside the metadata
                # lock: the data plane is already moving again.
                snap = ckpt.materialize(sealed)
            # Journals a re-base discarded are freed here, after the gate:
            # they can hold the last reference to evicted payloads, and that
            # deallocation cascade must not stall the data plane.
            ckpt.release_discarded()
        _CAPTURE_SECONDS.record(time.monotonic() - t0)
        return snap

    def restore(self, snap: dict | None) -> None:
        """Roll staging back to a captured snapshot (full or incremental);
        ``None`` — nothing was ever captured — rewinds it to empty.

        With the data plane quiesced, the checkpointer hands every server
        its part of the snapshot: the base plus, for an incremental
        snapshot, the server's own sealed journals, which it re-applies in
        place (:meth:`StagingServer.restore` rolls store, index and blobs
        back together, so the metadata layer never points at rolled-back
        versions). Per-server work is independent and fans out on the shard
        pool when the group is ``parallel``. The read frontiers, protection
        records and health rewind with the data.
        """
        t0 = time.monotonic()
        ckpt = self.staging.checkpointer
        self._exclude_gc()
        try:
            with self._ckpt_lock:
                with self._meta:
                    self._quiesce_data_plane()
                    try:
                        if snap is None:
                            snap = ckpt.empty_snapshot()
                        self._frontier = ckpt.restore(snap)
                        self._frontier_dirty = {}
                    finally:
                        self._release_data_plane()
                    self._data_arrived.notify_all()
                ckpt.release_discarded()
        finally:
            self._readmit_gc()
        _RESTORE_SECONDS.record(time.monotonic() - t0)

    def rebuild_server(self, server_id: int, replacement=None) -> int:
        """Rebuild a lost staging server from survivors, then resume.

        Quiesces the data plane (a rebuild swaps the server object out from
        under concurrent puts/gets otherwise), delegates to
        :meth:`StagingGroup.rebuild`, and wakes blocked consumers — versions
        that were only degraded-readable become directly servable again.
        Returns the number of payload bytes rebuilt.
        """
        self._exclude_gc()
        try:
            with self._meta:
                self._quiesce_data_plane()
                try:
                    rebuilt = self.group.rebuild(server_id, replacement)
                    # The rebuild swapped a server object: its journals no
                    # longer describe the chain's lineage, so the next
                    # checkpoint must re-base with a full capture.
                    self.staging.checkpointer.mark_dirty()
                finally:
                    self._release_data_plane()
                self._data_arrived.notify_all()
                return rebuilt
        finally:
            self._readmit_gc()

    # -------------------------------------------------------------- metrics

    @property
    def group(self) -> StagingGroup:
        return self.staging.group

    def memory_bytes(self) -> int:
        with self._meta:
            return self.staging.memory_bytes()

    def logging_overhead(self) -> float:
        with self._meta:
            return self.staging.logging_overhead()
