"""Threaded workflow driver: build, run, and verify a coupled workflow.

Implements the five schemes the paper compares:

* ``ds`` — original data staging, failure-free baseline;
* ``coordinated`` (Co) — global coordinated C/R: synchronized checkpoints of
  every component *and* the staging servers; any failure rolls back all;
* ``uncoordinated`` (Un) — the paper's framework: independent checkpoints,
  data/event logging, per-component rollback with staging replay;
* ``hybrid`` (Hy) — producer uses C/R, consumer uses process replication;
* ``individual`` (In) — independent C/R *without* logging: fastest possible
  recovery but consistency-unsafe (the Fig. 2 failure mode).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass, field

from repro.core.consistency import ObservationLog, verify_read_stability
from repro.core.interface import WorkflowStaging
from repro.errors import ConfigError, ConsistencyError, SimulationError
from repro.obs import registry as _obs
from repro.obs import trace as _trace
from repro.geometry.domain import Domain
from repro.runtime.app import (
    AppComponent,
    ComponentSpec,
    ComponentThread,
    ConsumerComponent,
    ProducerComponent,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.failures import FailureInjector, FailurePlan
from repro.runtime.staging_service import SynchronizedStaging
from repro.runtime.ulfm import FailureDetector, SparePool
from repro.staging.client import StagingGroup
from repro.staging.cow import snapshot_cost_bytes

__all__ = [
    "SCHEMES",
    "CoordinatedProtocol",
    "WorkflowResult",
    "ThreadedWorkflow",
    "run_with_reference",
]

SCHEMES = ("ds", "coordinated", "uncoordinated", "hybrid", "individual")


class CoordinatedProtocol:
    """Global coordinated checkpoint/rollback rendezvous.

    All components arrive at every coordinated checkpoint; the last arrival
    atomically commits everyone's state snapshot and captures the staging
    servers. A failure anywhere bumps the rollback generation: every
    component (including ones already finished) converges on the rollback
    rendezvous, restores its committed checkpoint, and the last arrival
    restores the staging snapshot before anyone re-executes.
    """

    def __init__(
        self,
        staging: SynchronizedStaging,
        chk_store: CheckpointStore,
        parties: int,
        timeout: float = 60.0,
    ) -> None:
        if parties <= 0:
            raise ConfigError(f"protocol needs >= 1 party, got {parties}")
        self.staging = staging
        self.chk_store = chk_store
        self.parties = parties
        self.timeout = timeout
        self._cond = threading.Condition()
        self._generation = 0
        self._comp_generation: dict[str, int] = {}
        self._rollback_arrived: set[str] = set()
        self._rollbacks_completed = 0
        self._ckpt_epoch = 0
        self._pending_saves: dict[str, tuple[int, bytes]] = {}
        self._staging_snapshot: dict | None = None
        self._snapshot_step: int | None = None
        self._done: set[str] = set()
        self._aborted = False
        self.global_rollbacks = 0

    # ----------------------------------------------------------- predicates

    def rollback_pending(self, comp: AppComponent) -> bool:
        """True when ``comp`` has not yet performed the latest rollback."""
        with self._cond:
            return self._comp_generation.get(comp.name, 0) < self._generation

    def _check_abort(self) -> None:
        if self._aborted:
            raise SimulationError("coordinated protocol aborted by a peer error")

    def abort(self) -> None:
        """Release every waiter after an unrecoverable component error."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    # ------------------------------------------------------------- failure

    def request_rollback(self, comp: AppComponent, failure) -> None:
        """Entry point for the component that observed the failure."""
        comp.detector.report(comp.name, failure.rank, failure.at_step)
        comp._recover_processes(failure.rank)
        with self._cond:
            # Only open a new generation if this component is current —
            # otherwise it is joining a rollback already in flight.
            if self._comp_generation.get(comp.name, 0) >= self._generation:
                self._generation += 1
                self.global_rollbacks += 1
            self._cond.notify_all()
        self.perform_rollback(comp)

    def perform_rollback(self, comp: AppComponent) -> None:
        """Restore own state, rendezvous, last arrival restores staging."""
        chk = self.chk_store.latest(comp.name)
        if chk is None:
            comp.state = comp.initial_state()
        else:
            comp.state = chk.load_state()
        comp.stats.rollbacks += 1
        deadline = time.monotonic() + self.timeout
        with self._cond:
            gen = self._generation
            self._done.discard(comp.name)  # finished components rejoin
            self._rollback_arrived.add(comp.name)
            if len(self._rollback_arrived) == self.parties:
                # None (never checkpointed) rewinds staging to empty.
                self.staging.restore(self._staging_snapshot)
                self._pending_saves.clear()
                self._rollback_arrived.clear()
                self._rollbacks_completed = gen
                for name in list(self._comp_generation):
                    self._comp_generation[name] = gen
                self._comp_generation[comp.name] = gen
                self._cond.notify_all()
            else:
                while self._rollbacks_completed < gen:
                    self._check_abort()
                    if not self._cond.wait(timeout=1.0) and time.monotonic() > deadline:
                        raise SimulationError(
                            f"{comp.name!r}: rollback rendezvous timed out "
                            f"({len(self._rollback_arrived)}/{self.parties} arrived)"
                        )
                self._comp_generation[comp.name] = self._rollbacks_completed

    # ----------------------------------------------------------- checkpoint

    def coordinated_checkpoint(self, comp: AppComponent) -> None:
        """Barrier-synchronized global snapshot (paper §II: barriers around
        process checkpoints avoid in-flight messages entirely)."""
        from repro.runtime.app import RollbackSignal  # local import (cycle)

        payload = pickle.dumps(comp.state, protocol=pickle.HIGHEST_PROTOCOL)
        deadline = time.monotonic() + self.timeout
        with self._cond:
            # Compare against this component's own completed generation, not
            # the current global one: a rollback opened since the last
            # step-start poll must pre-empt this checkpoint, or the opener
            # waits at the rollback rendezvous while we wait here.
            gen = self._comp_generation.get(comp.name, 0)
            if self._generation > gen:
                raise RollbackSignal()
            self._pending_saves[comp.name] = (comp.state["step"] - 1, payload)
            waiting_for = len(self._pending_saves) + len(self._done)
            if waiting_for == self.parties:
                # Last arrival commits everyone's save atomically.
                for name, (step, data) in self._pending_saves.items():
                    self.chk_store.save(name, step, pickle.loads(data))
                self._pending_saves.clear()
                self._staging_snapshot = self.staging.snapshot()
                self.chk_store.record_external(
                    "staging", snapshot_cost_bytes(self._staging_snapshot)
                )
                self._snapshot_step = comp.state["step"] - 1
                self._ckpt_epoch += 1
                comp.stats.checkpoints_taken += 1
                self._cond.notify_all()
                return
            target = self._ckpt_epoch + 1
            while self._ckpt_epoch < target:
                self._check_abort()
                if self._generation > gen:
                    # A rollback pre-empted this checkpoint round.
                    self._pending_saves.pop(comp.name, None)
                    raise RollbackSignal()
                if not self._cond.wait(timeout=1.0) and time.monotonic() > deadline:
                    raise SimulationError(
                        f"{comp.name!r}: checkpoint rendezvous timed out"
                    )
            comp.stats.checkpoints_taken += 1

    # ------------------------------------------------------------- teardown

    def wait_all_done(self, comp: AppComponent) -> None:
        """Park a finished component until all finish (it may yet roll back)."""
        from repro.runtime.app import RollbackSignal  # local import (cycle)

        deadline = time.monotonic() + self.timeout
        with self._cond:
            gen = self._comp_generation.get(comp.name, 0)
            if self._generation > gen:
                raise RollbackSignal()
            self._done.add(comp.name)
            # A finished party satisfies any checkpoint round in progress.
            if (
                self._pending_saves
                and len(self._pending_saves) + len(self._done) == self.parties
            ):
                for name, (step, data) in self._pending_saves.items():
                    self.chk_store.save(name, step, pickle.loads(data))
                self._pending_saves.clear()
                self._staging_snapshot = self.staging.snapshot()
                self.chk_store.record_external(
                    "staging", snapshot_cost_bytes(self._staging_snapshot)
                )
                self._ckpt_epoch += 1
            self._cond.notify_all()
            while len(self._done) < self.parties:
                self._check_abort()
                if self._generation > gen:
                    self._done.discard(comp.name)
                    raise RollbackSignal()
                if not self._cond.wait(timeout=1.0) and time.monotonic() > deadline:
                    raise SimulationError(f"{comp.name!r}: completion wait timed out")


@dataclass
class WorkflowResult:
    """Everything a run produced, for verification and metrics."""

    scheme: str
    observations: ObservationLog
    component_stats: dict[str, object]
    final_states: dict[str, dict]
    memory_bytes: int
    logging_overhead: float
    failures_injected: int
    checkpoint_bytes: int
    wall_seconds: float
    gc_reports: list = field(default_factory=list)
    # Fragments still queued for eviction at shutdown (after the final GC
    # pass). Non-zero means a transient server fault was never drained.
    pending_evictions: int = 0

    def verify_against(self, reference: "WorkflowResult") -> None:
        """Raise ConsistencyError unless this run is read-stable vs reference."""
        verify_read_stability(reference.observations, self.observations)


class ThreadedWorkflow:
    """Build and execute one workflow under a chosen fault-tolerance scheme."""

    def __init__(
        self,
        specs: list[ComponentSpec],
        scheme: str,
        num_servers: int = 4,
        failures: list[FailurePlan] | None = None,
        spare_processes: int = 16,
        coordinated_period: int | None = None,
        join_timeout: float = 120.0,
        background_gc: bool = False,
        gc_high_watermark: int | None = None,
        server_faults: list | None = None,
        protection=None,
    ) -> None:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        if not specs:
            raise ConfigError("workflow needs at least one component")
        domains = {spec.domain.shape for spec in specs}
        if len(domains) != 1:
            raise ConfigError(f"components disagree on the domain: {domains}")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate component names: {names}")
        self.specs = specs
        self.scheme = scheme
        self.num_servers = num_servers
        self.failures = failures or []
        self.spare_processes = spare_processes
        self.coordinated_period = coordinated_period
        self.join_timeout = join_timeout
        # Concurrent watermark-driven GC instead of synchronous auto-GC on
        # every workflow_check (only meaningful for logging schemes).
        self.background_gc = background_gc
        self.gc_high_watermark = gc_high_watermark
        # Staging-server fault plans (FaultPlan list) injected into the
        # group before the run — the GC/fault soak drives eviction through
        # crashing/slow/flaky servers this way.
        self.server_faults = server_faults or []
        # Optional ProtectionConfig: the recovery soak runs protected
        # workflows with servers crashing mid-flight.
        self.protection = protection
        if scheme in ("ds", "coordinated", "individual"):
            self.enable_logging = False
        else:
            self.enable_logging = True

    # ----------------------------------------------------------------- run

    def run(self) -> WorkflowResult:
        domain = self.specs[0].domain
        group = StagingGroup.create(
            domain, num_servers=self.num_servers, protection=self.protection
        )
        if self.server_faults:
            from repro.faults.proxy import inject_faults  # local import (optional path)

            inject_faults(group, list(self.server_faults))
        staging = SynchronizedStaging(
            WorkflowStaging(group, enable_logging=self.enable_logging)
        )
        if self.background_gc and self.enable_logging:
            # Retention trimming leaves the checkpoint path: checks only
            # queue candidates; the collector evicts concurrently, one
            # bounded batch per lock acquisition.
            high = self.gc_high_watermark
            if high is None:
                high = 1 << 20
            staging.start_background_gc(high_watermark=high)
        for spec in self.specs:
            if spec.kind == "consumer":
                for var in spec.variables:
                    staging.declare_coupling(var, spec.name)
        chk_store = CheckpointStore()
        observations = ObservationLog()
        injector = FailureInjector(list(self.failures))
        detector = FailureDetector()
        spares = SparePool(self.spare_processes, allow_spawn=True)

        protocol = None
        if self.scheme == "coordinated":
            protocol = CoordinatedProtocol(
                staging, chk_store, parties=len(self.specs), timeout=self.join_timeout / 2
            )

        components: list[AppComponent] = []
        for spec in self.specs:
            spec = self._apply_scheme(spec)
            cls = ProducerComponent if spec.kind == "producer" else ConsumerComponent
            mode = self._recovery_mode(spec)
            comp = cls(
                spec=spec,
                staging=staging,
                chk_store=chk_store,
                observations=observations,
                injector=injector,
                detector=detector,
                spares=spares,
                recovery_mode=mode,
                coordinated_protocol=protocol,
            )
            components.append(comp)

        threads = [ComponentThread(c) for c in components]
        start = time.perf_counter()
        with _trace.span("runtime.workflow.run", scheme=self.scheme):
            for t in threads:
                t.start()
            deadline = time.monotonic() + self.join_timeout
            for t in threads:
                t.join(timeout=max(0.1, deadline - time.monotonic()))
        wall = time.perf_counter() - start
        stuck = [t.component.name for t in threads if t.alive]
        staging.shutdown()
        if protocol is not None:
            protocol.abort()
        if stuck:
            raise SimulationError(f"workflow deadlocked; stuck components: {stuck}")
        errors = {c.name: c.error for c in components if c.error is not None}
        if errors:
            name, err = next(iter(errors.items()))
            raise SimulationError(f"component {name!r} failed: {err!r}") from err

        _obs.counter("workflow.runs").inc()
        _obs.histogram("workflow.run.wall_seconds").record(wall)

        ws = staging.staging
        return WorkflowResult(
            scheme=self.scheme,
            observations=observations,
            component_stats={c.name: c.stats for c in components},
            final_states={c.name: c.state for c in components},
            memory_bytes=ws.memory_bytes(),
            logging_overhead=ws.logging_overhead() if self.enable_logging else 0.0,
            failures_injected=len(injector.fired),
            checkpoint_bytes=chk_store.bytes_written,
            wall_seconds=wall,
            gc_reports=list(ws.gc_reports),
            pending_evictions=ws.log.pending_eviction_count(),
        )

    # ------------------------------------------------------------- plumbing

    def _apply_scheme(self, spec: ComponentSpec) -> ComponentSpec:
        import dataclasses

        if self.scheme == "coordinated":
            period = self.coordinated_period or spec.checkpoint_period
            return dataclasses.replace(
                spec,
                checkpoint_period=period,
                replicated=False,
                # Coordinated snapshots are global; tiering is meaningless.
                pfs_checkpoint_interval=1,
            )
        if self.scheme == "hybrid" and spec.kind == "consumer":
            return dataclasses.replace(
                spec,
                replicated=True,
                replica_budget=max(1, spec.replica_budget),
            )
        return spec

    def _recovery_mode(self, spec: ComponentSpec) -> str:
        if self.scheme == "coordinated":
            return "global"
        if spec.replicated:
            return "failover"
        return "local"


def run_with_reference(
    specs: list[ComponentSpec],
    scheme: str,
    failures: list[FailurePlan] | None = None,
    num_servers: int = 4,
    coordinated_period: int | None = None,
    expect_consistent: bool = True,
) -> tuple[WorkflowResult, WorkflowResult]:
    """Run a failure-free ``ds`` reference, then the target scheme, and verify.

    Returns (reference, run). With ``expect_consistent=False`` (the ``In``
    baseline) a ConsistencyError is swallowed and reported via the returned
    run's ``consistent`` attribute instead.
    """
    reference = ThreadedWorkflow(specs, "ds", num_servers=num_servers).run()
    run = ThreadedWorkflow(
        specs,
        scheme,
        num_servers=num_servers,
        failures=failures,
        coordinated_period=coordinated_period,
    ).run()
    try:
        run.verify_against(reference)
        run.consistent = True  # type: ignore[attr-defined]
    except ConsistencyError:
        run.consistent = False  # type: ignore[attr-defined]
        if expect_consistent:
            raise
    return reference, run
