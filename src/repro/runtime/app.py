"""Application components for the threaded runtime.

A component is a stepped SPMD application (the paper's "simulation" or
"analytic") whose coupling traffic flows through staging. Each owns a ULFM
communicator of logical ranks, checkpoints its state on its own period, and —
depending on the workflow's fault-tolerance scheme — recovers from injected
fail-stop failures by rollback + staging replay, by global rollback, or by
replica failover.

Components are deterministic functions of (name, step): re-execution after a
rollback reproduces byte-identical puts, which is the property the paper's
replay mechanism assumes of the application layer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.consistency import ObservationLog
from repro.obs import registry as _obs
from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import ConfigError, ProcessFailure
from repro.geometry.domain import Domain
from repro.runtime.checkpoint import CheckpointStore, CheckpointTier
from repro.runtime.failures import FailureInjector
from repro.runtime.staging_service import SynchronizedStaging
from repro.runtime.ulfm import Communicator, FailureDetector, SparePool

_RECOVERY_SECONDS = _obs.histogram("workflow.recovery.seconds")
_RECOVERIES = _obs.counter("workflow.recoveries")
_CHECKPOINT_SECONDS = _obs.histogram("workflow.checkpoint.seconds")

__all__ = [
    "RollbackSignal",
    "ComponentSpec",
    "AppComponent",
    "ProducerComponent",
    "ConsumerComponent",
    "synthetic_field",
]


class RollbackSignal(Exception):
    """Control-flow signal: a *global* rollback was requested (Co scheme)."""


def synthetic_field(name: str, step: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic, step-dependent field data.

    A cheap smooth function with enough structure that wrong-version reads
    produce detectably different bytes; deterministic so rollback
    re-execution reproduces identical payloads.
    """
    base = (hash_stable(name) % 97) / 97.0
    idx = np.indices(shape, dtype=np.float64)
    phase = idx.sum(axis=0) / max(sum(shape), 1)
    return np.sin(2.0 * np.pi * (phase + base) * (step + 1)) + step


def hash_stable(text: str) -> int:
    """Process-stable string hash (``hash()`` is salted; this is not)."""
    h = 2166136261
    for ch in text.encode():
        h = (h ^ ch) * 16777619 % (1 << 32)
    return h


@dataclass
class ComponentSpec:
    """Static description of one workflow component."""

    name: str
    kind: str  # "producer" | "consumer"
    nranks: int
    num_steps: int
    checkpoint_period: int
    variables: list[str]
    domain: Domain
    subset_fraction: float = 1.0
    replicated: bool = False
    replica_budget: int = 1  # failures a replicated component can absorb
    # Multi-level checkpointing: every k-th checkpoint goes to the durable
    # PFS tier, the rest to node-local storage. 1 = all durable (classic).
    pfs_checkpoint_interval: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("producer", "consumer"):
            raise ConfigError(f"unknown component kind {self.kind!r}")
        if self.num_steps <= 0:
            raise ConfigError("num_steps must be positive")
        if self.checkpoint_period <= 0:
            raise ConfigError("checkpoint_period must be positive")
        if not (0.0 < self.subset_fraction <= 1.0):
            raise ConfigError(f"subset_fraction out of (0,1]: {self.subset_fraction}")
        if not self.variables:
            raise ConfigError("component exchanges at least one variable")
        if self.pfs_checkpoint_interval < 1:
            raise ConfigError("pfs_checkpoint_interval must be >= 1")


@dataclass
class ComponentStats:
    """Per-component counters collected during a run."""

    steps_executed: int = 0
    steps_reexecuted: int = 0
    checkpoints_taken: int = 0
    rollbacks: int = 0
    failovers: int = 0
    puts: int = 0
    suppressed_puts: int = 0
    gets: int = 0
    replayed_gets: int = 0


class AppComponent:
    """Base class: the stepped run loop with failure handling.

    Subclasses implement :meth:`execute_step`. The run loop supports three
    recovery modes, chosen by the workflow driver:

    * ``local`` — uncoordinated/individual: restore own checkpoint, call
      ``workflow_restart``, re-execute (staging replays if logging is on);
    * ``global`` — coordinated: any failure triggers every component's
      rollback via the shared protocol object;
    * ``failover`` — process replication: absorb the failure and continue.
    """

    def __init__(
        self,
        spec: ComponentSpec,
        staging: SynchronizedStaging,
        chk_store: CheckpointStore,
        observations: ObservationLog,
        injector: FailureInjector,
        detector: FailureDetector,
        spares: SparePool,
        recovery_mode: str = "local",
        coordinated_protocol: "object | None" = None,
        chk_tier: CheckpointTier = CheckpointTier.PFS,
    ) -> None:
        if recovery_mode not in ("local", "global", "failover"):
            raise ConfigError(f"unknown recovery mode {recovery_mode!r}")
        self.spec = spec
        self.staging = staging
        self.chk_store = chk_store
        self.observations = observations
        self.injector = injector
        self.detector = detector
        self.spares = spares
        self.recovery_mode = recovery_mode
        self.protocol = coordinated_protocol
        self.chk_tier = chk_tier

        self.comm = Communicator(spec.name, spec.nranks)
        self.state: dict = self.initial_state()
        self.stats = ComponentStats()
        self.error: BaseException | None = None
        self._seen_steps: set[int] = set()
        self._replicas_left = spec.replica_budget if spec.replicated else 0
        # Per-component step latency (cardinality is bounded by the spec
        # list, so a name-tagged histogram per component is safe).
        self._step_hist = _obs.histogram(f"workflow.step.seconds.{spec.name}")
        staging.register(spec.name)

    # --------------------------------------------------------------- state

    def initial_state(self) -> dict:
        """The state a never-checkpointed component restarts from."""
        return {"step": 0, "results": []}

    @property
    def name(self) -> str:
        return self.spec.name

    # ------------------------------------------------------------ stepping

    def execute_step(self, step: int) -> None:
        """One coupling step's staged traffic; implemented by subclasses."""
        raise NotImplementedError

    def _checkpoint_due(self, completed_step: int) -> bool:
        return (completed_step + 1) % self.spec.checkpoint_period == 0

    def take_checkpoint(self, completed_step: int) -> None:
        """Save state to reliable storage, then notify staging (Fig. 7a).

        Under multi-level checkpointing (``pfs_checkpoint_interval > 1``)
        only every k-th checkpoint goes to the durable PFS tier; the rest
        are node-local and are reported to staging as non-durable so the
        log retains enough history for a node-failure fallback.
        """
        t0 = perf_counter()
        interval = self.spec.pfs_checkpoint_interval
        durable = (self.stats.checkpoints_taken % interval) == interval - 1 or interval == 1
        tier = self.chk_tier if durable else CheckpointTier.NODE_LOCAL
        self.chk_store.save(self.name, completed_step, self.state, tier=tier)
        self.staging.workflow_check(self.name, completed_step, durable=durable)
        self.stats.checkpoints_taken += 1
        _CHECKPOINT_SECONDS.record(perf_counter() - t0)

    # ------------------------------------------------------------- failures

    def _maybe_fail(self, step: int) -> None:
        plan = self.injector.poll(self.name, step)
        if plan is None:
            return
        if self.recovery_mode == "failover" and self._replicas_left > 0:
            # Process replication: the replica takes over; no rollback and
            # no staging recovery phase (paper §III-B).
            self._replicas_left -= 1
            self.stats.failovers += 1
            self.detector.report(self.name, plan.rank, step)
            return
        raise ProcessFailure(
            rank=plan.rank, component=self.name, at_step=step, kind=plan.kind
        )

    def _recover_processes(self, failed_rank: int) -> None:
        """ULFM process recovery: revoke, repair from the spare pool."""
        self.comm.fail(failed_rank)
        self.comm = self.comm.repair(self.spares)

    def _restore_state(self) -> int:
        """Data recovery: reload the latest checkpoint (or initial state)."""
        chk = self.chk_store.latest(self.name)
        if chk is None:
            self.state = self.initial_state()
            return 0
        self.state = chk.load_state()
        return self.state["step"]

    def handle_local_failure(self, failure: ProcessFailure) -> None:
        """The paper's four recovery steps for uncoordinated/individual C/R.

        A *node* failure first destroys the node-local checkpoint tier, so
        data recovery falls back to the last durable (PFS) checkpoint and
        staging replays from that deeper point.
        """
        self.detector.report(self.name, failure.rank, failure.at_step)
        self._recover_processes(failure.rank)
        node_failure = failure.kind == "node"
        if node_failure:
            self.chk_store.drop_tier(self.name, CheckpointTier.NODE_LOCAL)
        restored_step = self._restore_state()
        self.staging.workflow_restart(
            self.name, restored_step, durable_only=node_failure
        )
        self.stats.rollbacks += 1

    # ------------------------------------------------------------- run loop

    def run(self) -> None:
        """Execute all steps, recovering from injected failures."""
        from repro.runtime.staging_service import WaitInterrupted

        try:
            while True:
                if self.state["step"] >= self.spec.num_steps:
                    # A finished consumer must not throttle producers.
                    self.staging.retire_consumer(self.name)
                    if self.protocol is None:
                        break
                    try:
                        # Finished components park until all finish: a peer's
                        # failure can still force a global rollback of this
                        # component's already-completed steps.
                        self.protocol.wait_all_done(self)
                        break
                    except RollbackSignal:
                        self.protocol.perform_rollback(self)
                        continue
                step = self.state["step"]
                self.staging.rejoin_consumer(self.name)
                try:
                    self._poll_global_rollback()
                    self._maybe_fail(step)
                    self.observations.begin_step(self.name, step)
                    t_step = perf_counter()
                    self.execute_step(step)
                    self._step_hist.record(perf_counter() - t_step)
                    self.stats.steps_executed += 1
                    if step in self._seen_steps:
                        self.stats.steps_reexecuted += 1
                    self._seen_steps.add(step)
                    self.state["step"] = step + 1
                    if self._checkpoint_due(step):
                        self._checkpoint()
                except ProcessFailure as failure:
                    t_rec = perf_counter()
                    if self.recovery_mode == "global":
                        assert self.protocol is not None
                        self.protocol.request_rollback(self, failure)
                    else:
                        self.handle_local_failure(failure)
                    _RECOVERIES.inc()
                    _RECOVERY_SECONDS.record(perf_counter() - t_rec)
                except RollbackSignal:
                    assert self.protocol is not None
                    t_rec = perf_counter()
                    self.protocol.perform_rollback(self)
                    _RECOVERIES.inc()
                    _RECOVERY_SECONDS.record(perf_counter() - t_rec)
                except WaitInterrupted:
                    if self.protocol is None:
                        raise  # shutdown or stuck wait; surface to the runner
                    t_rec = perf_counter()
                    self.protocol.perform_rollback(self)
                    _RECOVERIES.inc()
                    _RECOVERY_SECONDS.record(perf_counter() - t_rec)
        except BaseException as err:  # surfaced by the runner
            self.error = err
            if self.protocol is not None:
                self.protocol.abort()
            raise

    def _poll_global_rollback(self) -> None:
        if self.protocol is not None and self.protocol.rollback_pending(self):
            raise RollbackSignal()

    def _checkpoint(self) -> None:
        if self.recovery_mode == "global":
            assert self.protocol is not None
            self.protocol.coordinated_checkpoint(self)
        else:
            if self.staging.in_replay(self.name):
                # Catching up after a rollback: the window being replayed is
                # already covered by the checkpoint we restored from, and a
                # mid-replay checkpoint would desynchronize the state save
                # from its queue event. Skip until live again.
                return
            self.take_checkpoint(self.state["step"] - 1)

    # ------------------------------------------------------------- helpers

    def interrupt_predicate(self):
        """Predicate for blocking gets: abort the wait on global rollback."""
        if self.protocol is None:
            return None
        return lambda: self.protocol.rollback_pending(self)


class ProducerComponent(AppComponent):
    """The simulation: writes each variable's coupled region every step."""

    def execute_step(self, step: int) -> None:
        region = self.spec.domain.subset(self.spec.subset_fraction)
        for var in self.spec.variables:
            desc = ObjectDescriptor(var, step, region)
            data = synthetic_field(var, step, region.shape)
            result = self.staging.put(
                self.name, desc, data, step, interrupt=self.interrupt_predicate()
            )
            self.stats.puts += 1
            if result.suppressed:
                self.stats.suppressed_puts += 1


class ConsumerComponent(AppComponent):
    """The analytic: reads each variable right after the producer's write."""

    def execute_step(self, step: int) -> None:
        region = self.spec.domain.subset(self.spec.subset_fraction)
        for var in self.spec.variables:
            desc = ObjectDescriptor(var, step, region)
            result = self.staging.get_blocking(
                self.name, desc, step, interrupt=self.interrupt_predicate()
            )
            self.stats.gets += 1
            if result.replayed:
                self.stats.replayed_gets += 1
            self.observations.record(
                self.name, step, var, result.served_version, result.digest
            )
            # A simple feature-extraction reduction, kept in checkpointable
            # state so rollback re-computation is observable in tests.
            self.state["results"].append(
                (step, var, float(np.mean(result.data)))
            )


@dataclass
class ComponentThread:
    """A component bound to its executing thread."""

    component: AppComponent
    thread: threading.Thread = field(init=False)

    def __post_init__(self) -> None:
        self.thread = threading.Thread(
            target=self.component.run, name=f"component-{self.component.name}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def join(self, timeout: float | None = None) -> None:
        self.thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()
