"""Driver: assemble the runtime's stack, run one phase, time every op.

The stack is the one ``ThreadedWorkflow.run()`` builds — same public
constructors, same order, same defaults — but the harness keeps the handle
to the group (so it can ``close()`` it and read server metrics) and hands
the components a timing proxy around the ``SynchronizedStaging`` instance
(``bench_e2e/test_smoke.py`` checks parity with ``ThreadedWorkflow``).

Closed loop, two callers: the producer thread and the consumer thread.
Server kills and rebuilds are issued from the producer's thread between its
steps, so there is never a third load thread.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.consistency import ObservationLog
from repro.core.interface import WorkflowStaging
from repro.descriptors.odsc import ObjectDescriptor
from repro.faults import FaultPlan, inject_faults
from repro.obs import get_registry
from repro.runtime.app import ComponentThread, ConsumerComponent, ProducerComponent
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.failures import FailureInjector
from repro.runtime.staging_service import SynchronizedStaging
from repro.runtime.ulfm import FailureDetector, SparePool
from repro.staging.client import StagingGroup

from bench_e2e.tracing import SpanRecorder
from bench_e2e.workloads import (
    CONSUMER,
    NUM_SERVERS,
    PRODUCER,
    Schedule,
    Workload,
    warmup_steps,
)

__all__ = [
    "OpSamples",
    "PhaseResult",
    "TimingProxy",
    "build_stack",
    "probe_setup",
    "run_phase",
    "teardown_leaks",
]

JOIN_TIMEOUT = 150.0
SPARE_PROCESSES = 16  # ThreadedWorkflow's default


# ---------------------------------------------------------------- the stack


def build_stack(wl: Workload, scheme: str) -> SynchronizedStaging:
    """The stack ``ThreadedWorkflow(specs, scheme, protection=...).run()`` builds.

    The harness owns it: ``.group`` is the staging group, ``.staging`` the
    ``WorkflowStaging``, and ``.close()`` ends the server processes too.
    """
    group = StagingGroup.create(
        wl.domain,
        num_servers=NUM_SERVERS,
        parallel=None,
        protection=wl.protection(),
        transport=wl.transport,
    )
    staging = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=(scheme == "uncoordinated"))
    )
    for var in wl.variables:
        staging.declare_coupling(var, CONSUMER)
    return staging


def probe_setup(wl: Workload) -> float:
    """Seconds from nothing to a served first version and back to nothing.

    Construct the stack (spawning server processes on tcp/shm), register
    both components, put and get one version of every variable, close.
    """
    from repro.runtime.app import synthetic_field

    region = wl.domain.bbox
    t0 = perf_counter()
    staging = build_stack(wl, "uncoordinated")
    try:
        staging.register(PRODUCER)
        staging.register(CONSUMER)
        for var in wl.variables:
            desc = ObjectDescriptor(var, 0, region)
            staging.put(PRODUCER, desc, synthetic_field(var, 0, region.shape), 0)
            staging.get_blocking(CONSUMER, desc, 0)
    finally:
        staging.close()
    return perf_counter() - t0


def teardown_leaks() -> list[str]:
    """What a closed stack must not leave behind (empty list = clean)."""
    problems = []
    alive = [p.name for p in multiprocessing.active_children()]
    if alive:
        problems.append(f"live server child processes after close: {alive}")
    from repro.net.shm import leaked_segment_names

    leaked = leaked_segment_names()
    if leaked:
        problems.append(f"{len(leaked)} /dev/shm segment(s) left: {leaked[:4]}")
    return problems


# ------------------------------------------------------------- timing proxy


@dataclass
class OpSamples:
    """Samples of one kind (op seconds, staged bytes) with the step of each."""

    steps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, step: int, value: float) -> None:
        self.steps.append(step)
        self.values.append(value)

    def after(self, warm: int) -> list[float]:
        return [v for s, v in zip(self.steps, self.values) if s >= warm]

    def __len__(self) -> int:
        return len(self.values)


class TimingProxy:
    """What the components see instead of the ``SynchronizedStaging``.

    Times ``put`` / ``get_blocking`` / ``workflow_check`` /
    ``workflow_restart`` from outside, samples staged memory before each
    producer checkpoint, measures recovery (restart entry -> first op done at
    the step the component had not executed yet), and runs the due server
    kill/rebuild before the producer's first put of a step. Everything else
    passes straight through.
    """

    def __init__(
        self,
        staging: SynchronizedStaging,
        wl: Workload,
        schedule: Schedule,
        recorder: SpanRecorder | None = None,
    ) -> None:
        self._inner = staging
        self._recorder = recorder
        self._first_var = wl.variables[0]
        self._last_var = wl.variables[-1]
        self.put_s = OpSamples()
        self.get_s = OpSamples()
        self.check_s = {PRODUCER: OpSamples(), CONSUMER: OpSamples()}
        self.restart_s = OpSamples()
        self.recovery_s: list[float] = []
        self.mem = OpSamples()  # staged bytes before each producer check
        self.op_errors = 0
        # step -> perf_counter() when the consumer first finished that step.
        self.step_done: dict[int, float] = {}
        self._max_step = {PRODUCER: -1, CONSUMER: -1}
        self._recovering: dict[str, tuple[float, int]] = {}
        self._actions: dict[int, list] = {}
        for kill in schedule.kills:
            self._actions.setdefault(kill.crash_step, []).append(("crash", kill.server))
            self._actions.setdefault(kill.rebuild_step, []).append(("rebuild", kill.server))
        self.crashes_fired = 0
        self.rebuilds: list[tuple[int, float]] = []  # (bytes, seconds)
        self.rebuilt_not_up: list[int] = []
        self.retired_server_metrics: list[dict] = []

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # ------------------------------------------------------------ timed ops

    def _timed(self, span: str, samples: OpSamples, step: int, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            if self._recorder is None:
                result = fn(*args, **kwargs)
            else:
                result = self._recorder.call(span, fn, args, kwargs)
        except BaseException:
            self.op_errors += 1
            raise
        t1 = perf_counter()
        samples.add(step, t1 - t0)
        return result, t1

    def _op_done(self, component: str, step: int, now: float) -> None:
        pending = self._recovering.get(component)
        if pending is not None and step >= pending[1]:
            self.recovery_s.append(now - pending[0])
            del self._recovering[component]
        if step > self._max_step[component]:
            self._max_step[component] = step

    def put(self, component, desc, data, step, interrupt=None):
        if desc.name == self._first_var and step in self._actions:
            for action, server in self._actions.pop(step):
                self._server_action(action, server)
        result, now = self._timed(
            "runtime.put", self.put_s, step,
            self._inner.put, component, desc, data, step, interrupt=interrupt,
        )
        self._op_done(component, step, now)
        return result

    def get_blocking(self, component, desc, step, interrupt=None):
        result, now = self._timed(
            "runtime.get", self.get_s, step,
            self._inner.get_blocking, component, desc, step, interrupt=interrupt,
        )
        self._op_done(component, step, now)
        if desc.name == self._last_var:
            self.step_done.setdefault(step, now)
        return result

    def workflow_check(self, component, step, durable=True):
        if component == PRODUCER:
            self.mem.add(step, self._inner.memory_bytes())
        result, _ = self._timed(
            "runtime.check", self.check_s[component], step,
            self._inner.workflow_check, component, step, durable=durable,
        )
        return result

    def workflow_restart(self, component, step, durable_only=False):
        t0 = perf_counter()
        result, _ = self._timed(
            "runtime.restart", self.restart_s, step,
            self._inner.workflow_restart, component, step, durable_only=durable_only,
        )
        # Caught up = first op at the step this component never finished.
        self._recovering.setdefault(component, (t0, self._max_step[component] + 1))
        return result

    # ------------------------------------------------- server kill / rebuild

    def _server_action(self, action: str, server: int) -> None:
        group = self._inner.group
        if action == "crash":
            inject_faults(group, [FaultPlan(server, op=0, kind="crash")])
            self.crashes_fired += 1
            return
        # The lost server's process is retired by the rebuild; keep what it
        # counted (the fault only refuses data ops, admin ops still answer).
        self.retired_server_metrics.extend(server_metrics(group, only=server))
        t0 = perf_counter()
        rebuilt = self._inner.rebuild_server(server)
        self.rebuilds.append((rebuilt, perf_counter() - t0))
        if group.health.state(server) != "up":
            self.rebuilt_not_up.append(server)


def server_metrics(group: StagingGroup, only: int | None = None) -> list[dict]:
    """``admin:metrics`` snapshots of the group's server processes.

    Empty on inproc: those servers report to this process's registry.
    """
    if not group.transport.remote:
        return []
    return [
        ep.request("admin:metrics", ())
        for ep in group.transport.endpoints()
        if only is None or ep.server_id == only
    ]


# ------------------------------------------------------------------ a phase


@dataclass
class PhaseResult:
    n_steps: int
    warm: int
    proxy: TimingProxy
    observations: ObservationLog
    stats: dict
    failures_fired: int
    degraded_reads: int
    registry: dict
    servers: list[dict]
    spans: list[tuple]
    problems: list[str]

    @property
    def steps_per_s(self) -> float:
        """Coupled steps (consumer done with them) per second after warm-up."""
        done = self.proxy.step_done
        t0, t1 = done.get(self.warm - 1), done.get(self.n_steps - 1)
        if t0 is None or t1 is None or t1 <= t0:
            return 0.0
        return (self.n_steps - self.warm) / (t1 - t0)

    @property
    def ops(self) -> int:
        p = self.proxy
        checks = sum(len(s) for s in p.check_s.values())
        return len(p.put_s) + len(p.get_s) + checks + len(p.restart_s) + p.op_errors


def run_phase(
    wl: Workload,
    n_steps: int,
    scheme: str,
    schedule: Schedule,
    trace=None,
) -> PhaseResult:
    """Build a stack, run the coupled workflow to completion, close the stack.

    ``trace`` is ``None`` or a callable ``(recorder, staging, chk_store)`` that
    installs the span wrappers for this phase.
    """
    registry = get_registry()
    registry.reset()
    staging = build_stack(wl, scheme)
    recorder = None
    problems: list[str] = []
    try:
        chk_store = CheckpointStore()
        if trace is not None:
            recorder = SpanRecorder()
            trace(recorder, staging, chk_store)
        proxy = TimingProxy(staging, wl, schedule, recorder)
        observations = ObservationLog()
        injector = FailureInjector(list(schedule.failures))
        detector = FailureDetector()
        spares = SparePool(SPARE_PROCESSES, allow_spawn=True)
        components = [
            (ProducerComponent if spec.kind == "producer" else ConsumerComponent)(
                spec=spec,
                staging=proxy,
                chk_store=chk_store,
                observations=observations,
                injector=injector,
                detector=detector,
                spares=spares,
                recovery_mode="local",
                coordinated_protocol=None,
            )
            for spec in wl.specs(n_steps)
        ]
        threads = [ComponentThread(c) for c in components]
        t_run = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.1, JOIN_TIMEOUT - (perf_counter() - t_run)))
        stuck = [t.component.name for t in threads if t.alive]
        if stuck:
            problems.append(f"deadlocked; stuck components: {stuck}")
        for c in components:
            if c.error is not None:
                problems.append(f"component {c.name!r} failed: {c.error!r}")
        if len(injector.fired) != len(schedule.failures):
            problems.append(
                f"{len(injector.fired)}/{len(schedule.failures)} component failures fired"
            )
        if proxy.crashes_fired != len(schedule.kills) or len(proxy.rebuilds) != len(
            schedule.kills
        ):
            problems.append(
                f"{proxy.crashes_fired} crashes and {len(proxy.rebuilds)} rebuilds "
                f"fired of {len(schedule.kills)} planned"
            )
        if proxy.rebuilt_not_up:
            problems.append(f"rebuilt servers not up: {proxy.rebuilt_not_up}")
        degraded = registry.counter("staging.client.degraded_reads").value
        if schedule.kills and degraded == 0:
            problems.append("no degraded reads although servers were killed")
        snapshot = registry.snapshot()
        servers = [] if stuck else proxy.retired_server_metrics + server_metrics(staging.group)
    finally:
        if recorder is not None:
            recorder.restore()
        staging.close()
    return PhaseResult(
        n_steps=n_steps,
        warm=warmup_steps(n_steps),
        proxy=proxy,
        observations=observations,
        stats={c.name: c.stats for c in components},
        failures_fired=len(injector.fired),
        degraded_reads=degraded,
        registry=snapshot,
        servers=servers,
        spans=recorder.spans if recorder is not None else [],
        problems=problems,
    )
