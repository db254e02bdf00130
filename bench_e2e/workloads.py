"""The four coupled-workflow workloads and their seed-drawn fault schedules.

Object sizes, checkpoint periods and failure densities are fixed; only the
step count scales (uniformly, with ``--seconds``). The seed draws *where* the
faults land, never what the program is fed: payloads are the runtime's own
``synthetic_field(var, step)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.domain import Domain
from repro.runtime.app import ComponentSpec
from repro.runtime.failures import FailurePlan
from repro.staging.resilience import ProtectionConfig
from repro.util.rng import RngRegistry
from repro.workloads import coupled_specs

__all__ = [
    "PRODUCER",
    "CONSUMER",
    "NUM_SERVERS",
    "KillCycle",
    "Schedule",
    "Workload",
    "WORKLOADS",
    "draw_schedule",
    "warmup_steps",
]

PRODUCER = "simulation"
CONSUMER = "analytic"
NUM_SERVERS = 4

# Server kill/rebuild cycle (rs-shm-kill): crash and rebuild offsets within
# a cycle, as fractions of 90 steps. The degraded window is half the cycle.
_CRASH_AT, _REBUILD_AT, _CYCLE = 22, 67, 90


@dataclass(frozen=True)
class KillCycle:
    """One server loss: crash before ``crash_step``, rebuild before ``rebuild_step``."""

    crash_step: int
    rebuild_step: int
    server: int


@dataclass(frozen=True)
class Schedule:
    failures: tuple[FailurePlan, ...]
    kills: tuple[KillCycle, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str
    shape: tuple[int, ...]
    variables: tuple[str, ...]
    sim_period: int
    analytic_period: int
    failure_interval: int  # one component failure per this many steps
    steps: int  # N at --seconds == run_seconds of BENCHMARK.json
    rs_parity: int = 0
    kill_cycle: int = 0  # steps per server kill/rebuild cycle (0 = none)

    @property
    def domain(self) -> Domain:
        return Domain(self.shape)

    @property
    def version_bytes(self) -> int:
        """Bytes of one live version of all variables (f64)."""
        return math.prod(self.shape) * 8 * len(self.variables)

    def protection(self) -> ProtectionConfig | None:
        if not self.rs_parity:
            return None
        return ProtectionConfig(mode="rs", parity=self.rs_parity)

    def steps_at(self, scale: float) -> int:
        # Never fewer than two checkpoint periods: the smallest run still has
        # a warm-up step, a sampled checkpoint of each component, one failure
        # and (where configured) one kill/rebuild cycle.
        return max(2 * max(self.sim_period, self.analytic_period), round(self.steps * scale))

    def specs(self, n_steps: int) -> list[ComponentSpec]:
        return coupled_specs(
            num_steps=n_steps,
            sim_period=self.sim_period,
            analytic_period=self.analytic_period,
            variables=list(self.variables),
            domain=self.domain,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="case1-inproc",
            transport="inproc",
            shape=(32, 32, 32),
            variables=("field",),
            sim_period=4,
            analytic_period=5,
            failure_interval=125,
            steps=1600,
        ),
        Workload(
            name="smallops-tcp",
            transport="tcp",
            shape=(16, 16, 8),
            variables=("u", "v", "w", "p"),
            sim_period=4,
            analytic_period=5,
            failure_interval=100,
            steps=400,
        ),
        Workload(
            name="rs-shm-kill",
            transport="shm",
            shape=(64, 64, 64),
            variables=("field",),
            sim_period=4,
            analytic_period=5,
            failure_interval=75,
            steps=360,
            rs_parity=2,
            kill_cycle=_CYCLE,
        ),
        Workload(
            name="replay-heavy-inproc",
            transport="inproc",
            shape=(32, 32, 32),
            variables=("field",),
            sim_period=40,
            analytic_period=50,
            failure_interval=60,
            steps=2000,
        ),
    )
}


def warmup_steps(n_steps: int) -> int:
    """The first 5 % of a phase's steps are warm-up: run, not sampled."""
    return max(1, n_steps // 20)


def _balanced_phases(count: int, period: int) -> list[int]:
    """``count`` rollback depths spread evenly over ``[0, period)``.

    A failure at step ``f`` re-executes ``f mod period`` steps, so fixing the
    multiset of residues fixes the total replay work of a run: seeds move
    failures around without changing how much recovery they cause.
    """
    return [((2 * j + 1) * period) // (2 * count) for j in range(count)]


def _draw_kills(wl: Workload, n_steps: int, rng: RngRegistry) -> list[KillCycle]:
    """One crash/rebuild per cycle; the seed picks the cycle's phase and the
    first server to die. The degraded window is always half a cycle."""
    if not wl.kill_cycle:
        return []
    cycle = min(wl.kill_cycle, n_steps)
    crash_off = cycle * _CRASH_AT // _CYCLE
    rebuild_off = max(crash_off + 1, cycle * _REBUILD_AT // _CYCLE)
    slack = cycle - rebuild_off - 1
    shift = rng.integers("kills.shift", 0, slack + 1) if slack > 0 else 0
    first = rng.integers("kills.server", 0, NUM_SERVERS - 1)
    return [
        KillCycle(
            crash_step=c * cycle + shift + crash_off,
            rebuild_step=c * cycle + shift + rebuild_off,
            # Lost server rotates 1 -> 2 -> 3 (server 0 never dies).
            server=1 + (first + c) % (NUM_SERVERS - 1),
        )
        for c in range(n_steps // cycle)
    ]


def _draw_failures(wl: Workload, n_steps: int, rng: RngRegistry) -> list[FailurePlan]:
    """One component failure per window of ``failure_interval`` steps."""
    warm = warmup_steps(n_steps)
    interval = min(wl.failure_interval, n_steps)
    longest = max(wl.analytic_period, wl.sim_period)
    # Recoveries are samples too, so windows lose their warm-up part, and a
    # window too short to hold every rollback depth is dropped (tiny runs
    # keep their single window).
    windows = [(max(i * interval, warm), (i + 1) * interval) for i in range(n_steps // interval)]
    windows = [w for w in windows if w[1] - w[0] >= longest] or [(warm, n_steps)]
    # Windows alternate analytic / simulation, as in the paper's Case 1/2.
    targets = [CONSUMER if i % 2 == 0 else PRODUCER for i in range(len(windows))]
    failures: list[FailurePlan] = []
    for comp, period in ((CONSUMER, wl.analytic_period), (PRODUCER, wl.sim_period)):
        mine = [w for w, t in zip(windows, targets) if t == comp]
        if not mine:
            continue
        phases = _balanced_phases(len(mine), period)
        rng.get(f"phases.{comp}").shuffle(phases)
        for (lo, hi), phase in zip(mine, phases):
            candidates = [s for s in range(lo, hi) if s % period == phase] or [lo]
            step = candidates[rng.integers(f"steps.{comp}", 0, len(candidates))]
            failures.append(FailurePlan(comp, step))
    return sorted(failures, key=lambda p: p.step)


def draw_schedule(wl: Workload, n_steps: int, seed: int) -> Schedule:
    """Component failures and server kills for one run, drawn from ``seed``."""
    rng = RngRegistry(seed)
    return Schedule(
        failures=tuple(_draw_failures(wl, n_steps, rng)),
        kills=tuple(_draw_kills(wl, n_steps, rng)),
    )
