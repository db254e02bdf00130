#!/usr/bin/env python3
"""Recovery soak: kill a staging server mid-workflow, restart, rebuild.

Exercises the whole parallel-recovery engine end to end, in two phases:

**Phase 1 — workflow soak.** The paper's two-component coupled workflow
runs under the uncoordinated (logging) scheme on an RS(+2)-protected
staging group while a server **crashes mid-run** and both components are
killed by injected failures. Components restart through
``workflow_restart`` and replay their scripts; reads past the dead server come back
through degraded-read reconstruction. Pass criteria, against a
failure-free ``ds`` reference:

1. read stability (every (get, version) pair matches the reference);
2. all planned component failures fired and the crash fault fired;
3. degraded reads actually happened (non-vacuous: the crash landed while
   data still flowed);
4. every component restart replayed within the ``--restart-budget``
   (mean of ``recovery.workflow_restart.seconds``).

**Phase 2 — kill + rebuild.** A protected staging workload loses a server
mid-stream (crash fault on a live op), keeps serving byte-identical data
degraded, then the lost server is rebuilt through the pipelined engine.
Pass criteria: the rebuild finishes inside ``--rebuild-budget``, flips the
server back to ``up``, and every version of every variable reads back
byte-identical afterwards.

Usage::

    PYTHONPATH=src python scripts/soak_recovery.py [--steps 32] [--rounds 2]
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

import numpy as np

from repro.faults import FaultPlan
from repro.geometry import Domain
from repro.obs import registry as _obs
from repro.runtime.failures import FailurePlan
from repro.runtime.workflow import ThreadedWorkflow
from repro.descriptors import ObjectDescriptor
from repro.staging import (
    ProtectionConfig,
    RetryPolicy,
    StagingClient,
    StagingGroup,
)
from repro.staging.resilience import rebuild_server
from repro.workloads import coupled_specs

DOMAIN = Domain((8, 8, 4))

_DEGRADED_READS = _obs.counter("staging.client.degraded_reads")
_RESTART_SECONDS = _obs.histogram("recovery.workflow_restart.seconds")


# ------------------------------------------------------------ phase 1: workflow


def workflow_round(steps: int, seed: int, restart_budget: float) -> list[str]:
    """Reference + protected soak run with a mid-run server crash."""
    specs = coupled_specs(num_steps=steps, domain=DOMAIN)
    reference = ThreadedWorkflow(specs, "ds").run()

    failures = [
        FailurePlan("analytic", step=max(2, steps // 3 + seed)),
        FailurePlan("simulation", step=max(3, steps // 2 + seed)),
    ]
    # One server dies for good partway through the run; RS(+2) protection
    # must carry every read past it. The op index lands after the first
    # versions are staged but well before the workflow drains.
    server_faults = [FaultPlan(server=1 + seed % 3, op=40, kind="crash")]

    degraded0 = _DEGRADED_READS.value
    restarts0, restart_sum0 = _RESTART_SECONDS.count, _RESTART_SECONDS.total

    run = ThreadedWorkflow(
        specs,
        "uncoordinated",
        failures=failures,
        server_faults=server_faults,
        protection=ProtectionConfig(mode="rs", parity=2),
    ).run()

    problems: list[str] = []
    try:
        run.verify_against(reference)
    except Exception as exc:  # ConsistencyError carries the diverging read
        problems.append(f"read stability violated: {exc}")
    if run.failures_injected != len(failures):
        problems.append(
            f"only {run.failures_injected}/{len(failures)} component failures fired"
        )
    degraded = _DEGRADED_READS.value - degraded0
    if degraded == 0:
        problems.append("no degraded reads: the crash never hit a live read path")
    restarts = _RESTART_SECONDS.count - restarts0
    mean_restart = 0.0
    if restarts == 0:
        problems.append("no workflow_restart recorded despite component failures")
    else:
        mean_restart = (_RESTART_SECONDS.total - restart_sum0) / restarts
        if mean_restart > restart_budget:
            problems.append(
                f"mean workflow_restart {mean_restart:.3f}s exceeds "
                f"budget {restart_budget:.3f}s"
            )
    print(
        f"  workflow seed={seed}: {run.failures_injected} component failures, "
        f"{degraded} degraded reads, {restarts} restarts "
        f"(mean {mean_restart * 1e3:.1f} ms), wall {run.wall_seconds:.2f}s"
    )
    return problems


# ------------------------------------------------------- phase 2: kill+rebuild


def _payload(name_idx: int, version: int) -> np.ndarray:
    rng = np.random.default_rng((name_idx + 1) * 7919 + version)
    return rng.standard_normal(DOMAIN.shape)


def rebuild_round(versions: int, seed: int, rebuild_budget: float) -> list[str]:
    """Crash a server mid-workload, keep reading degraded, rebuild, verify."""
    lost = 1 + seed % 3
    group = StagingGroup.create(
        DOMAIN,
        num_servers=4,
        protection=ProtectionConfig(mode="rs", parity=2),
        retry=RetryPolicy(base_backoff=0.001, max_backoff=0.004),
    )
    # The crash fires on the lost server's Nth op — mid-way through the put
    # stream, so later puts run degraded (shard absorbed by parity).
    from repro.faults.proxy import inject_faults

    injector = inject_faults(group, [FaultPlan(server=lost, op=versions, kind="crash")])
    client = StagingClient(group)
    names = ("u", "v")

    for v in range(versions):
        for i, name in enumerate(names):
            client.put(ObjectDescriptor(name, v, DOMAIN.bbox), _payload(i, v))

    problems: list[str] = []
    if not injector.fired:
        problems.append(f"crash fault on server {lost} never fired (vacuous round)")
    if group.health.state(lost) == "up":
        # The op index missed the put stream entirely; read once to trip it.
        try:
            client.get(ObjectDescriptor(names[0], 0, DOMAIN.bbox))
        except Exception:
            pass

    # Degraded read-stability: every version byte-identical with the server down.
    for v in range(versions):
        for i, name in enumerate(names):
            data = client.get(ObjectDescriptor(name, v, DOMAIN.bbox))
            if not np.array_equal(data, _payload(i, v)):
                problems.append(f"degraded read of {name}@{v} diverged")

    t0 = perf_counter()
    rebuilt = rebuild_server(group, lost)
    dt = perf_counter() - t0
    if dt > rebuild_budget:
        problems.append(
            f"rebuild took {dt:.3f}s, over the {rebuild_budget:.3f}s budget"
        )
    if group.health.state(lost) != "up":
        problems.append(f"server {lost} still {group.health.state(lost)} after rebuild")

    # Post-rebuild read-stability: the repopulated server serves again.
    for v in range(versions):
        for i, name in enumerate(names):
            data = client.get(ObjectDescriptor(name, v, DOMAIN.bbox))
            if not np.array_equal(data, _payload(i, v)):
                problems.append(f"post-rebuild read of {name}@{v} diverged")

    print(
        f"  rebuild seed={seed}: server {lost} crashed and rebuilt "
        f"({rebuilt / 1024:.0f} KiB in {dt * 1e3:.0f} ms), "
        f"{versions * len(names)} versions verified degraded and rebuilt"
    )
    return problems


# ------------------------------------------------------------------------ main


def check_shm_leaks() -> list[str]:
    """Under REPRO_TRANSPORT=shm: close every live transport, then demand
    zero repro segments on /dev/shm. The kill/rebuild rounds are the
    hardest case for segment hygiene — slabs in flight toward a killed
    server must be retired, and the replacement process's attach cache must
    never unlink client-owned segments."""
    if os.environ.get("REPRO_TRANSPORT", "").strip().lower() != "shm":
        return []
    tcp = sys.modules.get("repro.net.tcp")
    if tcp is not None:
        tcp.shutdown_all()
    from repro.net.shm import leaked_segment_names

    leaked = leaked_segment_names()
    if leaked:
        return [f"{len(leaked)} leaked shm segment(s): {', '.join(leaked[:5])}"]
    print("  shm: zero leaked segments at exit")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=32, help="workflow steps")
    parser.add_argument("--rounds", type=int, default=2, help="soak rounds")
    parser.add_argument(
        "--versions", type=int, default=24, help="versions staged per rebuild round"
    )
    parser.add_argument(
        "--restart-budget",
        type=float,
        default=5.0,
        help="max mean workflow_restart seconds (default 5.0)",
    )
    parser.add_argument(
        "--rebuild-budget",
        type=float,
        default=15.0,
        help="max seconds for one server rebuild (default 15.0)",
    )
    args = parser.parse_args()

    print(f"== recovery soak: {args.rounds} round(s) x {args.steps} steps ==")
    problems: list[str] = []
    for seed in range(args.rounds):
        problems += workflow_round(args.steps, seed, args.restart_budget)
        problems += rebuild_round(args.versions, seed, args.rebuild_budget)
    problems += check_shm_leaks()
    if problems:
        print(f"RECOVERY SOAK FAILED: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("recovery soak passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
