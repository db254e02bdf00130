"""The one command: run the workloads, check them, print every metric.

Human use, from the repository root::

    PYTHONPATH=src python -m bench_e2e.run [--workload W] [--seed S] [--traced]
    python -m bench_e2e.run compare A.jsonl B.jsonl
    python -m bench_e2e.run selfcheck [--workload W] [--seed S]

Driver use (BENCHMARK.json): ``python3 bench_e2e/run.py --workload W --seed N
--seconds S --trace 0|1``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in a fresh interpreter of its own process group; the
parent waits for that whole group (server processes, forkserver, resource
tracker) to end before it reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench_e2e: the program under test is missing ({_SRC}/repro); nothing to measure")
for _path in (str(_SRC), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_e2e.spec import RUN_SECONDS  # noqa: E402  (needs the path set above)

OUT_DIR = Path(".bench_e2e")  # relative to the checkout the command runs in
CHILD_TIMEOUT = 170.0  # a run must be over within 180 s

SETUP_MIN_CYCLES = 5
SETUP_MIN_SECONDS = 0.25
SETUP_MAX_CYCLES = 200


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (p in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


# ------------------------------------------------------------ one workload


def _verify(reference, run) -> list[str]:
    """The run's own problems plus read stability against the reference."""
    from repro.core.consistency import verify_read_stability
    from repro.errors import ConsistencyError

    problems = list(run.problems)
    try:
        verify_read_stability(reference.observations, run.observations)
    except ConsistencyError as exc:
        problems.append(f"read stability violated: {exc}")
    return problems


def _counts(run) -> dict[str, int]:
    """The counts that must repeat exactly for a fixed seed."""
    reg = run.registry
    return {
        "ops_attempted": run.ops,
        "core.replay.served_gets": int(reg["staging.replay.served_gets"]["value"]),
        "core.replay.suppressed_puts": int(reg["staging.replay.suppressed_puts"]["value"]),
        "failures_fired": run.failures_fired,
        "kills_fired": run.proxy.crashes_fired,
        "rebuilds_fired": len(run.proxy.rebuilds),
    }


def _e2e_metrics(wl, setup: list[float], reference, run) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``(value, sample count)``."""
    from bench_e2e.workloads import CONSUMER

    warm = run.warm
    put, get = run.proxy.put_s.after(warm), run.proxy.get_s.after(warm)
    check = run.proxy.check_s[CONSUMER].after(warm)
    mem = run.proxy.mem.after(warm)
    recovery = run.proxy.recovery_s
    steps = run.n_steps - warm
    return {
        "setup_s": (median(setup), len(setup)),
        "steps_per_s": (run.steps_per_s, steps),
        "ref_steps_per_s": (reference.steps_per_s, steps),
        "put_p50_ms": (1e3 * median(put), len(put)),
        "put_p90_ms": (1e3 * percentile(put, 90), len(put)),
        "get_p50_ms": (1e3 * median(get), len(get)),
        "get_p90_ms": (1e3 * percentile(get, 90), len(get)),
        "consumer_check_p50_ms": (1e3 * median(check), len(check)),
        "recovery_mean_ms": (1e3 * fmean(recovery), len(recovery)),
        "staged_bytes_ratio": (fmean(mem) / wl.version_bytes, len(mem)),
    }


def _probe_setups(wl) -> list[float]:
    from bench_e2e.harness import probe_setup

    samples: list[float] = []
    t0 = time.perf_counter()
    while len(samples) < SETUP_MAX_CYCLES and (
        len(samples) < SETUP_MIN_CYCLES or time.perf_counter() - t0 < SETUP_MIN_SECONDS
    ):
        samples.append(probe_setup(wl))
    return samples


def run_workload(name: str, seed: int, scale: float, mode: str) -> dict:
    """Run one workload in this process. ``mode``: ``e2e``, ``layers`` or ``both``."""
    import numpy

    from bench_e2e import layers
    from bench_e2e.harness import run_phase, teardown_leaks
    from bench_e2e.workloads import WORKLOADS, Schedule, draw_schedule

    wl = WORKLOADS[name]
    no_faults = Schedule((), ())
    record: dict = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "metrics": {},
        "samples": {},
        "counts": {},
        "problems": [],
    }
    attempted = failed = 0

    if mode in ("e2e", "both"):
        setup = _probe_setups(wl)
        n = wl.steps_at(scale)
        record["steps"] = n
        reference = run_phase(wl, n, "ds", no_faults)
        run = run_phase(wl, n, "uncoordinated", draw_schedule(wl, n, seed))
        record["problems"] += reference.problems + _verify(reference, run)
        for metric, (value, count) in _e2e_metrics(wl, setup, reference, run).items():
            record["metrics"][metric] = value
            record["samples"][metric] = count
        record["counts"] = _counts(run)
        attempted += reference.ops + run.ops
        failed += reference.proxy.op_errors + run.proxy.op_errors

    if mode in ("layers", "both"):
        # The traced run is a quarter of the steps; its untraced twin (same
        # steps, same schedule) is what tracing overhead is measured against.
        n = wl.steps_at(scale / 4)
        record["traced_steps"] = n
        schedule = draw_schedule(wl, n, seed)
        reference = run_phase(wl, n, "ds", no_faults)
        untraced = run_phase(wl, n, "uncoordinated", schedule)
        traced = run_phase(wl, n, "uncoordinated", schedule, trace=layers.install)
        record["problems"] += (
            reference.problems + _verify(reference, untraced) + _verify(reference, traced)
        )
        if _counts(traced) != _counts(untraced):
            record["problems"].append(
                f"traced run counted {_counts(traced)}, untraced {_counts(untraced)}"
            )
        record["metrics"].update(layers.layer_metrics(traced, untraced, reference))
        record["traced_counts"] = _counts(traced)
        phases = (reference, untraced, traced)
        attempted += sum(p.ops for p in phases)
        failed += sum(p.proxy.op_errors for p in phases)
        _write_spans(name, traced.spans)

    record["problems"] += teardown_leaks()
    record["attempted"] = attempted
    # A run that fails any check has no op we can vouch for.
    record["failed"] = attempted if record["problems"] else failed
    return record


def _write_spans(name: str, spans: list[tuple]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}.spans.jsonl", "w") as fh:
        for sid, parent, span, t0, t1, size in spans:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "name": span, "start": t0, "end": t1, "bytes": size}
                )
                + "\n"
            )


# ------------------------------------------------------------------ output


def _units() -> dict[str, str]:
    from bench_e2e.spec import END_TO_END, PER_LAYER

    units = {name: unit for name, (unit, _b, _bound) in END_TO_END.items()}
    units.update({name: unit for name, (unit, _b) in PER_LAYER.items()})
    return units


def print_record(record: dict) -> None:
    """Every metric by name with its unit (and sample count), then the JSON line."""
    units = _units()
    env = record["env"]
    print(
        f"# bench_e2e workload={record['workload']} seed={record['seed']} "
        f"steps={record.get('steps', '-')} traced_steps={record.get('traced_steps', '-')} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
    )
    for key in ("counts", "traced_counts"):
        if record.get(key):
            print(f"# {key}: " + " ".join(f"{k}={v}" for k, v in record[key].items()))
    for name, value in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"{name:<40} {value:>14.6g} {units[name]:<6}" + (f" n={n}" if n else ""))
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")
    print(f"# ops_failed_frac = {record['failed']}/{record['attempted']}")
    print(
        json.dumps(
            {
                "correct": not record["problems"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()
                },
            }
        )
    )


# ------------------------------------------------------- parent / children


def _group_members(pgid: int) -> list[int]:
    """Live processes of process group ``pgid`` (Linux /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _run_child(args: list[str]) -> tuple[int, list[str]]:
    """Run one workload in a fresh interpreter; wait for its whole group."""
    # The repository runs with PYTHONPATH=src; multiprocessing's forkserver
    # only finds its preload module (the warm server image) through it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC), str(_ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env=env,
    )
    out = ""
    try:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass  # killed below; no result line means the run failed
        # The servers, the forkserver and the resource tracker are the
        # child's descendants; they end on their own once it has.
        deadline = time.monotonic() + 5.0
        while _group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        # Also reached when this process is told to stop (SIGTERM, ^C).
        stragglers = _group_members(proc.pid)
        if stragglers:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        if stragglers:
            _unlink_segments_of(proc.pid)
    lines = out.splitlines()
    code = 1 if proc.returncode < 0 else proc.returncode
    if stragglers and code == 0:
        code = 3
        lines = _disown(lines, f"processes outlived the workload: {stragglers}")
    return code, lines


def _unlink_segments_of(pid: int) -> None:
    """Remove the shm segments a killed workload process owned (its pid is in
    their names); a workload that ends by itself unlinks its own."""
    from repro.net.shm import SHM_PREFIX

    for name in os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else ():
        if name.startswith(f"{SHM_PREFIX}{pid:x}-"):
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass


def _disown(lines: list[str], problem: str) -> list[str]:
    """Turn a child's passing result line into a failing one."""
    result = json.loads(lines[-1])
    result["correct"] = False
    result["failed"] = result["attempted"]
    return lines[:-1] + [f"# FAILED: {problem}", json.dumps(result)]


def _child_main(ns) -> int:
    mode = "both" if ns.traced else ("layers" if ns.trace else "e2e")
    record = run_workload(ns.workload, ns.seed, ns.seconds / RUN_SECONDS, mode)
    if ns.out:
        with open(ns.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print_record(record)
    return 1 if record["problems"] else 0


def _selfcheck(ns) -> int:
    """Same seed twice: the counts must repeat exactly."""
    from bench_e2e.workloads import WORKLOADS

    bad = 0
    OUT_DIR.mkdir(exist_ok=True)
    for name in [ns.workload] if ns.workload else list(WORKLOADS):
        counts = []
        for _ in range(2):
            out = OUT_DIR / f"selfcheck-{os.getpid()}.jsonl"
            code, lines = _run_child(
                ["--workload", name, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                 "--out", str(out)]
            )
            if code:
                print("\n".join(lines))
                return code
            counts.append(json.loads(out.read_text().splitlines()[-1])["counts"])
            out.unlink()
        same = counts[0] == counts[1]
        bad += not same
        print(f"{name}: {'counts repeat' if same else 'COUNTS DIFFER'} {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from bench_e2e.compare import main as compare_main

        return compare_main(argv[1:])
    selfcheck = bool(argv) and argv[0] == "selfcheck"
    parser = argparse.ArgumentParser(prog="bench_e2e.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and report the per-layer metrics instead")
    parser.add_argument("--traced", action="store_true",
                        help="report end-to-end and per-layer metrics in one go")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds S..S+R-1")
    parser.add_argument("--out", help="append one JSON record per run (a result set for compare)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv[1:] if selfcheck else argv)

    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        print(f"bench_e2e: refusing to run with {knobs} set: the benchmark "
              "measures the defaults and passes transport= explicitly", file=sys.stderr)
        return 2
    from bench_e2e.workloads import WORKLOADS

    if ns.workload is not None and ns.workload not in WORKLOADS:
        print(f"bench_e2e: unknown workload {ns.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if ns.seconds is None:
        ns.seconds = RUN_SECONDS / 4 if selfcheck else RUN_SECONDS
    if ns.child:
        return _child_main(ns)
    # Stopping the parent must not orphan a workload's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if selfcheck:
        return _selfcheck(ns)

    worst = 0
    for name in [ns.workload] if ns.workload else list(WORKLOADS):
        for seed in range(ns.seed, ns.seed + ns.repeat):
            child = ["--workload", name, "--seed", str(seed), "--seconds", str(ns.seconds),
                     "--trace", str(ns.trace)]
            child += ["--traced"] if ns.traced else []
            child += ["--out", ns.out] if ns.out else []
            code, lines = _run_child(child)
            worst = max(worst, code)
            print("\n".join(lines), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
