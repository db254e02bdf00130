"""Smoke and parity tests of the benchmark itself (``pytest bench_e2e``).

Not part of tier-1: these spawn server processes and take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bench_e2e.compare import spread, verdict
from bench_e2e.spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES
from bench_e2e.workloads import CONSUMER, PRODUCER, WORKLOADS, Schedule, draw_schedule

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench_e2e" / "run.py")]
SMOKE_SCALE = 0.02


def _clean_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    return env


# ------------------------------------------------------------- declarations


def test_benchmark_json_meets_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["command"] == ["python3", "bench_e2e/run.py"] and doc["paths"] == ["bench_e2e"]
    assert isinstance(RUN_SECONDS, int) and 1 <= RUN_SECONDS <= 60
    assert WORKLOAD_NAMES == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = WORKLOAD_NAMES + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names)) and len(PER_LAYER) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [u for u, *_ in list(END_TO_END.values()) + list(PER_LAYER.values())]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert END_TO_END["setup_s"] == ("s", "lower", max(b for _u, _d, b in END_TO_END.values()))


# ---------------------------------------------------------------- schedules


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_schedules_are_seeded_and_balanced(name):
    wl = WORKLOADS[name]
    n = wl.steps
    a, b, again = draw_schedule(wl, n, 1), draw_schedule(wl, n, 2), draw_schedule(wl, n, 1)
    assert a == again
    assert a != b
    assert len(a.failures) == len(b.failures) >= n // wl.failure_interval - 2

    def depths(schedule):
        period = {CONSUMER: wl.analytic_period, PRODUCER: wl.sim_period}
        return Counter((p.component, p.step % period[p.component]) for p in schedule.failures)

    # Seeds move the failures, not the amount of replay they cause.
    assert depths(a) == depths(b)
    assert all(n // 20 <= p.step < n for p in a.failures)
    assert len(a.kills) == (n // wl.kill_cycle if wl.kill_cycle else 0)
    for kill in a.kills:
        assert 0 < kill.crash_step < kill.rebuild_step < n
        assert 1 <= kill.server <= 3


# ------------------------------------------------------------ driver parity


def test_harness_stack_matches_threaded_workflow():
    """Same ObservationLog and ComponentStats as ``ThreadedWorkflow.run()``."""
    from repro.runtime.failures import FailurePlan
    from repro.runtime.workflow import ThreadedWorkflow

    from bench_e2e.harness import run_phase, teardown_leaks

    wl = WORKLOADS["case1-inproc"]
    failures = (FailurePlan(CONSUMER, 22), FailurePlan(PRODUCER, 37))
    ours = run_phase(wl, 60, "uncoordinated", Schedule(failures, ()))
    theirs = ThreadedWorkflow(
        wl.specs(60), "uncoordinated", num_servers=4, failures=list(failures)
    ).run()
    assert ours.problems == []
    assert ours.failures_fired == theirs.failures_injected == 2
    assert ours.observations == theirs.observations
    assert ours.stats == theirs.component_stats
    assert ours.stats[CONSUMER].replayed_gets == 22 % wl.analytic_period
    assert len(ours.proxy.recovery_s) == 2
    assert teardown_leaks() == []


# ------------------------------------------------------------ all workloads


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric(name):
    from bench_e2e.run import run_workload

    record = run_workload(name, seed=1, scale=SMOKE_SCALE, mode="both")
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    assert list(record["metrics"]) == list(END_TO_END) + list(PER_LAYER)
    assert all(math.isfinite(v) for v in record["metrics"].values())
    assert all(record["metrics"][m] > 0 for m in END_TO_END)
    assert record["counts"]["failures_fired"] >= 1
    metrics = record["metrics"]
    wire = WORKLOADS[name].transport != "inproc"
    assert (metrics["net.rpcs_per_step"] > 0) == wire
    assert (metrics["net.rpc_ms"] > 0) == wire
    coded = bool(WORKLOADS[name].rs_parity)
    for m in ("corec.encode_ms_per_put", "corec.codewords",
              "staging.resilience.protect_self_ms", "staging.resilience.degraded_reads",
              "staging.resilience.rebuild_bytes"):
        assert (metrics[m] > 0) == coded, m
    # A dozen ops at this scale; full-size runs reconcile within 0.10.
    assert metrics["trace.put_residual_frac"] <= 0.25
    assert metrics["trace.get_residual_frac"] <= 0.25


def test_counts_repeat_for_a_fixed_seed():
    from bench_e2e.run import run_workload

    first = run_workload("replay-heavy-inproc", seed=7, scale=0.05, mode="e2e")
    second = run_workload("replay-heavy-inproc", seed=7, scale=0.05, mode="e2e")
    assert first["counts"] == second["counts"]
    assert first["counts"]["core.replay.served_gets"] > 0


# ---------------------------------------------------------------- the CLI


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_cli_prints_the_contract_line(tmp_path, trace, expected):
    seconds = str(RUN_SECONDS * SMOKE_SCALE)
    proc = subprocess.run(
        RUN + ["--workload", "smallops-tcp", "--seed", "3", "--seconds", seconds,
               "--trace", str(trace)],
        cwd=tmp_path, env=_clean_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(expected)
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"} and cell["unit"] == expected[name][0]
    # Whatever it wrote (the traced run's spans) is inside the directory it ran in.
    assert {p.name for p in tmp_path.iterdir()} == ({".bench_e2e"} if trace else set())


def test_cli_refuses_repro_knobs(tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "case1-inproc"], cwd=tmp_path,
        env=_clean_env(REPRO_TRANSPORT="tcp"), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "REPRO_TRANSPORT" in proc.stderr and proc.stdout == ""


# ---------------------------------------------------------------- compare


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [v * 1.2 for v in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert spread(steady) < 0.02 < 0.3 < spread(noisy)
    assert verdict(steady, steady, "lower", 0.10) == "unchanged"
    assert verdict(steady, slower, "lower", 0.10) == "regressed"
    assert verdict(steady, slower, "higher", 0.10) == "unchanged"
    assert verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert verdict(noisy, [v / 4 for v in noisy], "lower", 0.10) == "unchanged"
