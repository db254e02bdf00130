"""The CI pipeline definition is itself under test: a malformed workflow
fails silently on the forge, so parse it here where a human sees it."""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CI_PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    return yaml.safe_load(CI_PATH.read_text())


class TestWorkflowShape:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "lint",
            "tests",
            "kernels",
            "transport",
            "bench-guard",
            "bench-e2e-smoke",
            "nightly-soak",
        }

    def test_triggers_cover_push_and_pr(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_nightly_cron_trigger(self, workflow):
        triggers = workflow.get("on", workflow.get(True))
        crons = [e["cron"] for e in triggers["schedule"]]
        assert crons, "a schedule trigger drives the nightly soak lane"
        for cron in crons:
            assert len(cron.split()) == 5

    def test_python_matrix_versions(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_matrix_job_runs_fast_lane_via_check_sh(self, workflow):
        runs = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
        assert any("check.sh --fast" in r for r in runs)

    def test_full_lane_measures_coverage_with_floor(self, workflow):
        runs = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
        full = [r for r in runs if "--cov=repro" in r]
        assert full, "the 3.12 full-suite lane measures coverage"
        assert any("--cov-fail-under=" in r for r in full)

    def test_bench_guard_is_advisory(self, workflow):
        assert workflow["jobs"]["bench-guard"]["continue-on-error"] is True

    def test_bench_guard_uploads_artifacts(self, workflow):
        steps = workflow["jobs"]["bench-guard"]["steps"]
        runs = " ".join(s.get("run", "") for s in steps)
        assert "--json" in runs and "--obs" in runs
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads, "bench deltas + obs snapshot ship as artifacts"
        paths = uploads[0]["with"]["path"]
        assert "BENCH_micro.json" in paths
        assert "obs_snapshot.json" in paths

    def test_bench_e2e_smoke_is_advisory_and_runs_the_resilience_workload(self, workflow):
        job = workflow["jobs"]["bench-e2e-smoke"]
        assert job["continue-on-error"] is True
        runs = [s.get("run", "") for s in job["steps"]]
        assert any("pytest bench_e2e" in r for r in runs)
        assert any("bench_e2e.run selfcheck --workload rs-shm-kill" in r for r in runs)

    def test_transport_job_is_a_tcp_shm_matrix(self, workflow):
        job = workflow["jobs"]["transport"]
        assert job["strategy"]["matrix"]["transport"] == ["tcp", "shm"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "--transport ${{ matrix.transport }}" in runs
        assert "tests/net" in runs
        assert "tests/staging" in runs
        assert "tests/faults" in runs
        # The shm leg must fail if any segment survives the suite.
        assert "/dev/shm/repro-shm-" in runs
        # Coordinated rollback of stores and blobs together runs over the
        # wire too.
        assert "tests/runtime/test_rollback_index.py" in runs
        # The coordinated scheme (the one runtime user of snapshot/restore)
        # and the recovery differentials run over the wire too.
        assert "tests/runtime/test_workflow_schemes.py" in runs
        assert "tests/runtime/test_parallel_recovery.py" in runs

    def test_transport_solo_step_list_is_pinned(self, workflow):
        """What runs over the wire is a reviewed list: ``tests/core`` is an
        inproc suite except for the three files whose evictions now overlap
        on the wire."""
        steps = workflow["jobs"]["transport"]["steps"]
        solo = next(s for s in steps if "solo" in s.get("if", ""))
        assert [a for a in solo["run"].split() if a.startswith("tests/")] == [
            "tests/net",
            "tests/staging",
            "tests/faults",
            "tests/core/test_data_log.py",
            "tests/core/test_garbage.py",
            "tests/core/test_gc_incremental.py",
            "tests/runtime/test_parallel_staging.py",
            "tests/runtime/test_degraded_service.py",
            "tests/runtime/test_rollback_index.py",
            "tests/runtime/test_workflow_schemes.py",
            "tests/runtime/test_parallel_recovery.py",
        ]

    def test_transport_solo_step_runs_the_retention_fold_suites(self, workflow):
        """Non-logged retention rides the put/get frames, so its suites run
        over tcp and shm — reached through their directories in the list."""
        steps = workflow["jobs"]["transport"]["steps"]
        solo = next(s for s in steps if "solo" in s.get("if", ""))
        args = [a for a in solo["run"].split() if a.startswith("tests/")]
        for suite in (
            "tests/staging/test_retention_fold.py",
            "tests/faults/test_retention_faults.py",
        ):
            assert (REPO_ROOT / suite).is_file()
            assert any(suite == a or suite.startswith(a + "/") for a in args)

    def test_nightly_soak_is_schedule_gated_and_runs_both_transports(self, workflow):
        job = workflow["jobs"]["nightly-soak"]
        assert "schedule" in job["if"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "REPRO_TRANSPORT=tcp" in runs
        assert "REPRO_TRANSPORT=shm" in runs
        assert "soak_gc.py" in runs and "soak_recovery.py" in runs
        # The nightly budget must exceed the per-PR kernels-job defaults
        # (soak_gc --steps 40, soak_recovery --steps 32).
        assert "--steps 120" in runs
        assert "--steps 48" in runs
        assert "/dev/shm/repro-shm-" in runs

    def test_kernel_job_covers_corec_and_fault_matrix(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["kernels"]["steps"])
        assert "tests/corec" in runs
        assert "tests/faults" in runs

    def test_setup_python_uses_pip_cache(self, workflow):
        for job in workflow["jobs"].values():
            setup = [
                s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
            ]
            assert setup, "every job pins a python version"
            assert all(s["with"].get("cache") == "pip" for s in setup)


class TestCheckScript:
    def test_flags_documented_in_usage(self):
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        for flag in ("--fast", "--bench", "--bench-guard", "--transport"):
            assert flag in text

    def test_transport_runs_reap_stranded_servers(self):
        """The wire lanes trap INT/TERM/EXIT and kill each step's process
        group, so a cancelled CI job cannot strand server processes; the
        shm lane additionally unlinks leaked segments."""
        text = (REPO_ROOT / "scripts" / "check.sh").read_text()
        assert "trap cleanup INT TERM EXIT" in text
        assert "CHILD_PGID" in text
        assert "/dev/shm/repro-shm-*" in text

    def test_dev_extra_pins_ci_tools(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "dev = [" in text
        assert "ruff" in text
        assert "pytest-cov" in text


class TestKnobCensus:
    """Every ``REPRO_*`` variable is a configuration the matrix has to
    cover; the set is pinned so a new one is a reviewed decision."""

    KNOBS = {"REPRO_TRANSPORT", "REPRO_SHM_POOL_BYTES"}

    def test_src_reads_exactly_the_two_deployment_settings(self):
        found = set()
        for path in (REPO_ROOT / "src").rglob("*.py"):
            found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert found == self.KNOBS

    def test_readme_knob_table_lists_exactly_those(self):
        readme = (REPO_ROOT / "README.md").read_text()
        rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, flags=re.M)
        assert sorted(rows) == sorted(self.KNOBS)
        # ... and nothing the README mentions anywhere is a retired knob.
        assert set(re.findall(r"REPRO_[A-Z_]+", readme)) == self.KNOBS

    def test_ci_sets_no_retired_knob(self):
        assert set(re.findall(r"REPRO_[A-Z_]+", CI_PATH.read_text())) <= self.KNOBS


class TestParallelCensus:
    """``parallel`` is one switch, on the group: no layer above or beside it
    keeps a serial twin of its own, and the pool's size gate is a module
    constant rather than a per-group setting."""

    def test_parallel_is_a_parameter_of_the_group_only(self):
        from repro.runtime.staging_service import SynchronizedStaging
        from repro.runtime.workflow import ThreadedWorkflow
        from repro.staging.client import StagingGroup
        from repro.staging.cow import StagingCheckpointer
        from repro.staging.resilience import rebuild_server

        assert "parallel" in inspect.signature(StagingGroup.create).parameters
        for fn in (
            SynchronizedStaging.__init__,
            ThreadedWorkflow.__init__,
            rebuild_server,
            StagingGroup.rebuild,
            StagingCheckpointer.capture_full,
            StagingCheckpointer.restore,
        ):
            assert "parallel" not in inspect.signature(fn).parameters, fn.__qualname__

    def test_pool_threshold_is_not_a_group_field(self):
        from repro.staging.client import StagingGroup

        assert "parallel_threshold" not in {f.name for f in dataclasses.fields(StagingGroup)}


class TestWireCensus:
    """One request shape on the wire: every frame is a single request issued
    by ``_Endpoint.request``, and a transport only decides where payload
    bytes go (the shm endpoint overrides the placement hook, not the
    request path). The retired batch frame has no sender, encoder or
    metric left."""

    def test_shm_endpoint_issues_no_requests_of_its_own(self):
        from repro.net.shm import _ShmEndpoint
        from repro.net.tcp import RemoteServer, _Endpoint

        assert "request" in vars(_Endpoint)
        for name in ("request", "request_batch"):
            assert name not in vars(_ShmEndpoint), name
        assert not hasattr(_Endpoint, "request_batch")
        assert not hasattr(RemoteServer, "pipeline")

    def test_batch_frame_is_gone(self):
        from repro.net import protocol

        for name in ("encode_batch_iov", "batch_item_result"):
            assert not hasattr(protocol, name), name
        src = REPO_ROOT / "src"
        mentions = [
            p.relative_to(REPO_ROOT)
            for p in src.rglob("*.py")
            if "net.tcp.batch.size" in p.read_text()
        ]
        assert mentions == []
