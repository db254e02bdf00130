"""Microbenchmarks for the two hot paths this repo optimises.

Not a paper figure: this measures the implementation itself, as demanded by
the north-star ("as fast as the hardware allows").

* **CoREC coding kernels** — RS encode/decode MB/s for (4,2) and (8,3).
* **Staging data path** — put/get ops/s through the synchronized service at
  1/2/4/8 servers.
  (The seed's kernels and data path are no longer re-implemented and
  re-measured here on every run; their last recorded columns are frozen in
  EXPERIMENTS.md.)
* **Checkpoint snapshot** — capture/restore rate of the coordinated staging
  snapshot at ~10 % churn: the incremental copy-on-write chain (O(mutations)
  per capture) against the seed's full-copy path (O(staged fragments)).
* **Garbage collection** (``bench_gc.py``) — candidate-driven pass latency
  vs logged-state size (flat, O(drained candidates)) against the full
  reference sweep, plus worst-case data-plane latency under the concurrent
  background collector.

Results land in ``BENCH_micro.json`` at the repo root so perf PRs have a
committed before/after record. Run directly::

    PYTHONPATH=src python benchmarks/bench_microbench.py

or via ``scripts/check.sh --bench``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
from time import perf_counter

import numpy as np

from repro.core import WorkflowStaging
from repro.corec.reedsolomon import RSCode
from repro.descriptors import ObjectDescriptor
from repro.geometry import Domain
from repro.obs import registry as _obs
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import StagingGroup

OUT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_micro.json"


def _load_sibling(name: str):
    """Load a sibling benchmark module (works under importlib loading)."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bench_gc() -> dict:
    """GC pass latency + background-collection stalls (see bench_gc.py)."""
    return _load_sibling("bench_gc").bench_gc()


def bench_recovery() -> dict:
    """Recovery-engine throughputs (see bench_recovery.py)."""
    return _load_sibling("bench_recovery").bench_recovery()


def bench_transport() -> dict:
    """Wire-transport put/get + batching (see bench_transport.py)."""
    return _load_sibling("bench_transport").bench_transport()

MB = 1024 * 1024
RS_PAYLOAD_BYTES = 4 * MB
RS_REPS = 3
# 16 KiB float64 payloads: the small-exchange regime where request rate is
# bound by the metadata path (placement, coverage checks, digests) — the
# regime this PR's scan-removal targets. Large payloads are memcpy-bound and
# say nothing about the data-path servicing rate.
STAGING_DOMAIN = Domain((16, 16, 8))
STAGING_OPS = 60
SERVER_COUNTS = (1, 2, 4, 8)
# Snapshot bench: a populated service checkpointed at ~10 % churn. Full-copy
# capture is O(staged fragments); incremental capture is O(mutations since
# the last epoch), so the gap widens with resident state.
SNAPSHOT_SERVERS = 4
SNAPSHOT_VERSIONS = 200
SNAPSHOT_CHURN = 20  # versions mutated between checkpoints (10 %)
SNAPSHOT_REPS = 5


# --------------------------------------------------------------------- timing


def _best_of(reps: int, fn, *args) -> float:
    """Best wall time of ``reps`` runs (1 warmup) — least-noise estimator."""
    fn(*args)
    return min(_timed(fn, *args) for _ in range(reps))


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


# ------------------------------------------------------------------ RS bench


def bench_rs() -> dict:
    rng = np.random.default_rng(42)
    payload = rng.integers(0, 256, size=RS_PAYLOAD_BYTES, dtype=np.uint8)
    results = {}
    for k, m in ((4, 2), (8, 3)):
        code = RSCode(k, m)
        mbytes = payload.nbytes / MB

        t_new = _best_of(RS_REPS, code.encode, payload)

        shards = code.encode(payload)
        # Worst-case decode: the m lost shards are all data shards, so
        # reconstruction needs the full inverse-matrix matmul.
        survivors = shards[m : k + m]
        t_dec = _best_of(RS_REPS, code.decode, survivors, payload.nbytes)
        # Systematic fast path: every data shard survived.
        t_dec_fast = _best_of(RS_REPS, code.decode, shards[:k], payload.nbytes)

        results[f"rs({k},{m})"] = {
            "payload_mb": round(mbytes, 3),
            "encode_MBps": round(mbytes / t_new, 1),
            "decode_worstcase_MBps": round(mbytes / t_dec, 1),
            "decode_fastpath_MBps": round(mbytes / t_dec_fast, 1),
        }
    return results


# ------------------------------------------------------------- staging bench


def _make_service(num_servers: int) -> SynchronizedStaging:
    group = StagingGroup.create(STAGING_DOMAIN, num_servers=num_servers)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.05, max_wait=30.0
    )
    svc.register("sim")
    svc.register("ana")
    svc.declare_coupling("field", "ana")
    return svc


def _drive(svc: SynchronizedStaging, payloads: list[np.ndarray]) -> None:
    """Alternate put/get over fresh versions (the coupling hot loop)."""
    base = getattr(_drive, "_version", 0)
    for i, data in enumerate(payloads):
        desc = ObjectDescriptor("field", base + i, STAGING_DOMAIN.bbox)
        svc.put("sim", desc, data, step=base + i)
        svc.get_blocking("ana", desc, step=base + i)
    _drive._version = base + len(payloads)


def _bench_staging_config(num_servers: int) -> float:
    """Aggregate put+get ops/s for one configuration."""
    svc = _make_service(num_servers)
    rng = np.random.default_rng(7)
    payloads = [rng.standard_normal(STAGING_DOMAIN.shape) for _ in range(STAGING_OPS)]
    _drive._version = 0
    _drive(svc, payloads[:4])  # warmup
    elapsed = _timed(_drive, svc, payloads)
    svc.shutdown()
    return 2 * STAGING_OPS / elapsed


def bench_staging() -> dict:
    return {
        str(n): {
            "payload_kb": int(np.prod(STAGING_DOMAIN.shape)) * 8 // 1024,
            "agg_ops_per_s": round(_bench_staging_config(n), 1),
        }
        for n in SERVER_COUNTS
    }


# ------------------------------------------------------------ snapshot bench


def _populated_service(versions: int) -> SynchronizedStaging:
    # Producer-only (no coupled consumer): retention must keep every staged
    # version resident so capture cost reflects the full state size.
    group = StagingGroup.create(STAGING_DOMAIN, num_servers=SNAPSHOT_SERVERS)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.05, max_wait=30.0
    )
    svc.register("sim")
    rng = np.random.default_rng(3)
    for v in range(versions):
        desc = ObjectDescriptor("field", v, STAGING_DOMAIN.bbox)
        svc.put("sim", desc, rng.standard_normal(STAGING_DOMAIN.shape), step=v)
    return svc


def bench_snapshot() -> dict:
    """Checkpoint capture/restore: full copy vs incremental COW chain."""
    state_mb = SNAPSHOT_VERSIONS * int(np.prod(STAGING_DOMAIN.shape)) * 8 / MB

    # Full-copy path (seed semantics: journaling never enabled).
    svc = _populated_service(SNAPSHOT_VERSIONS)
    t_full = _best_of(SNAPSHOT_REPS, svc.snapshot, True)
    full_snap = svc.snapshot(True)
    t_full_restore = _best_of(SNAPSHOT_REPS, svc.restore, full_snap)
    svc.shutdown()

    # Incremental path: base capture once, then steady-state churn (one new
    # version in, the oldest out — resident state stays constant) + delta
    # capture.
    svc = _populated_service(SNAPSHOT_VERSIONS)
    svc.snapshot()  # base; starts the mutation journals
    rng = np.random.default_rng(5)
    version = SNAPSHOT_VERSIONS
    times = []
    for _ in range(SNAPSHOT_REPS):
        for _ in range(SNAPSHOT_CHURN):
            desc = ObjectDescriptor("field", version, STAGING_DOMAIN.bbox)
            svc.put("sim", desc, rng.standard_normal(STAGING_DOMAIN.shape), step=version)
            oldest = version - SNAPSHOT_VERSIONS
            for srv in svc.group.servers:
                srv.evict("field", oldest)
            version += 1
        times.append(_timed(svc.snapshot))
    t_inc = min(times)
    inc_snap = svc.snapshot()
    t_inc_restore = _best_of(SNAPSHOT_REPS, svc.restore, inc_snap)
    svc.shutdown()

    return {
        f"{SNAPSHOT_CHURN * 100 // SNAPSHOT_VERSIONS}pct_churn": {
            "state_mb": round(state_mb, 2),
            "versions": SNAPSHOT_VERSIONS,
            "churn_versions": SNAPSHOT_CHURN,
            "captures_per_s": round(1.0 / t_inc, 1),
            "full_captures_per_s": round(1.0 / t_full, 1),
            "capture_speedup": round(t_full / t_inc, 2),
            "restores_per_s": round(1.0 / t_inc_restore, 1),
            "full_restores_per_s": round(1.0 / t_full_restore, 1),
        }
    }


# ----------------------------------------------------------------------- main


def main() -> int:
    _obs.reset()
    print("== CoREC coding kernels ==")
    rs = bench_rs()
    for name, row in rs.items():
        print(
            f"  {name}: encode {row['encode_MBps']:.0f} MB/s, "
            f"decode worst {row['decode_worstcase_MBps']:.0f} MB/s, "
            f"fast {row['decode_fastpath_MBps']:.0f} MB/s"
        )
    print("== staging put/get (synchronized service) ==")
    staging = bench_staging()
    for n, row in staging.items():
        print(f"  {n} server(s): {row['agg_ops_per_s']:.0f} ops/s")
    print("== checkpoint snapshot (full copy vs incremental) ==")
    snapshot = bench_snapshot()
    for name, row in snapshot.items():
        print(
            f"  {name} ({row['state_mb']:.1f} MB staged): "
            f"{row['captures_per_s']:.0f} captures/s "
            f"(full copy {row['full_captures_per_s']:.0f}, "
            f"x{row['capture_speedup']:.1f}), "
            f"restore {row['restores_per_s']:.0f}/s"
        )
    print("== garbage collection (candidate-driven vs full sweep) ==")
    gc_results = bench_gc()
    for name, row in gc_results.items():
        if name.endswith("_names"):
            print(
                f"  {row['logged_versions']} logged versions: "
                f"{row['incremental_pass_us']:.0f} us/pass, full sweep "
                f"{row['full_sweep_us']:.0f} us (x{row['full_sweep_speedup']:.0f})"
            )
        else:
            print(
                f"  background stall: p99 {row['put_get_p99_ms']:.2f} ms, "
                f"max {row['put_get_max_ms']:.2f} ms put+get"
            )
    print("== wire transport (inproc vs tcp vs shm, batching) ==")
    transport = bench_transport()
    print(
        f"  inproc {transport['inproc']['agg_ops_per_s']:.0f} ops/s, "
        f"tcp {transport['tcp']['agg_ops_per_s']:.0f} ops/s "
        f"(wire tax x{transport['tcp']['wire_tax_x']:.1f}), "
        f"shm {transport['shm']['agg_ops_per_s']:.0f} ops/s; "
        f"batching x{transport['batching']['batch_speedup']:.1f}, "
        f"{transport['batching']['round_trips_saved_pct']:.0f}% round trips saved"
    )
    print(
        f"  16 MiB payloads: shm {transport['shm_16mb']['mb_per_s']:.0f} MB/s vs "
        f"tcp {transport['tcp_16mb']['mb_per_s']:.0f} MB/s "
        f"(x{transport['shm_16mb']['speedup_vs_tcp_x']:.1f})"
    )
    print("== recovery engine (batched decode, rebuild, restore, restart) ==")
    recovery = bench_recovery()
    dec = next(row for name, row in recovery.items() if name.startswith("decode"))
    print(
        f"  decode batch {dec['batch_MBps']:.0f} MB/s "
        f"(looped {dec['looped_MBps']:.0f}, x{dec['batch_speedup']:.1f}); "
        f"rebuild x{recovery['rebuild']['speedup']:.1f} pipelined; "
        f"restore {recovery['restore']['restores_per_s']:.0f}/s; "
        f"restart {recovery['restart']['restarts_per_s']:.0f}/s"
    )
    out = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "rs_payload_bytes": RS_PAYLOAD_BYTES,
            "staging_domain": list(STAGING_DOMAIN.shape),
            "staging_ops": STAGING_OPS,
            "snapshot_versions": SNAPSHOT_VERSIONS,
            "snapshot_churn": SNAPSHOT_CHURN,
        },
        "rs": rs,
        "staging": staging,
        "snapshot": snapshot,
        "gc": gc_results,
        "recovery": recovery,
        "transport": transport,
    }
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    # Recovery targets are advisory only (wall-clock parallel speedups depend
    # on the host's core count; sustained regressions are the guard's job).
    if dec["decode_vs_encode"] < 0.5:
        print(
            "WARNING: batched decode below half of encode_batch throughput "
            f"(ratio {dec['decode_vs_encode']:.2f})"
        )
    snap_ok = all(row["capture_speedup"] >= 5.0 for row in snapshot.values())
    gc_ok = all(
        row["full_sweep_speedup"] >= 10.0
        for name, row in gc_results.items()
        if name.endswith("_names")
    )
    ok = snap_ok and gc_ok
    if not ok:
        print(
            "WARNING: perf targets missed (>=5x snapshot capture at 10% churn, "
            ">=10x GC pass vs full sweep)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
