"""Recovery-engine microbenchmarks: restart, replay, rebuild, restore.

Measures the four layers of the recovery engine:

* **decode batching** — ``RSCode.decode_batch`` MB/s over many erased
  codewords vs a per-codeword decode loop, plus ``encode_batch`` on the
  same payloads (the design target: batched decode within 2x of encode
  throughput, since both reduce to one stacked GF(256) matmul).
* **rebuild** — :func:`repro.staging.resilience.rebuild_server` MB/s
  (survivor fetches for batch N+1 overlap decode/store of batch N, matrix
  solves amortised per batch).
* **restore** — rolling a populated synchronized service back to an
  incremental CoW snapshot with the per-server fan-out vs on a group
  created with ``parallel=False``.
* **restart** — ``workflow_restart`` + full drain of the replay script
  (one cursor, recorded order).

Results feed the ``recovery`` section of ``BENCH_micro.json`` (via
``bench_microbench.py``) and the advisory bench guard. Run directly::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

from repro.core import WorkflowStaging
from repro.corec.reedsolomon import RSCode
from repro.descriptors import ObjectDescriptor
from repro.geometry import Domain
from repro.runtime.staging_service import SynchronizedStaging
from repro.staging import (
    ProtectionConfig,
    RetryPolicy,
    StagingClient,
    StagingGroup,
)
from repro.staging.resilience import rebuild_server

MB = 1024 * 1024

# Decode batch: many small codewords (the realistic rebuild shape — one
# codeword per record, thousands of records), worst-case (all-data)
# erasures. Small payloads make the per-codeword solve overhead visible;
# large payloads are matmul-bound and batching is already amortised.
DECODE_K, DECODE_M = 4, 2
DECODE_CODEWORDS = 512
DECODE_PAYLOAD_BYTES = 8 * 1024
DECODE_REPS = 3

# Rebuild: one protected variable, many small records (several batches) —
# the shape where per-record matrix solves dominate and batching pays.
REBUILD_DOMAIN = Domain((16, 16, 8))  # 16 KiB per version
REBUILD_VERSIONS = 96
REBUILD_BATCH = 16
REBUILD_REPS = 3

# Restore: a populated logged service rolled back to an incremental delta.
RESTORE_DOMAIN = Domain((16, 16, 8))
RESTORE_VERSIONS = 96
RESTORE_CHURN = 12
RESTORE_REPS = 5

# Restart: replay-script build + drain over many logged get events.
RESTART_NAMES = tuple(f"var{i}" for i in range(8))
RESTART_VERSIONS = 40
RESTART_REPS = 5


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _best_of(reps: int, fn, *args) -> float:
    fn(*args)  # warmup
    return min(_timed(fn, *args) for _ in range(reps))


# ------------------------------------------------------------- decode batching


def bench_decode() -> dict:
    code = RSCode(DECODE_K, DECODE_M)
    rng = np.random.default_rng(11)
    payloads = [
        rng.integers(0, 256, size=DECODE_PAYLOAD_BYTES, dtype=np.uint8)
        for _ in range(DECODE_CODEWORDS)
    ]
    mbytes = DECODE_CODEWORDS * DECODE_PAYLOAD_BYTES / MB

    t_enc = _best_of(DECODE_REPS, code.encode_batch, payloads)

    # Worst-case erasures (m *data* shards lost -> full inverse matmul),
    # with the lost pair rotating so the batch spans several patterns.
    codewords = []
    for i, shards in enumerate(code.encode_batch(payloads)):
        lost = {i % DECODE_K, (i + 1) % DECODE_K}
        codewords.append([s for s in shards if s.index not in lost])
    lens = [p.nbytes for p in payloads]

    t_batch = _best_of(DECODE_REPS, code.decode_batch, codewords, lens)

    def looped() -> None:
        for cw, n in zip(codewords, lens):
            code.decode(cw, n)

    t_loop = _best_of(DECODE_REPS, looped)

    return {
        f"decode({DECODE_K},{DECODE_M})": {
            "codewords": DECODE_CODEWORDS,
            "payload_kb": DECODE_PAYLOAD_BYTES // 1024,
            "batch_MBps": round(mbytes / t_batch, 1),
            "looped_MBps": round(mbytes / t_loop, 1),
            "batch_speedup": round(t_loop / t_batch, 2),
            "encode_batch_MBps": round(mbytes / t_enc, 1),
            "decode_vs_encode": round(t_enc / t_batch, 2),
        }
    }


# --------------------------------------------------------------------- rebuild


def _protected_group() -> tuple[StagingGroup, int]:
    group = StagingGroup.create(
        REBUILD_DOMAIN,
        num_servers=4,
        protection=ProtectionConfig(mode="rs", parity=2),
        retry=RetryPolicy(base_backoff=0.001, max_backoff=0.004),
    )
    client = StagingClient(group)
    rng = np.random.default_rng(13)
    for v in range(REBUILD_VERSIONS):
        desc = ObjectDescriptor("field", v, REBUILD_DOMAIN.bbox)
        client.put(desc, rng.standard_normal(REBUILD_DOMAIN.shape))
    (rec,) = group.records.for_key("field", 0)
    return group, rec.shards[0].server


def bench_rebuild() -> dict:
    best, rebuilt = None, 0
    for _ in range(REBUILD_REPS):
        group, lost = _protected_group()  # fresh group per rep
        t0 = perf_counter()
        rebuilt = rebuild_server(group, lost, batch_size=REBUILD_BATCH)
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return {
        "rebuild": {
            "records": REBUILD_VERSIONS,
            "rebuilt_mb": round(rebuilt / MB, 2),
            "pipelined_MBps": round(rebuilt / MB / best, 1),
        }
    }


# --------------------------------------------------------------------- restore


def _service_with_delta(parallel: bool) -> tuple[SynchronizedStaging, dict]:
    # Producer-only logged service: retention keeps every version resident.
    group = StagingGroup.create(RESTORE_DOMAIN, num_servers=4, parallel=parallel)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True), poll_timeout=0.05, max_wait=30.0
    )
    svc.register("sim")
    rng = np.random.default_rng(17)

    def put(v: int) -> None:
        desc = ObjectDescriptor("field", v, RESTORE_DOMAIN.bbox)
        svc.put("sim", desc, rng.standard_normal(RESTORE_DOMAIN.shape), step=v)

    for v in range(RESTORE_VERSIONS):
        put(v)
    svc.snapshot()  # base capture; starts the mutation journals
    for v in range(RESTORE_VERSIONS, RESTORE_VERSIONS + RESTORE_CHURN):
        put(v)
    return svc, svc.snapshot()


def bench_restore() -> dict:
    out = {}
    for key, parallel in (("serial_restores_per_s", False), ("restores_per_s", True)):
        svc, snap = _service_with_delta(parallel)
        t = _best_of(RESTORE_REPS, svc.restore, snap)
        svc.shutdown()
        out[key] = round(1.0 / t, 1)
    return {
        "restore": {
            "versions": RESTORE_VERSIONS + RESTORE_CHURN,
            "servers": 4,
            **out,
            "speedup": round(
                out["restores_per_s"] / out["serial_restores_per_s"], 2
            ),
        }
    }


# --------------------------------------------------------------------- restart


def bench_restart() -> dict:
    group = StagingGroup.create(RESTORE_DOMAIN, num_servers=4)
    svc = SynchronizedStaging(
        WorkflowStaging(group, enable_logging=True),
        poll_timeout=0.05,
        max_wait=30.0,
        max_ahead=RESTART_VERSIONS + 1,
    )
    svc.register("sim")
    svc.register("ana")
    for name in RESTART_NAMES:
        svc.declare_coupling(name, "ana")
    rng = np.random.default_rng(19)
    for v in range(RESTART_VERSIONS):
        for name in RESTART_NAMES:
            desc = ObjectDescriptor(name, v, RESTORE_DOMAIN.bbox)
            svc.put("sim", desc, rng.standard_normal(RESTORE_DOMAIN.shape), step=v)
            svc.get_blocking("ana", desc, step=v)

    def restart_and_drain() -> None:
        script = svc.workflow_restart("ana", 0)
        while not script.exhausted:
            script.advance()

    events = len(svc.workflow_restart("ana", 0).events)
    t = _best_of(RESTART_REPS, restart_and_drain)
    svc.shutdown()
    return {"restart": {"events": events, "restarts_per_s": round(1.0 / t, 1)}}


# ------------------------------------------------------------------------ main


def bench_recovery() -> dict:
    out = {}
    out.update(bench_decode())
    out.update(bench_rebuild())
    out.update(bench_restore())
    out.update(bench_restart())
    return out


def main() -> int:
    results = bench_recovery()
    dec = results[f"decode({DECODE_K},{DECODE_M})"]
    print(
        f"decode({DECODE_K},{DECODE_M}) x{dec['codewords']}: "
        f"batch {dec['batch_MBps']:.0f} MB/s "
        f"(looped {dec['looped_MBps']:.0f}, x{dec['batch_speedup']:.1f}); "
        f"encode_batch {dec['encode_batch_MBps']:.0f} MB/s "
        f"(decode/encode {dec['decode_vs_encode']:.2f})"
    )
    reb = results["rebuild"]
    print(
        f"rebuild {reb['records']} records ({reb['rebuilt_mb']:.1f} MB): "
        f"pipelined {reb['pipelined_MBps']:.0f} MB/s"
    )
    res = results["restore"]
    print(
        f"restore {res['versions']} versions over {res['servers']} servers: "
        f"{res['restores_per_s']:.1f}/s "
        f"(serial {res['serial_restores_per_s']:.1f}, x{res['speedup']:.1f})"
    )
    rst = results["restart"]
    print(f"restart+drain {rst['events']} events: {rst['restarts_per_s']:.1f}/s")
    # Advisory targets (never a hard failure: the sustained checks live in
    # the bench guard, and wall-clock parallel speedups depend on cores).
    if dec["decode_vs_encode"] < 0.5:
        print(
            "WARNING: batched decode fell below half of encode_batch "
            f"throughput (ratio {dec['decode_vs_encode']:.2f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
