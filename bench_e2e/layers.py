"""Per-layer attribution: where the spans go and what is computed from them.

Layers are the repo's packages (runtime, core, staging, corec, net, obs).
``install`` wraps the calls *into* each layer from the harness's process;
``layer_metrics`` turns the recorded spans, this process's ``repro.obs``
registry and the server processes' ``admin:metrics`` snapshots into the
``per_layer`` metrics of BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean, median

import repro.core.interface as _core_interface
import repro.runtime.app as _runtime_app
import repro.runtime.staging_service as _runtime_service
import repro.staging.client as _staging_client
from repro.corec.reedsolomon import RSCode
from repro.staging.server import StagingServer

from bench_e2e.harness import PhaseResult
from bench_e2e.spec import PER_LAYER
from bench_e2e.tracing import SpanRecorder, roots_of, self_times

__all__ = ["install", "layer_metrics"]

_SERVER_SPANS = {
    "put": "staging.server.put",
    "put_many": "staging.server.put",
    "put_blob": "staging.server.put",
    "get": "staging.server.get",
    "get_many": "staging.server.get",
    "get_blob": "staging.server.get",
    "covers": "staging.server.meta",
    "covers_all": "staging.server.meta",
    "query_versions": "staging.server.meta",
    "evict": "staging.server.meta",
    "evict_older_than_version": "staging.server.meta",
    "keep_only_latest": "staging.server.meta",
}

def install(rec: SpanRecorder, staging, chk_store) -> None:
    """Wrap the calls into each layer (this process only; undone by ``rec.restore``)."""
    ws, client, group = staging.staging, staging.staging.client, staging.group
    # runtime: the op spans themselves are opened by the TimingProxy.
    rec.wrap(_runtime_app, "synthetic_field", "runtime.payload_gen")
    rec.wrap(chk_store, "save", "runtime.state_save")
    # core: the WorkflowStaging phases the service drives, and the digest.
    for attr, name in (
        ("validate_put", "core.put_plan"),
        ("suppress_replayed_put", "core.put_plan"),
        ("commit_put", "core.put_commit"),
        ("plan_get", "core.get_plan"),
        ("commit_get", "core.get_commit"),
        ("commit_replayed_get", "core.get_commit"),
        ("handle_check", "core.check"),
        ("handle_restart", "core.restart"),
    ):
        rec.wrap(ws, attr, name)
    rec.wrap(_runtime_service, "payload_digest", "core.digest")
    rec.wrap(_core_interface, "payload_digest", "core.digest")
    # staging: client entry points, resilience, and each call on a server.
    rec.wrap(client, "put", "staging.client.put")
    rec.wrap(client, "get", "staging.client.get")
    rec.wrap(client, "covers", "staging.client.covers")
    rec.wrap(client, "latest_version", "staging.client.covers")
    rec.wrap(_staging_client, "protected_put", "staging.resilience.protect")
    rec.wrap(_staging_client, "read_record", "staging.resilience.read")
    rec.wrap(_staging_client, "rebuild_server", "staging.resilience.rebuild")
    rec.wrap_submit(group.executor)
    if group.transport.remote:
        # One span per round trip; the far side reports through admin:metrics.
        endpoint_cls = type(group.transport.endpoints()[0])
        owner = next(c for c in endpoint_cls.__mro__ if "request" in vars(c))
        rec.wrap(owner, "request", "net.rpc")
    else:
        for attr, name in _SERVER_SPANS.items():
            rec.wrap(StagingServer, attr, name)
    # corec: the two kernels resilience calls.
    rec.wrap(
        RSCode, "encode_parity", "corec.encode", nbytes=lambda a, r: a[1].nbytes
    )
    rec.wrap(
        RSCode, "decode_batch", "corec.decode", nbytes=lambda a, r: sum(a[2])
    )


# --------------------------------------------------------------- computing


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0))


def _hist(snapshot: dict, name: str) -> tuple[int, float]:
    h = snapshot.get(name, {})
    return int(h.get("count", 0)), float(h.get("sum", 0.0))


def _ms(seconds: float, per: float) -> float:
    return 1e3 * seconds / per if per else 0.0


def layer_metrics(
    traced: PhaseResult, untraced: PhaseResult, reference: PhaseResult
) -> dict[str, float]:
    """Every ``per_layer`` metric, from one traced run and its untraced twin."""
    spans = traced.spans
    selfs = self_times(spans)
    roots = roots_of(spans)
    names = {sid: name for sid, _p, name, *_ in spans}

    # (root op, span name) -> [self seconds, total seconds, calls, bytes]
    agg: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for sid, parent, name, t0, t1, size in spans:
        cell = agg[(names.get(roots[sid], "?"), name)]
        cell[0] += selfs[sid]
        cell[1] += t1 - t0
        # A server op that calls another server op (evict loops) is one call.
        if not (name.startswith("staging.server.") and names.get(parent, "") == name):
            cell[2] += 1
        cell[3] += size

    def total(name: str, col: int, root: str | None = None) -> float:
        return sum(v[col] for (r, n), v in agg.items() if n == name and root in (None, r))

    def tree_self(root: str) -> float:
        return sum(v[0] for (r, _n), v in agg.items() if r == root)

    n_put = int(total("runtime.put", 2)) or 1
    n_get = int(total("runtime.get", 2)) or 1
    reg = traced.registry
    remote = bool(traced.servers)

    def merged_hist(name: str) -> tuple[int, float]:
        count, secs = _hist(reg, name)
        for snap in traced.servers:
            c, s = _hist(snap, name)
            count, secs = count + c, secs + s
        return count, secs

    m: dict[str, float] = {}
    # ---- runtime
    m["runtime.put.self_ms"] = _ms(total("runtime.put", 0), n_put)
    m["runtime.get.self_ms"] = _ms(total("runtime.get", 0), n_get)
    m["runtime.check.mean_ms"] = _ms(total("runtime.check", 1), total("runtime.check", 2))
    m["runtime.payload_gen_ms"] = _ms(
        total("runtime.payload_gen", 1), total("runtime.payload_gen", 2)
    )
    m["runtime.state_save_ms"] = _ms(
        total("runtime.state_save", 1), total("runtime.state_save", 2)
    )
    m["runtime.flow_stalls"] = _counter(reg, "staging.service.flow_stall.count")
    # ---- core
    m["core.put_plan_ms"] = _ms(total("core.put_plan", 0, "runtime.put"), n_put)
    m["core.put_commit_ms"] = _ms(total("core.put_commit", 0, "runtime.put"), n_put)
    m["core.digest_ms"] = _ms(total("core.digest", 1), total("core.digest", 2))
    m["core.get_plan_ms"] = _ms(total("core.get_plan", 0, "runtime.get"), n_get)
    m["core.get_commit_ms"] = _ms(total("core.get_commit", 0, "runtime.get"), n_get)
    m["core.check_ms"] = _ms(total("core.check", 1), total("core.check", 2))
    m["core.restart_ms"] = _ms(total("core.restart", 1), total("core.restart", 2))
    m["core.gc.versions_collected"] = _counter(reg, "gc.versions_collected")
    m["core.gc.bytes_freed"] = _counter(reg, "gc.bytes_freed")
    m["core.replay.served_gets"] = _counter(reg, "staging.replay.served_gets")
    m["core.replay.suppressed_puts"] = _counter(reg, "staging.replay.suppressed_puts")
    ref_put = reference.proxy.put_s.after(reference.warm)
    run_put = untraced.proxy.put_s.after(untraced.warm)
    m["core.log_put_ratio"] = median(run_put) / median(ref_put)
    ref_mem = reference.proxy.mem.after(reference.warm)
    run_mem = untraced.proxy.mem.after(untraced.warm)
    m["core.log_mem_ratio"] = fmean(run_mem) / fmean(ref_mem) if ref_mem and run_mem else 0.0
    # ---- staging
    m["staging.client.put_self_ms"] = _ms(total("staging.client.put", 0, "runtime.put"), n_put)
    m["staging.client.get_self_ms"] = _ms(
        total("staging.client.get", 0, "runtime.get")
        + total("staging.client.covers", 0, "runtime.get")
        + total("staging.resilience.read", 0, "runtime.get"),
        n_get,
    )
    if remote:
        m["staging.server.put_ms"] = _ms(merged_hist("staging.server.put.seconds")[1], n_put)
        m["staging.server.get_ms"] = _ms(merged_hist("staging.server.get.seconds")[1], n_get)
        m["staging.server.calls_per_put"] = total("net.rpc", 2, "runtime.put") / n_put
        m["staging.server.calls_per_get"] = total("net.rpc", 2, "runtime.get") / n_get
    else:
        m["staging.server.put_ms"] = _ms(total("staging.server.put", 0), n_put)
        m["staging.server.get_ms"] = _ms(total("staging.server.get", 0), n_get)
        server_spans = set(_SERVER_SPANS.values())
        m["staging.server.calls_per_put"] = (
            sum(total(n, 2, "runtime.put") for n in server_spans) / n_put
        )
        m["staging.server.calls_per_get"] = (
            sum(total(n, 2, "runtime.get") for n in server_spans) / n_get
        )
    m["staging.resilience.protect_self_ms"] = _ms(
        total("staging.resilience.protect", 0, "runtime.put"), n_put
    )
    m["staging.resilience.degraded_reads"] = float(traced.degraded_reads)
    deg_n, deg_s = _hist(reg, "staging.client.degraded_read.seconds")
    m["staging.resilience.degraded_get_ms"] = _ms(deg_s, deg_n)
    rebuilds = traced.proxy.rebuilds
    rebuilt = sum(b for b, _ in rebuilds)
    rebuild_s = sum(s for _, s in rebuilds)
    m["staging.resilience.rebuild_ms"] = _ms(rebuild_s, len(rebuilds))
    m["staging.resilience.rebuild_bytes"] = float(rebuilt)
    m["staging.resilience.rebuild_MBps"] = rebuilt / 1e6 / rebuild_s if rebuild_s else 0.0
    # ---- corec
    enc_s, dec_s = total("corec.encode", 1), total("corec.decode", 1)
    m["corec.encode_ms_per_put"] = _ms(total("corec.encode", 1, "runtime.put"), n_put)
    m["corec.encode_MBps"] = total("corec.encode", 3) / 1e6 / enc_s if enc_s else 0.0
    m["corec.decode_ms_per_get"] = _ms(total("corec.decode", 1, "runtime.get"), n_get)
    m["corec.decode_MBps"] = total("corec.decode", 3) / 1e6 / dec_s if dec_s else 0.0
    m["corec.codewords"] = total("corec.encode", 2) + _counter(reg, "recovery.decode.codewords")
    # ---- net (all zero on inproc: nothing crosses a process boundary)
    rpcs, rpc_s = total("net.rpc", 2), total("net.rpc", 1)
    server_s = (
        merged_hist("staging.server.put.seconds")[1]
        + merged_hist("staging.server.get.seconds")[1]
        if remote
        else 0.0
    )
    m["net.rpc_ms"] = _ms(rpc_s, rpcs)
    m["net.rpc_self_ms"] = _ms(rpc_s - server_s, rpcs)
    m["net.rpcs_per_step"] = _counter(reg, "net.tcp.requests") / traced.n_steps
    wire = _counter(reg, "net.tcp.bytes_sent") + _counter(reg, "net.tcp.bytes_received")
    m["net.bytes_per_step"] = wire / traced.n_steps
    oob = _counter(reg, "net.shm.oob_bytes") + _counter(reg, "net.shm.grant_bytes")
    m["net.shm.oob_bytes_frac"] = oob / (oob + wire) if oob + wire else 0.0
    m["net.shm.wire_fallbacks"] = _counter(reg, "net.shm.wire_fallbacks")
    m["net.mux.coalesced_sends"] = _counter(reg, "net.mux.coalesced_sends")
    m["net.retries"] = _counter(reg, "staging.client.retries")
    m["net.server_busy"] = _counter(reg, "net.mux.server_busy")
    # ---- obs / reconciliation
    m["obs.trace_overhead_frac"] = 1.0 - traced.steps_per_s / untraced.steps_per_s
    # On wire transports the server's own put/get time happens inside the
    # net.rpc span, so the spans already sum it; nothing is added twice.
    e2e_put = fmean(traced.proxy.put_s.values)
    e2e_get = fmean(traced.proxy.get_s.values)
    m["trace.put_residual_frac"] = abs(e2e_put - tree_self("runtime.put") / n_put) / e2e_put
    m["trace.get_residual_frac"] = abs(e2e_get - tree_self("runtime.get") / n_get) / e2e_get
    if list(m) != list(PER_LAYER):
        raise RuntimeError(f"per-layer metrics drifted: {sorted(set(m) ^ set(PER_LAYER))}")
    return m
