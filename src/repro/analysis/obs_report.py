"""Render and persist ``repro.obs`` metrics snapshots.

``metrics_table`` turns a registry snapshot into the same aligned plain-text
format the figure benchmarks print; ``write_snapshot`` persists the raw
JSON (one file per benchmark under ``benchmarks/results/``) so perf PRs can
diff op counts and latency percentiles before/after a change.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.report import banner, format_table
from repro.obs import registry as _default_registry

__all__ = [
    "metrics_table",
    "checkpoint_report",
    "gc_report",
    "recovery_report",
    "net_report",
    "write_snapshot",
]


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    if abs(value) >= 1e-3 or value == 0:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.3e}"


def metrics_table(snapshot: dict[str, dict] | None = None, title: str = "obs metrics") -> str:
    """An aligned table of every counter, gauge, and histogram."""
    if snapshot is None:
        snapshot = _default_registry.snapshot()
    counters = []
    histograms = []
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state.get("type")
        if kind in ("counter", "gauge"):
            counters.append([name, kind, _fmt(state["value"])])
        elif kind == "histogram":
            if state["count"] == 0:
                continue
            histograms.append(
                [
                    name,
                    state["count"],
                    _fmt(state["mean"]),
                    _fmt(state["p50"]),
                    _fmt(state["p95"]),
                    _fmt(state["p99"]),
                    _fmt(state["max"]),
                ]
            )
    parts = [banner(title)]
    if counters:
        parts.append(format_table(["counter/gauge", "type", "value"], counters))
    if histograms:
        parts.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                histograms,
            )
        )
    if not counters and not histograms:
        parts.append("(no metrics recorded)")
    return "\n\n".join(parts)


def checkpoint_report(snapshot: dict[str, dict] | None = None) -> str:
    """A focused section on the ``checkpoint.*`` metrics.

    Summarizes the incremental copy-on-write checkpoint pipeline: how many
    captures were full vs delta, the bytes a delta shipped relative to live
    state (delta ratio), how long capture/compose took, and — the headline
    number — how long the data plane was actually gated (the quiescence
    window, which incremental capture keeps O(mutations), not O(state)).
    Returns an empty string when no checkpoint activity was recorded.
    """
    if snapshot is None:
        snapshot = _default_registry.snapshot()
    section = {
        name: state for name, state in snapshot.items()
        if name.startswith("checkpoint.")
    }
    activity = any(
        state.get("value") or state.get("count") for state in section.values()
    )
    if not section or not activity:
        return ""
    full = section.get("checkpoint.captures.full", {}).get("value", 0)
    incremental = section.get("checkpoint.captures.incremental", {}).get("value", 0)
    delta_bytes = section.get("checkpoint.delta.bytes", {}).get("value", 0)
    rows = [
        ["captures (full / incremental)", f"{int(full)} / {int(incremental)}"],
        ["delta bytes shipped", _fmt(delta_bytes)],
        ["chain length (now)", _fmt(section.get("checkpoint.chain.length", {}).get("value", 0))],
        ["compactions", _fmt(section.get("checkpoint.compactions", {}).get("value", 0))],
    ]
    ratio = section.get("checkpoint.delta.ratio", {})
    if ratio.get("count"):
        rows.append(["delta ratio (mean / p95)", f"{_fmt(ratio['mean'])} / {_fmt(ratio['p95'])}"])
    for label, name in (
        ("gate (quiesce window) s", "checkpoint.gate.seconds"),
        ("capture s", "checkpoint.capture.seconds"),
        ("compose s", "checkpoint.compose.seconds"),
        ("restore s", "checkpoint.restore.seconds"),
        ("workflow_check s", "checkpoint.workflow_check.seconds"),
        ("workflow_restart s", "checkpoint.workflow_restart.seconds"),
    ):
        hist = section.get(name, {})
        if hist.get("count"):
            rows.append(
                [label, f"n={hist['count']} mean={_fmt(hist['mean'])} max={_fmt(hist['max'])}"]
            )
    return "\n\n".join(
        [banner("checkpointing"), format_table(["metric", "value"], rows)]
    )


def gc_report(snapshot: dict[str, dict] | None = None) -> str:
    """A focused section on the ``gc.*`` / ``datalog.evictions.*`` metrics.

    Summarizes the incremental/concurrent collector: pass count and latency
    percentiles (the headline number — flat regardless of logged-state
    size), what the passes reclaimed, how the candidate queue behaved
    (queued vs deferred under budget), the fault path (evictions queued
    pending on transient failures, drained vs written off), and the
    background collector's tick/batch/watermark activity. Returns an empty
    string when no GC activity was recorded.
    """
    if snapshot is None:
        snapshot = _default_registry.snapshot()
    passes = snapshot.get("gc.passes", {}).get("value", 0)
    if not passes:
        return ""

    def val(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    rows = [["passes", _fmt(passes)]]
    lat = snapshot.get("gc.pass.seconds", {})
    if lat.get("count"):
        rows.append(
            [
                "pass latency s (p50 / p95 / p99 / max)",
                f"{_fmt(lat['p50'])} / {_fmt(lat['p95'])} / "
                f"{_fmt(lat['p99'])} / {_fmt(lat['max'])}",
            ]
        )
    rows += [
        ["versions collected", _fmt(val("gc.versions_collected"))],
        ["bytes freed", _fmt(val("gc.bytes_freed"))],
        ["events trimmed", _fmt(val("gc.events_trimmed"))],
        [
            "candidates (queued / deferred)",
            f"{_fmt(val('gc.candidates_queued'))} / "
            f"{_fmt(val('gc.candidates_deferred'))}",
        ],
        [
            "pending evictions (queued / drained / written off)",
            f"{_fmt(val('datalog.evictions.pending_queued'))} / "
            f"{_fmt(val('datalog.evictions.pending_drained'))} / "
            f"{_fmt(val('datalog.evictions.written_off'))}",
        ],
    ]
    if val("gc.bg.ticks") or val("gc.bg.batches"):
        rows.append(
            [
                "background (ticks / batches / watermark trips)",
                f"{_fmt(val('gc.bg.ticks'))} / {_fmt(val('gc.bg.batches'))} / "
                f"{_fmt(val('gc.bg.watermark_trips'))}",
            ]
        )
        if val("gc.bg.errors"):
            rows.append(["background errors", _fmt(val("gc.bg.errors"))])
    return "\n\n".join(
        [banner("garbage collection"), format_table(["metric", "value"], rows)]
    )


def recovery_report(snapshot: dict[str, dict] | None = None) -> str:
    """A focused section on the ``recovery.*`` / rebuild metrics.

    Summarizes the parallel recovery engine end to end: degraded reads
    served while servers were down, server rebuilds (count, bytes, latency,
    plus the batched-decode pipeline's batch/codeword counts and any
    records skipped or failing digest verification), parallel restore
    fan-out, and workflow restart latency.
    Returns an empty string when no recovery activity was recorded.
    """
    if snapshot is None:
        snapshot = _default_registry.snapshot()

    def val(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    restarts = snapshot.get("recovery.workflow_restart.seconds", {})
    activity = (
        val("staging.rebuild.count")
        or val("staging.client.degraded_reads")
        or val("recovery.restore.parallel_servers")
        or restarts.get("count")
    )
    if not activity:
        return ""
    rows = [
        [
            "degraded reads (served / verify failures)",
            f"{_fmt(val('staging.client.degraded_reads'))} / "
            f"{_fmt(val('staging.client.verify_failures'))}",
        ],
        [
            "rebuilds (count / bytes)",
            f"{_fmt(val('staging.rebuild.count'))} / "
            f"{_fmt(val('staging.rebuild.bytes'))}",
        ],
    ]
    reb = snapshot.get("staging.rebuild.seconds", {})
    if reb.get("count"):
        rows.append(
            [
                "rebuild latency s (mean / max)",
                f"{_fmt(reb['mean'])} / {_fmt(reb['max'])}",
            ]
        )
    if val("recovery.rebuild.batches") or val("recovery.decode.codewords"):
        rows.append(
            [
                "decode pipeline (batches / codewords)",
                f"{_fmt(val('recovery.rebuild.batches'))} / "
                f"{_fmt(val('recovery.decode.codewords'))}",
            ]
        )
    skipped = val("staging.rebuild.skipped_records")
    verify = val("staging.rebuild.verify_failures")
    if skipped or verify:
        rows.append(
            [
                "rebuild records skipped / digest failures",
                f"{_fmt(skipped)} / {_fmt(verify)}",
            ]
        )
    if val("recovery.restore.parallel_servers"):
        rows.append(
            ["restore fan-out (server tasks)", _fmt(val("recovery.restore.parallel_servers"))]
        )
    if restarts.get("count"):
        rows.append(
            [
                "workflow restarts s (n / mean / max)",
                f"n={restarts['count']} mean={_fmt(restarts['mean'])} "
                f"max={_fmt(restarts['max'])}",
            ]
        )
    return "\n\n".join(
        [banner("recovery"), format_table(["metric", "value"], rows)]
    )


def net_report(snapshot: dict[str, dict] | None = None) -> str:
    """A focused section on the ``net.*`` wire-transport metrics.

    Summarizes TCP transport activity: requests and round-trip latency,
    bytes moved in each direction, connections opened, server-process
    spawns, pipelined batch sizes, and wire-level failures that were mapped
    into the staging error taxonomy. Empty when no wire transport ran (the
    inproc default produces no ``net.*`` activity).
    """
    if snapshot is None:
        snapshot = _default_registry.snapshot()

    def val(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    requests = snapshot.get("net.tcp.request.seconds", {})
    if not (val("net.tcp.requests") or requests.get("count")):
        return ""
    rows = [
        ["requests", _fmt(val("net.tcp.requests"))],
        [
            "bytes sent / received",
            f"{_fmt(val('net.tcp.bytes_sent'))} / "
            f"{_fmt(val('net.tcp.bytes_received'))}",
        ],
        [
            "connections / server spawns",
            f"{_fmt(val('net.tcp.connects'))} / {_fmt(val('net.tcp.server_spawns'))}",
        ],
    ]
    if requests.get("count"):
        rows.append(
            [
                "round trip s (mean / p99 / max)",
                f"{_fmt(requests['mean'])} / {_fmt(requests.get('p99', 0))} / "
                f"{_fmt(requests['max'])}",
            ]
        )
    if val("net.tcp.wire_errors"):
        rows.append(["wire errors (mapped to staging errors)", _fmt(val("net.tcp.wire_errors"))])
    spawns = snapshot.get("net.tcp.spawn.seconds", {})
    if spawns.get("count"):
        rows.append(
            [
                "server spawn s (mean / max)",
                f"{_fmt(spawns['mean'])} / {_fmt(spawns['max'])}",
            ]
        )
    return "\n\n".join([banner("net"), format_table(["metric", "value"], rows)])


def write_snapshot(path: str | pathlib.Path, snapshot: dict[str, dict] | None = None, extra: dict | None = None) -> dict:
    """Dump the snapshot (plus optional metadata) as JSON; returns it."""
    if snapshot is None:
        snapshot = _default_registry.snapshot()
    doc = {"metrics": snapshot}
    if extra:
        doc.update(extra)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
