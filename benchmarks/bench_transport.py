"""Transport microbenchmark: inproc vs TCP vs shm, and what batching buys.

Measurements feeding the ``transport`` section of BENCH_micro.json:

* **put/get throughput per transport** — the same coupling hot loop the
  staging bench drives, over in-process method calls, real sockets, and
  the shared-memory data plane. The tcp/inproc gap is the wire tax
  (framing, codec, syscalls); the shm/tcp gap is what zero-copy segments
  buy. The guard watches every row so protocol regressions (extra copies,
  lost batching, chattier handshakes) show up as throughput drops.
* **large-payload tcp vs shm** — the same loop at a 16 MiB object
  (8 MiB per server shard), where byte movement rather than per-op
  overhead dominates. This is the row the shm transport exists for: it
  must stay ≥3× the TCP rate (the segment path skips both kernel socket
  copies per payload).
* **batched vs per-fragment puts over TCP** — ``put_many`` ships N
  fragments in one request frame; the unbatched loop pays one round trip
  per fragment. Reported with the measured round-trip counts from the
  ``net.tcp.requests`` counter, not an assumption.
* **mux under concurrency** — 8 client threads hammering small ops
  against one server, all sharing the endpoint's **one** socket
  (request-id demux, coalesced ``sendmsg`` writes, out-of-order
  completion). The last comparison against the retired lockstep client
  (1.26× at one socket, 1.01× against eight) is frozen in EXPERIMENTS.md.
  Note the rate is host-shaped: with client and server pinned to a single
  core (the CI container) nothing overlaps.

Run directly::

    PYTHONPATH=src python benchmarks/bench_transport.py

or as part of ``benchmarks/bench_microbench.py``.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

import numpy as np

from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox, Domain
from repro.obs import get_registry
from repro.staging import StagingClient, StagingGroup

DOMAIN = Domain((16, 16, 8))
# Large-payload comparison: 16 MiB objects (8 MiB per server shard) make the
# byte-movement cost dominate per-op overhead — the regime shm targets.
LARGE_DOMAIN = Domain((128, 128, 128))
NUM_SERVERS = 2
OPS = 40  # put+get pairs per timed run
LARGE_OPS = 6
BATCH_FRAGMENTS = 32
BATCH_REPS = 5
FRAG_BOX = BBox((0, 0, 0), (8, 8, 8))
MUX_THREADS = 8
MUX_OPS_PER_THREAD = 60
MUX_BOX = BBox((0, 0, 0), (8, 8, 8))  # 4 KiB ops: the syscall-bound regime


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _request_count() -> int:
    counter = get_registry().get("net.tcp.requests")
    return 0 if counter is None else counter.value


def _drive(client: StagingClient, domain, payloads: list[np.ndarray], base: int) -> None:
    for i, data in enumerate(payloads):
        desc = ObjectDescriptor("field", base + i, domain.bbox)
        client.put(desc, data)
        client.get(desc)


def _bench_put_get(transport: str, domain=DOMAIN, ops: int = OPS) -> float:
    group = StagingGroup.create(domain, num_servers=NUM_SERVERS, transport=transport)
    try:
        client = StagingClient(group, client_id="bench")
        rng = np.random.default_rng(11)
        payloads = [rng.standard_normal(domain.shape) for _ in range(ops)]
        warm = min(4, ops)
        _drive(client, domain, payloads[:warm], base=0)  # warmup: connections, pools
        elapsed = _timed(_drive, client, domain, payloads, ops)
        return 2 * ops / elapsed
    finally:
        group.close()


def _bench_batching() -> dict:
    """Same N fragments to one TCP server: one pipelined frame vs N RPCs."""
    group = StagingGroup.create(DOMAIN, num_servers=1, transport="tcp")
    try:
        server = group.servers[0]
        rng = np.random.default_rng(13)
        payload = rng.standard_normal(FRAG_BOX.shape)

        def shards(base: int) -> list:
            return [
                (ObjectDescriptor("b", base + v, FRAG_BOX), payload)
                for v in range(BATCH_FRAGMENTS)
            ]

        server.put_many(shards(0))  # warmup
        version = BATCH_FRAGMENTS

        t_batched, batched_trips = [], 0
        for _ in range(BATCH_REPS):
            batch = shards(version)
            version += BATCH_FRAGMENTS
            before = _request_count()
            t_batched.append(_timed(server.put_many, batch))
            batched_trips = _request_count() - before

        def put_loop(batch: list) -> None:
            for desc, data in batch:
                server.put(desc, data)

        t_unbatched, unbatched_trips = [], 0
        for _ in range(BATCH_REPS):
            batch = shards(version)
            version += BATCH_FRAGMENTS
            before = _request_count()
            t_unbatched.append(_timed(put_loop, batch))
            unbatched_trips = _request_count() - before

        best_b, best_u = min(t_batched), min(t_unbatched)
        return {
            "fragments": BATCH_FRAGMENTS,
            "batched_frags_per_s": round(BATCH_FRAGMENTS / best_b, 1),
            "unbatched_frags_per_s": round(BATCH_FRAGMENTS / best_u, 1),
            "batch_speedup": round(best_u / best_b, 2),
            "round_trips_batched": batched_trips,
            "round_trips_unbatched": unbatched_trips,
            "round_trips_saved_pct": round(
                100.0 * (unbatched_trips - batched_trips) / max(unbatched_trips, 1), 1
            ),
        }
    finally:
        group.close()


def _mux_drive(group: StagingGroup, desc: ObjectDescriptor, ops: int) -> float:
    """8 threads × ``ops`` gets of one small object; aggregate ops/s."""
    barrier = threading.Barrier(MUX_THREADS + 1)

    def worker(idx: int) -> None:
        client = StagingClient(group, client_id=f"mux-{idx}")
        client.get(desc)  # warm this thread's path
        barrier.wait()
        for _ in range(ops):
            client.get(desc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(MUX_THREADS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    elapsed = perf_counter() - t0
    return MUX_THREADS * ops / elapsed


def _bench_mux() -> dict:
    """Concurrent small-op throughput over one shared socket."""
    group = StagingGroup.create(DOMAIN, num_servers=1, transport="tcp")
    try:
        client = StagingClient(group, client_id="seed")
        desc = ObjectDescriptor("mux", 1, MUX_BOX)
        client.put(desc, np.random.default_rng(17).standard_normal(MUX_BOX.shape))
        rate = _mux_drive(group, desc, MUX_OPS_PER_THREAD)
    finally:
        group.close()
    return {
        "mux_8thread": {
            "threads": MUX_THREADS,
            "sockets_per_endpoint": 1,
            "agg_ops_per_s": round(rate, 1),
        },
    }


def bench_transport() -> dict:
    results = {}
    payload_kb = int(np.prod(DOMAIN.shape)) * 8 // 1024
    inproc = _bench_put_get("inproc")
    tcp = _bench_put_get("tcp")
    shm = _bench_put_get("shm")
    for name, ops in (("inproc", inproc), ("tcp", tcp), ("shm", shm)):
        results[name] = {
            "payload_kb": payload_kb,
            "servers": NUM_SERVERS,
            "agg_ops_per_s": round(ops, 1),
        }
    results["tcp"]["wire_tax_x"] = round(inproc / tcp, 2)
    results["shm"]["wire_tax_x"] = round(inproc / shm, 2)

    payload_mb = int(np.prod(LARGE_DOMAIN.shape)) * 8 / 2**20
    tcp_large = _bench_put_get("tcp", LARGE_DOMAIN, LARGE_OPS)
    shm_large = _bench_put_get("shm", LARGE_DOMAIN, LARGE_OPS)
    for name, ops in (("tcp_16mb", tcp_large), ("shm_16mb", shm_large)):
        results[name] = {
            "payload_mb": round(payload_mb, 1),
            "servers": NUM_SERVERS,
            "agg_ops_per_s": round(ops, 1),
            "mb_per_s": round(ops * payload_mb, 1),
        }
    results["shm_16mb"]["speedup_vs_tcp_x"] = round(shm_large / tcp_large, 2)

    results["batching"] = _bench_batching()
    results.update(_bench_mux())
    return results


def main() -> int:
    results = bench_transport()
    for name in ("inproc", "tcp", "shm"):
        row = results[name]
        extra = (
            f", wire tax x{row['wire_tax_x']:.1f}" if "wire_tax_x" in row else ""
        )
        print(f"  {name}: {row['agg_ops_per_s']:.0f} ops/s{extra}")
    large = results["shm_16mb"]
    print(
        f"  16 MiB payloads: shm {large['mb_per_s']:.0f} MB/s vs "
        f"tcp {results['tcp_16mb']['mb_per_s']:.0f} MB/s "
        f"(x{large['speedup_vs_tcp_x']:.1f})"
    )
    b = results["batching"]
    print(
        f"  batching: {b['batched_frags_per_s']:.0f} frags/s batched "
        f"({b['unbatched_frags_per_s']:.0f} unbatched, x{b['batch_speedup']:.1f}), "
        f"{b['round_trips_batched']} vs {b['round_trips_unbatched']} round trips "
        f"({b['round_trips_saved_pct']:.0f}% saved)"
    )
    mux = results["mux_8thread"]
    print(
        f"  mux ({mux['threads']} threads, 1 socket): "
        f"{mux['agg_ops_per_s']:.0f} ops/s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
