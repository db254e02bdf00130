"""Client-side staging API: shard puts/gets across servers.

``StagingClient`` is the original (non-logging) DataSpaces-style interface:
``put(desc, array)`` scatters the payload to owning servers, ``get(desc)``
gathers and assembles it. The paper's logging interface in
:mod:`repro.core.interface` layers the event queue on top of this.

A request reaches several servers the same way on every transport:
:meth:`StagingClient.fan_out` issues it to every target server first
(:meth:`StagingClient.begin_all`) and only then collects the replies
(:meth:`StagingClient.settle_all`), each under that server's retry/health
policy. The protected path (:mod:`repro.staging.resilience`) is built from
the same two halves, one round per *stage*: data and parity of a put,
survivors and parity of a degraded read. Only the begin half depends on the
transport:

* **wire transports** (tcp, shm) — every request is on the wire before the
  first reply is awaited, so a logical op costs one round of wire latency
  however many servers it touches, at every payload size.
* **inproc** — calls are plain method calls. A request that moves at least
  ``PARALLEL_THRESHOLD_BYTES`` across two or more servers is submitted to a
  process-wide thread pool, one task per server, serialized only by that
  server's lock (store copies release the GIL inside NumPy). Smaller ones
  are made on the caller's thread as they are settled: for small shards the
  submit overhead exceeds the copy.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import (
    ObjectNotFound,
    ServerUnavailable,
    StagingError,
    TransientServerError,
)
from repro.geometry.bbox import BBox
from repro.geometry.domain import Domain
from repro.net.mux import deadline_scope
from repro.net.transport import InprocTransport, Transport, resolve_transport
from repro.obs import registry as _obs
from repro.staging.hashing import PlacementMap
from repro.staging.resilience import (
    GroupHealth,
    ProtectionConfig,
    ProtectionIndex,
    RetryPolicy,
    protected_put,
    read_record,
    rebuild_server,
)
from repro.staging.server import StagingServer

__all__ = ["StagingClient", "StagingGroup"]

_PUT_COUNT = _obs.counter("staging.client.put.count")
_PUT_FANOUT = _obs.histogram("staging.client.put.shards")
_PUT_SECONDS = _obs.histogram("staging.client.put.seconds")
_GET_COUNT = _obs.counter("staging.client.get.count")
_GET_SECONDS = _obs.histogram("staging.client.get.seconds")
_POOL_TASKS = _obs.counter("staging.pool.tasks")
_POOL_PARALLEL_OPS = _obs.counter("staging.pool.parallel_ops")
_RETRIES = _obs.counter("staging.client.retries")
_BACKOFF_SECONDS = _obs.histogram("staging.client.backoff.seconds")
_DEADLINE_EXCEEDED = _obs.counter("staging.client.deadline_exceeded")

# An inproc request begins on the pool when its payload is at least this
# large; below it, pool submit/wake latency exceeds the shard memcpy.
PARALLEL_THRESHOLD_BYTES = 256 * 1024

# settle_all's default for ``unreachable`` / ``absent``: raise, do not substitute.
_RAISE = object()

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _shared_pool() -> ThreadPoolExecutor:
    """Process-wide shard-I/O pool, created on first parallel request.

    One shared pool (rather than one per group) bounds thread count across
    the many short-lived groups tests and benchmarks create.
    """
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                workers = min(16, (os.cpu_count() or 2) * 2)
                _pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="staging-io"
                )
                _obs.gauge("staging.pool.workers").set(workers)
    return _pool


@dataclass
class StagingGroup:
    """A set of staging servers plus the placement map clients use.

    This is the process-group-level object a workflow creates once and hands
    to every component's client. ``parallel`` gates the shard-I/O pool: the
    inproc begin half of large requests and the per-server snapshot/restore
    fan-out. Wire transports always overlap on the wire.
    """

    domain: Domain
    servers: list[StagingServer]
    placement: PlacementMap
    parallel: bool = field(default=True, compare=False)
    # Resilience state (always present; coding/degraded reads engage only
    # when ``protection`` is set, so the unprotected fast path is untouched).
    protection: ProtectionConfig | None = field(default=None, compare=False)
    retry: RetryPolicy = field(default_factory=RetryPolicy, compare=False)
    health: GroupHealth = field(default=None, compare=False)  # type: ignore[assignment]
    records: ProtectionIndex = field(default_factory=ProtectionIndex, compare=False)
    # Backoff jitter draws; deterministic so retry timing is reproducible.
    jitter_rng: np.random.Generator = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    # How calls reach the servers (see repro.net): inproc method calls by
    # default; a TcpTransport makes ``servers`` remote-process proxies.
    transport: Transport = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.health is None:
            self.health = GroupHealth(len(self.servers))
        if self.jitter_rng is None:
            self.jitter_rng = np.random.default_rng(0xC0DEC)
        if self.transport is None:
            self.transport = InprocTransport()

    @classmethod
    def create(
        cls,
        domain: Domain,
        num_servers: int,
        blocks_per_server: int = 4,
        curve: str = "hilbert",
        parallel: bool | None = None,
        protection: ProtectionConfig | None = None,
        retry: RetryPolicy | None = None,
        down_after: int = 3,
        transport: "Transport | str | None" = None,
    ) -> "StagingGroup":
        """Construct ``num_servers`` empty servers and their placement map.

        ``parallel=None`` (the default) enables pool fan-out only when the
        host has more than one CPU: on a single core, shipping shard memcpy
        to worker threads is pure overhead. Pass True/False to force.

        ``protection`` opts the group's clients into CoREC shard-group
        coding (parity or replication) with verified, degraded-capable
        reads; ``retry``/``down_after`` shape the transient-failure policy.

        ``transport`` selects how clients reach the servers: a
        :class:`~repro.net.transport.Transport` instance, ``"inproc"`` /
        ``"tcp"`` / ``"shm"``, or ``None`` to follow the ``REPRO_TRANSPORT``
        environment variable (default inproc). Wire-transport groups own
        server *processes* — call :meth:`close` (or rely on daemon cleanup
        at exit) when done.
        """
        if parallel is None:
            parallel = (os.cpu_count() or 1) > 1
        placement = PlacementMap(domain, num_servers, blocks_per_server, curve)
        transport_obj = resolve_transport(transport)
        servers = transport_obj.make_servers(num_servers)
        return cls(
            domain=domain,
            servers=servers,
            placement=placement,
            parallel=parallel,
            protection=protection,
            retry=retry if retry is not None else RetryPolicy(),
            health=GroupHealth(num_servers, down_after=down_after),
            transport=transport_obj,
        )

    def close(self) -> None:
        """Release transport resources (server processes/sockets); idempotent.

        A no-op for inproc groups, so existing callers that never close
        remain correct on the default transport.
        """
        self.transport.close()

    def rebuild(self, server_id: int, replacement=None) -> int:
        """Rebuild a lost server's protected contents from survivors and
        swap the (fresh or provided) replacement into the group. Returns
        bytes rebuilt. See :func:`repro.staging.resilience.rebuild_server`.
        """
        return rebuild_server(self, server_id, replacement)

    def drop_protection(self) -> None:
        """Disable protection and forget all records (test/bench helper)."""
        self.protection = None
        self.records = ProtectionIndex()

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The shard-I/O pool this group fans out on."""
        return _shared_pool()

    @property
    def total_bytes(self) -> int:
        """Payload bytes across all servers."""
        return sum(s.nbytes for s in self.servers)

    def bytes_per_server(self) -> list[int]:
        """Per-server payload byte occupancy."""
        return [s.nbytes for s in self.servers]


class StagingClient:
    """Per-component handle for geometric put/get against a StagingGroup."""

    def __init__(self, group: StagingGroup, client_id: str = "client") -> None:
        self.group = group
        self.client_id = client_id

    @staticmethod
    def _by_server(shards: list[tuple[int, BBox]]) -> dict[int, list[BBox]]:
        """Group a shard list by owning server (preserves shard order)."""
        by_server: dict[int, list[BBox]] = {}
        for server_id, sub in shards:
            by_server.setdefault(server_id, []).append(sub)
        return by_server

    def _server_op(self, server_id: int, fn, first=None, check=None):
        """Run one server call under the group's retry/health policy.

        Transient errors retry with capped exponential backoff + jitter
        until the attempt budget or per-call deadline runs out (each
        failure feeds the health state machine). A fail-stop
        :class:`ServerUnavailable` marks the server down immediately — no
        retry can help a crashed server. ``ObjectNotFound`` is a *healthy*
        response (the server answered; the data is absent) and propagates
        untouched, preserving blocking-get wait semantics upstream.

        ``first`` is an already-issued first attempt (see :meth:`begin_all`):
        attempt 1 collects its reply instead of calling ``fn``; a retry
        re-issues through ``fn``, synchronously. ``check(result)`` runs
        inside each attempt and yields the call's value: a
        ``TransientServerError`` it raises (a digest mismatch) burns a retry
        like any other.
        """
        policy = self.group.retry
        health = self.group.health
        deadline = perf_counter() + policy.deadline
        # The same budget, as a wall-clock instant the wire layer stamps
        # into every v2 frame header: a request that expires in a remote
        # server's queue is dropped there (typed DeadlineExceeded, retried
        # below) instead of executing after the caller stopped waiting.
        wall_deadline = time.time() + policy.deadline
        attempt = 1
        while True:
            try:
                if first is not None:
                    pending, first = first, None
                    result = pending.result()
                else:
                    with deadline_scope(wall_deadline):
                        result = fn()
                if check is not None:
                    result = check(result)
            except ServerUnavailable:
                health.mark_down(server_id)
                raise
            except ObjectNotFound:
                health.mark_success(server_id)
                raise
            except TransientServerError:
                health.mark_failure(server_id)
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.backoff_for(attempt, self.group.jitter_rng)
                if perf_counter() + delay > deadline:
                    _DEADLINE_EXCEEDED.inc()
                    raise
                _RETRIES.inc()
                _BACKOFF_SECONDS.record(delay)
                time.sleep(delay)
                attempt += 1
            else:
                health.mark_success(server_id)
                return result

    # -------------------------------------------------------------- fan-out

    def begin_all(
        self, calls: list[tuple[int, str, tuple]], servers=None, nbytes: int = 0
    ) -> list:
        """Issue the first attempt of every ``(server_id, op, args)`` call.

        The result holds one pending call per entry, and whoever takes them
        must settle each one (``result()``) or give it up
        (:meth:`abandon_all`). On a wire transport all of them leave inside
        one ``deadline_scope`` (one shared budget, stamped into every frame).
        Inproc, a request moving ``nbytes`` (at least
        ``PARALLEL_THRESHOLD_BYTES``) in two or more calls on a ``parallel``
        group is submitted to the shard-I/O pool and each pending call is
        its task's future; otherwise every entry is ``None`` and the call is
        made where it is settled. ``servers`` maps ``server_id`` to the
        server to ask where that is not the group's — a rebuild's
        replacement, not yet swapped in.
        """
        servers = servers or self.group.servers
        if not self.group.transport.remote:
            if not (
                self.group.parallel
                and nbytes >= PARALLEL_THRESHOLD_BYTES
                and len(calls) >= 2
            ):
                return [None] * len(calls)
            _POOL_PARALLEL_OPS.inc()
            _POOL_TASKS.inc(len(calls))
            submit = self.group.executor.submit
            return [submit(getattr(servers[sid], op), *args) for sid, op, args in calls]
        pending: list = []
        try:
            with deadline_scope(time.time() + self.group.retry.deadline):
                for server_id, op, args in calls:
                    pending.append(servers[server_id].begin(op, args))
        except BaseException:
            self.abandon_all(pending)
            raise
        return pending

    def attempt(self, call: tuple[int, str, tuple], pending, servers=None):
        """One attempt at ``call``, outside any retry or health policy: the
        reply to the request :meth:`begin_all` issued for it or, where none
        was issued, the call itself (``servers`` as there)."""
        if pending is not None:
            return pending.result()
        server_id, op, args = call
        return getattr((servers or self.group.servers)[server_id], op)(*args)

    @staticmethod
    def abandon_all(pending: list) -> None:
        """Give up on whichever of ``pending`` (from :meth:`begin_all`) are
        still unsettled — the ``finally`` of every loop that settles them.
        A pool task that has not started yet never runs."""
        for call in pending:
            if isinstance(call, Future):
                call.cancel()
            elif call is not None:
                call.abandon()

    def settle_all(
        self, calls, pending, checks=None, unreachable=_RAISE, absent=_RAISE
    ) -> list:
        """The settle half of :meth:`fan_out`: the values of ``calls``, in
        call order; ``pending`` holds their first attempts (:meth:`begin_all`).

        Each call is settled inside its own server's :meth:`_server_op` loop
        (with ``checks[n]``, if given, as call ``n``'s ``check``), so retries,
        mark-down and the healthy ``ObjectNotFound`` behave exactly as for a
        lone call. **Every** reply is consumed before anything is raised: a
        staging error leaves no request in flight, nor any shm slab leased.
        This is the one place that sorts the errors a call can end with:

        * the server stayed unreachable (``ServerUnavailable``, or
          ``TransientServerError`` once its retries ran out): the slot holds
          ``unreachable``, if a value was passed;
        * the server has no such object (``ObjectNotFound``): the slot holds
          ``absent``, likewise;
        * anything else, or one of those with no value to stand in for it,
          is an error, and the first error in call order is raised.
        """
        servers = self.group.servers
        values: list = []
        error: StagingError | None = None
        for n, ((server_id, op, args), first) in enumerate(zip(calls, pending)):
            try:
                value = self._server_op(
                    server_id,
                    partial(getattr(servers[server_id], op), *args),
                    first,
                    checks[n] if checks is not None else None,
                )
            except (ServerUnavailable, TransientServerError) as exc:
                if unreachable is _RAISE:
                    error = error or exc
                value = unreachable
            except ObjectNotFound as exc:
                if absent is _RAISE:
                    error = error or exc
                value = absent
            except StagingError as exc:
                error = error or exc
                value = None
            values.append(value)
        if error is not None:
            raise error
        return values

    def fan_out(
        self,
        calls: list[tuple[int, str, tuple]],
        checks=None,
        unreachable=_RAISE,
        absent=_RAISE,
        retention=(),
        nbytes: int = 0,
    ) -> list:
        """One logical op across servers: the values of ``(server_id, op,
        args)`` calls, in call order.

        Every call is begun before the first is settled (:meth:`begin_all`,
        which ``nbytes``, the payload the op moves, gates on inproc); only
        the waiting overlaps — each call is settled, and the other arguments
        used, as :meth:`settle_all` says. ``retention`` calls
        (:meth:`retention_calls`) join the same round and are settled by
        :meth:`settle_retention`.
        """
        pending = self.begin_all([*calls, *retention], nbytes=nbytes)
        try:
            values = self.settle_all(calls, pending, checks, unreachable, absent)
            self.settle_retention(retention, pending[len(calls) :])
            return values
        finally:
            # A no-op unless something other than a staging error escaped
            # (an interrupt, a bug) and left calls unsettled.
            self.abandon_all(pending)

    # ------------------------------------------------------------ retention
    #
    # Non-logged retention (``retain=(name, floor)``: evict the versions of
    # ``name`` below ``min(floor, latest)``) rides the data calls a put or
    # get already makes — the server applies it after serving, in the same
    # lock hold — and reaches the live servers those calls miss as an
    # ``evict_consumed`` issued alongside them. It never costs a round.

    @staticmethod
    def data_args(first, retain) -> tuple:
        """A ``put_many`` / ``get_many`` argument tuple: ``retain`` is sent
        only when set, so a logged op's frames are unchanged."""
        return (first,) if retain is None else (first, retain)

    def retention_calls(self, retain, reached) -> list[tuple[int, str, tuple]]:
        """``evict_consumed`` calls carrying ``retain`` to every live server
        not in ``reached`` (the servers the op's data calls go to)."""
        if retain is None:
            return []
        health = self.group.health
        return [
            (server.server_id, "evict_consumed", retain)
            for server in self.group.servers
            if server.server_id not in reached and not health.is_down(server.server_id)
        ]

    def settle_retention(self, calls, pending) -> None:
        """Settle :meth:`retention_calls` (``pending`` from :meth:`begin_all`).
        Best effort, one attempt each, no health change: a server that is
        unreachable keeps its consumed versions until a later op reaches it."""
        for call, first in zip(calls, pending):
            try:
                self.attempt(call, first)
            except (ServerUnavailable, TransientServerError):
                continue

    # ------------------------------------------------------------------ put

    def put(self, desc: ObjectDescriptor, data: np.ndarray, retain=None) -> int:
        """Scatter ``data`` (covering ``desc.bbox``) to owning servers,
        applying ``retain`` (see :meth:`retention_calls`) on every live one.

        Returns the number of server shards written.
        """
        t0 = perf_counter()
        data = np.asarray(data)
        shards = self.group.placement.shards(desc.bbox)
        by_server = self._by_server(shards)
        if self.group.protection is not None:
            protected_put(self, desc, data, by_server, retain)
        else:
            self.fan_out(
                [
                    (
                        server_id,
                        "put_many",
                        self.data_args(
                            [
                                (desc.with_bbox(sub), data[sub.slices(desc.bbox)])
                                for sub in boxes
                            ],
                            retain,
                        ),
                    )
                    for server_id, boxes in by_server.items()
                ],
                retention=self.retention_calls(retain, by_server),
                nbytes=int(data.nbytes),
            )
        _PUT_COUNT.inc()
        _PUT_FANOUT.record(len(shards))
        _PUT_SECONDS.record(perf_counter() - t0)
        return len(shards)

    # ------------------------------------------------------------------ get

    def get(self, desc: ObjectDescriptor, retain=None) -> np.ndarray:
        """Gather ``desc.bbox`` from owning servers and assemble it, applying
        ``retain`` (see :meth:`retention_calls`) on every live server once
        the region is served — the floor may reach ``desc.version`` itself.
        A protected group's degraded decode may still need that version's
        parity from servers already answered, so there the caller keeps the
        floor at or below ``desc.version``."""
        t0 = perf_counter()
        shards = self.group.placement.shards(desc.bbox)
        if not shards:
            raise ObjectNotFound(f"{desc}: region outside staged domain")
        out = np.empty(desc.bbox.shape, dtype=np.dtype(desc.dtype))
        if self.group.protection is not None:
            self._protected_get(desc, out, retain)
        else:
            self._gather(desc, out, shards, retain)
        _GET_COUNT.inc()
        _GET_SECONDS.record(perf_counter() - t0)
        return out

    def _gather(
        self,
        desc: ObjectDescriptor,
        out: np.ndarray,
        shards: list[tuple[int, BBox]],
        retain=None,
    ) -> None:
        """Fill ``out`` with ``desc.bbox``, whose ``shards`` these are, in one
        :meth:`fan_out` of ``get_many`` calls; ``retain`` rides them."""
        by_server = self._by_server(shards)
        gathered = self.fan_out(
            [
                (
                    server_id,
                    "get_many",
                    self.data_args([desc.with_bbox(sub) for sub in boxes], retain),
                )
                for server_id, boxes in by_server.items()
            ],
            retention=self.retention_calls(retain, by_server),
            nbytes=int(out.nbytes),
        )
        for boxes, parts in zip(by_server.values(), gathered):
            for sub, part in zip(boxes, parts):
                out[sub.slices(desc.bbox)] = part

    def _protected_get(self, desc: ObjectDescriptor, out: np.ndarray, retain) -> None:
        """Serve a read through protection records (verified, degraded-capable).

        A concurrent protected put registers its record once its last call
        is settled: the data shards land during the first of its two rounds
        (``resilience.protected_put``), the record one round later — the
        parity/copy round, parity digests taken inside it: a millisecond or
        two for a multi-MiB put. A racing read can see the data shards
        (``covers()`` true) inside that window — and if an owner crashes in
        it, the record-less fallback below hits
        a dead server. Rather than surfacing that transient as data loss,
        re-scan the records under the retry policy's backoff/deadline; the
        crash is only terminal once no record appears in time.
        """
        policy = self.group.retry
        deadline = perf_counter() + policy.deadline
        attempt = 1
        while True:
            try:
                self._protected_get_once(desc, out, retain)
                return
            except ServerUnavailable:
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.backoff_for(attempt, self.group.jitter_rng)
                if perf_counter() + delay > deadline:
                    raise
                _RETRIES.inc()
                _BACKOFF_SECONDS.record(delay)
                time.sleep(delay)
                attempt += 1

    def _protected_get_once(
        self, desc: ObjectDescriptor, out: np.ndarray, retain
    ) -> None:
        """One pass of the record scan + direct fallback.

        Regions covered by a put's record are read shard-aligned so every
        shard is digest-checked and lost servers are reconstructed around;
        any leftover region (data written before protection was enabled)
        falls back to the direct geometric path under the retry policy.
        ``retain`` rides the first record's shard round; a read served by
        the fallback alone applies it after, in a round of its own.
        """
        remaining: list[BBox] = [desc.bbox]
        for rec in self.group.records.overlapping(desc):
            read_record(self, rec, desc, out, retain)
            retain = None
            remaining = [
                piece for r in remaining for piece in r.subtract(rec.desc.bbox)
            ]
            if not remaining:
                return
        for region in remaining:
            self._gather(
                desc.with_bbox(region),
                out[region.slices(desc.bbox)],
                self.group.placement.shards(region),
            )
        self.fan_out([], retention=self.retention_calls(retain, ()))

    def covers(self, desc: ObjectDescriptor) -> bool:
        """True when ``desc`` is servable — directly, or degraded via records.

        A crashed or persistently failing server makes its regions
        non-covering (rather than raising), unless a protection record can
        still reconstruct them from survivors. A server the health state
        already has down is never probed: only a rebuild brings it back, not
        a coverage probe that happens to be answered.
        """
        shards = self.group.placement.shards(desc.bbox)
        if not shards:
            return False
        remaining: list[BBox] = [desc.bbox]
        if self.group.protection is not None:
            for rec in self.group.records.overlapping(desc):
                if not rec.readable_with(self.group.health):
                    return False
                remaining = [
                    piece for r in remaining for piece in r.subtract(rec.desc.bbox)
                ]
                if not remaining:
                    return True
        probes: list[tuple[int, str, tuple]] = []
        for region in remaining:
            sub_desc = desc.with_bbox(region)
            for server_id, boxes in self._by_server(
                self.group.placement.shards(region)
            ).items():
                if self.group.health.is_down(server_id):
                    return False
                descs = [sub_desc.with_bbox(sub) for sub in boxes]
                probes.append((server_id, "covers_all", (descs,)))
        return all(self.fan_out(probes, unreachable=False))

    def latest_version(self, name: str) -> int | None:
        """Highest version of ``name`` present on any reachable server.

        Down or unresponsive servers are skipped — with protection on, the
        records index fills in versions whose only live fragments died with
        a server (they are still readable via degraded reads).
        """
        latest: int | None = None
        queries = [
            (server.server_id, "query_versions", (name,))
            for server in self.group.servers
            if not self.group.health.is_down(server.server_id)
        ]
        for versions in self.fan_out(queries, unreachable=None):
            if versions and (latest is None or versions[-1] > latest):
                latest = versions[-1]
        if self.group.protection is not None:
            for v in self.group.records.versions(name):
                if latest is None or v > latest:
                    latest = v
        return latest
