"""Data Logging Component (paper Figure 8).

Stores, indexes and maintains the logged payload versions flowing through
staging. The underlying :class:`~repro.staging.client.StagingGroup` already
keeps payload fragments; what logging adds is *retention*: the original
DataSpaces keeps only the latest version of each variable, while the logging
component pins every version that some component could still re-read after a
rollback, and accounts for the extra bytes (the quantity plotted in the
paper's Figure 9(c)/(d)).

The log is fully indexed: per-name sorted version lists, per-name byte
totals, and a running logged-bytes total are maintained O(1) at
``record_put``/``evict`` time, so ``logged_versions``/``names``/
``logged_bytes`` never walk the record map. A listener hook (used by the
garbage collector) receives put/get notifications so collection can be
candidate-driven instead of scan-driven.

Eviction is fault-aware: a server that answers with a *transient* error
keeps its fragments on a per-server **pending-eviction queue** and is
retried on later passes or on health recovery — only a confirmed fail-stop
(:class:`~repro.errors.ServerUnavailable`) writes fragments off, because a
crashed server's memory dies with it. Treating a merely slow or flaky
server like a crashed one would leak its fragments forever *and* leave the
version fetchable there after GC reported it freed.

Evictions are issued in batches (:meth:`DataLog.evict_many`, one per GC
pass). On a wire transport every (version, server) request of the batch is
in flight before the first reply is read, and each reply is then classified
on its own exactly as above — a pass costs one round of wire latency, not
one round trip per fragment owner per version.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.errors import ObjectNotFound, ServerUnavailable, TransientServerError
from repro.obs import registry as _obs
from repro.staging.client import StagingClient, StagingGroup

__all__ = ["DataLog", "LogRecord"]

_PUTS = _obs.counter("datalog.puts")
_EVICTIONS = _obs.counter("datalog.evictions")
_PENDING_QUEUED = _obs.counter("datalog.evictions.pending_queued")
_PENDING_DRAINED = _obs.counter("datalog.evictions.pending_drained")
_PENDING_WRITTEN_OFF = _obs.counter("datalog.evictions.written_off")

# Instance ids for per-instance gauges: a module-global gauge would
# aggregate across every live DataLog, so a second workflow (or test)
# corrupts the reading and obs reports disagree with ``logged_bytes()``.
_instance_ids = itertools.count()


@dataclass(frozen=True)
class LogRecord:
    """Retention record for one logged (name, version)."""

    name: str
    version: int
    nbytes: int
    producer: str
    step: int


@dataclass
class DataLog:
    """Version-retention bookkeeping over a staging group.

    The log does not copy payloads — fragments live once in the staging
    servers — it tracks which (name, version) pairs must be retained and
    measures the memory cost of doing so versus latest-only retention.
    """

    group: StagingGroup
    records: dict[tuple[str, int], LogRecord] = field(default_factory=dict)
    # name -> component -> highest version read (the consumer's read frontier)
    consumers: dict[str, dict[str, int]] = field(default_factory=dict)
    # ---- incremental indexes (maintained at record/evict time) ----
    # name -> sorted list of logged versions.
    _versions: dict[str, list[int]] = field(default_factory=dict, repr=False)
    # Running total of pinned bytes.
    _total_bytes: int = field(default=0, repr=False)
    # component -> names it consumes (reverse of ``consumers``); lets a
    # checkpoint advance turn into O(names-this-component-reads) candidates.
    _consumed_by: dict[str, set[str]] = field(default_factory=dict, repr=False)
    # server_id -> {(name, version): nbytes} evictions a transiently-failing
    # server has not yet confirmed.
    _pending_evictions: dict[int, dict[tuple[str, int], int]] = field(
        default_factory=dict, repr=False
    )
    # GC (or any observer) notified of puts/gets/evictions; see attach_listener.
    _listener: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Rebuild indexes when constructed with pre-existing records (tests
        # build DataLog(records=...) occasionally; normal runs start empty).
        if self.records and not self._versions:
            for (name, version), rec in self.records.items():
                insort(self._versions.setdefault(name, []), version)
                self._total_bytes += rec.nbytes
        for name, frontiers in self.consumers.items():
            for comp in frontiers:
                self._consumed_by.setdefault(comp, set()).add(name)
        iid = next(_instance_ids)
        # Per-instance lazy gauges: read at snapshot time from the O(1)
        # running totals, so concurrent DataLog instances never cross-talk.
        _obs.gauge(f"datalog.{iid}.logged_bytes", fn=self.logged_bytes)
        _obs.gauge(f"datalog.{iid}.pending_evictions", fn=self.pending_eviction_count)
        # Called when a server with queued pending evictions recovers; the
        # owner points it at the background collector's wakeup so the queue
        # drains promptly (the drain itself always runs inside a GC pass,
        # under the GC's lock — never on the recovery notification thread).
        self.recovery_waker = None
        # Issues and settles the evictions (see evict_many).
        self._client = StagingClient(self.group, client_id="data-log")
        health = getattr(self.group, "health", None)
        if health is not None:
            health.on_recovered = self._on_server_recovered

    def _on_server_recovered(self, server_id: int) -> None:
        waker = self.recovery_waker
        if waker is not None and self.pending_eviction_count(server_id):
            waker()

    # ------------------------------------------------------------- listener

    def attach_listener(self, listener: object) -> None:
        """Register the GC (or any observer) for put/get notifications.

        The listener may implement ``note_put(name, version)``,
        ``note_get(name, component, version)`` — both optional.
        """
        self._listener = listener

    # --------------------------------------------------------------- record

    def record_put(self, name: str, version: int, nbytes: int, producer: str, step: int) -> LogRecord:
        """Pin a freshly written version in the log."""
        rec = LogRecord(name=name, version=version, nbytes=nbytes, producer=producer, step=step)
        prev = self.records.get((name, version))
        self.records[(name, version)] = rec
        versions = self._versions.setdefault(name, [])
        if prev is None:
            if not versions or version > versions[-1]:
                versions.append(version)  # common case: monotone versions
            else:
                insort(versions, version)
        delta = nbytes - (prev.nbytes if prev is not None else 0)
        self._total_bytes += delta
        _PUTS.inc()
        listener = self._listener
        if listener is not None:
            listener.note_put(name, version)
        return rec

    def register_consumer(self, name: str, component: str) -> None:
        """Declare that ``component`` will read ``name`` before any read
        happens.

        Without the declaration, a producer that writes and checkpoints
        before the consumer's first get would let the GC treat the variable
        as consumerless and collect versions the consumer still needs.
        DataSpaces couplings are declared, so this mirrors reality.
        """
        self.consumers.setdefault(name, {}).setdefault(component, -1)
        self._consumed_by.setdefault(component, set()).add(name)

    def record_get(self, name: str, component: str, version: int) -> None:
        """Note that ``component`` consumed version ``version`` of ``name``.

        The consumer map drives garbage collection: a version may only be
        collected when every consumer's rollback window has moved past it
        *and* the consumer's forward read frontier has passed it (a producer
        running ahead must not have its unread versions collected).
        """
        frontiers = self.consumers.setdefault(name, {})
        frontiers[component] = max(frontiers.get(component, -1), version)
        self._consumed_by.setdefault(component, set()).add(name)
        listener = self._listener
        if listener is not None:
            listener.note_get(name, component, version)

    # ---------------------------------------------------------------- query

    def logged_versions(self, name: str) -> list[int]:
        """Sorted pinned versions of ``name`` (indexed; no record-map scan)."""
        return list(self._versions.get(name, ()))

    def latest_logged(self, name: str) -> int | None:
        """Newest pinned version of ``name`` (O(1))."""
        versions = self._versions.get(name)
        return versions[-1] if versions else None

    def version_count(self, name: str) -> int:
        """Number of pinned versions of ``name`` (O(1))."""
        return len(self._versions.get(name, ()))

    def consumers_of(self, name: str) -> set[str]:
        """Components known to read ``name``."""
        return set(self.consumers.get(name, ()))

    def names_consumed_by(self, component: str) -> set[str]:
        """Variables ``component`` reads (reverse consumer index)."""
        return set(self._consumed_by.get(component, ()))

    def read_frontier(self, name: str, component: str) -> int:
        """Highest version of ``name`` that ``component`` has read (-1: none)."""
        return self.consumers.get(name, {}).get(component, -1)

    def names(self) -> list[str]:
        """Sorted distinct logged variable names (indexed)."""
        return sorted(self._versions)

    def multi_version_names(self) -> list[str]:
        """Names currently pinning more than one version — the only names a
        collection pass could possibly free anything for."""
        return [n for n, vs in self._versions.items() if len(vs) > 1]

    # ---------------------------------------------------------------- evict

    def evict(self, name: str, version: int) -> int:
        """Unpin one (name, version); see :meth:`evict_many`."""
        return self.evict_many([(name, version)])

    def evict_many(self, keys: list[tuple[str, int]]) -> int:
        """Unpin every (name, version) in ``keys`` and drop their fragments
        from every server.

        Returns bytes freed across the group. Raises ObjectNotFound — before
        touching anything — when a version was never logged (GC bookkeeping
        bug guard).

        Fault handling distinguishes failure modes per (server, version):

        * **fail-stop** (:class:`ServerUnavailable`) — the server's memory
          died with it; the fragments are written off (a rebuild starts from
          the protection records, which are dropped below, so nothing gets
          resurrected);
        * **transient** (:class:`TransientServerError`) — the server is
          alive and still *holds* the fragments; they are queued on that
          server's pending-eviction queue and retried by later passes or on
          health recovery. Writing them off here would leak the memory and
          leave the version readable on that server after GC reported it
          collected.
        """
        if not keys:
            return 0
        for key in keys:
            if key not in self.records:
                raise ObjectNotFound(f"{key[0]!r} v{key[1]} not in data log")
        for name, version in keys:
            rec = self.records.pop((name, version))
            versions = self._versions.get(name)
            if versions:
                i = bisect_left(versions, version)
                if i < len(versions) and versions[i] == version:
                    del versions[i]
                if not versions:
                    del self._versions[name]
            self._total_bytes -= rec.nbytes
        health = getattr(self.group, "health", None)
        # Version-major, server-minor: the order servers always saw.
        work = [
            (server.server_id, "evict", key)
            for key in keys
            for server in self.group.servers
        ]
        freed = 0
        begun = self._begin_evictions(work)
        try:
            for call, pending in zip(work, begun):
                sid, _op, key = call
                try:
                    freed += self._client.attempt(call, pending)
                except ServerUnavailable:
                    # Confirmed fail-stop: contents die with the server.
                    if health is not None:
                        health.mark_down(sid)
                    _PENDING_WRITTEN_OFF.inc()
                except TransientServerError:
                    if health is not None:
                        health.mark_failure(sid)
                    queue = self._pending_evictions.setdefault(sid, {})
                    if key not in queue:
                        queue[key] = 0
                        _PENDING_QUEUED.inc()
                else:
                    if health is not None:
                        health.mark_success(sid)
        finally:
            StagingClient.abandon_all(begun)
        for name, version in keys:
            self.group.records.evict(name, version)
            _EVICTIONS.inc()
        return freed

    def _begin_evictions(self, work: list[tuple[int, str, tuple]]) -> list:
        """First attempts of ``work``'s evict calls: issued all at once over
        a wire transport, ``None`` each where calls are direct."""
        transport = getattr(self.group, "transport", None)
        if transport is None or not transport.remote:
            return [None] * len(work)
        return self._client.begin_all(work)

    # ------------------------------------------------- pending-eviction queue

    def pending_eviction_count(self, server_id: int | None = None) -> int:
        """Outstanding unconfirmed fragment evictions (optionally one server)."""
        if server_id is not None:
            return len(self._pending_evictions.get(server_id, ()))
        return sum(len(q) for q in self._pending_evictions.values())

    def pending_evictions(self) -> dict[int, list[tuple[str, int]]]:
        """Snapshot of the per-server pending queues (for reports/tests)."""
        return {
            sid: sorted(queue)
            for sid, queue in self._pending_evictions.items()
            if queue
        }

    def drain_pending_evictions(self, server_id: int | None = None) -> tuple[int, int]:
        """Retry queued fragment evictions; returns (drained, bytes_freed).

        Called by every GC pass and by the health layer when a suspect
        server recovers. Entries succeed (fragments confirmed gone), are
        written off on confirmed fail-stop, or stay queued on another
        transient failure. ``ObjectNotFound``/absent fragments count as
        drained — a rebuilt replacement server never held them.
        """
        if server_id is not None:
            sids = [server_id] if server_id in self._pending_evictions else []
        else:
            sids = [sid for sid, q in self._pending_evictions.items() if q]
        work: list[tuple[int, str, tuple]] = []
        for sid in sids:
            queue = self._pending_evictions.get(sid)
            if not queue:
                continue
            if sid >= len(self.group.servers):
                # Group shrank (test teardown); nothing to ask.
                self._pending_evictions.pop(sid, None)
                continue
            work.extend((sid, "evict", key) for key in queue)
        if not work:
            return 0, 0
        health = getattr(self.group, "health", None)
        drained = 0
        freed = 0
        begun = self._begin_evictions(work)
        try:
            for call, pending in zip(work, begun):
                sid, _op, key = call
                queue = self._pending_evictions.get(sid)
                if not queue:
                    continue  # written off below, earlier in this drain
                try:
                    freed += self._client.attempt(call, pending)
                except ServerUnavailable:
                    # Fail-stop confirmed: write the whole queue off.
                    if health is not None:
                        health.mark_down(sid)
                    _PENDING_WRITTEN_OFF.inc(len(queue))
                    del self._pending_evictions[sid]
                    continue
                except TransientServerError:
                    if health is not None:
                        health.mark_failure(sid)
                    continue
                except ObjectNotFound:
                    pass  # replacement server never held the fragments
                if health is not None:
                    health.mark_success(sid)
                del queue[key]
                drained += 1
                _PENDING_DRAINED.inc()
                if not queue:
                    del self._pending_evictions[sid]
        finally:
            # Requests to a server written off mid-drain are never read.
            StagingClient.abandon_all(begun)
        return drained, freed

    # -------------------------------------------------------------- metrics

    def logged_bytes(self) -> int:
        """Bytes retained by the log (running total; O(1))."""
        return self._total_bytes

    def baseline_bytes(self) -> int:
        """Bytes the *original* staging would retain: latest version only."""
        total = 0
        for name, versions in self._versions.items():
            rec = self.records.get((name, versions[-1]))
            if rec is not None:
                total += rec.nbytes
        return total

    def logging_overhead(self) -> float:
        """Extra memory fraction versus latest-only retention.

        This is the ratio the paper annotates on Figure 9(c)/(d) bars
        (e.g. +81 % for Case 1 at 20 % subset).
        """
        base = self.baseline_bytes()
        # Refresh the logged-vs-baseline gauges off the hot path (baseline
        # is O(names) to compute, so it is only sampled here).
        _obs.gauge("datalog.baseline_bytes").set(base)
        if base == 0:
            return 0.0
        return self.logged_bytes() / base - 1.0
