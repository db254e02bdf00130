"""Incremental copy-on-write checkpointing for the staging group.

The seed's coordinated checkpoint deep-copies every server's full container
structure on every epoch — O(total fragments) even when almost nothing
changed. This module makes checkpoint capture O(mutations since the last
epoch) instead:

* every mutable staging layer (each server's
  :class:`~repro.staging.store.ObjectStore` and blob side-store, and the
  group :class:`~repro.staging.resilience.ProtectionIndex`) keeps a
  **mutation journal** — one tuple per effective put/evict/clear;
* sealing an epoch detaches those journals in O(1) per layer (a list swap),
  which is the *only* work done under the service's quiescence gate;
* the sealed journals are packaged into a **delta** outside any lock, and
  appended to a chain hanging off a full **base** snapshot;
* restore hands every server (and the protection index) its part of the
  base plus its own sealed journals; the class that recorded a journal is
  the only code that re-applies it (``apply_journal``), through the same
  mutators that wrote it. This module never looks inside a journal.

A full snapshot has one shape — ``servers`` (store with its running
aggregates, blobs), ``frontier``, ``protection``, ``health`` —
whether it is a chain's base, a ``full=True`` capture, a folded chain or
the never-checkpointed empty group.

Chains are bounded: once a chain exceeds ``max_chain`` deltas the checkpointer
folds it into a new base (compaction) outside the gate, so restore cost and
chain memory never creep. When an epoch's journal grows to the same order as
the live state (high churn), sealing falls back to a fresh full capture —
replaying the journal would cost more than re-snapshotting.

All journaled values (fragments, protection records, blob payloads) are
immutable by repo convention, so journals and deltas share them with the
live structures — a delta's memory cost is its container tuples, never
payload bytes.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.errors import StagingError
from repro.obs import registry as _obs
from repro.staging.resilience import GroupHealth, ProtectionIndex
from repro.staging.server import StagingServer

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.staging.client import StagingGroup

__all__ = [
    "COW_FORMAT",
    "StagingCheckpointer",
    "is_cow_snapshot",
    "compose_chain",
    "snapshot_cost_bytes",
    "full_snapshot_bytes",
]

COW_FORMAT = "corec-cow-v1"

_CHAIN_LENGTH = _obs.gauge("checkpoint.chain.length")
_COMPACTIONS = _obs.counter("checkpoint.compactions")
_FULL_CAPTURES = _obs.counter("checkpoint.captures.full")
_DELTA_CAPTURES = _obs.counter("checkpoint.captures.incremental")
_DELTA_BYTES = _obs.counter("checkpoint.delta.bytes")
_DELTA_RATIO = _obs.histogram("checkpoint.delta.ratio")
_COMPOSE_SECONDS = _obs.histogram("checkpoint.compose.seconds")
_RESTORE_FANOUT = _obs.counter("recovery.restore.parallel_servers")


def is_cow_snapshot(snap: dict) -> bool:
    """True when ``snap`` is an incremental (chain) snapshot."""
    return snap.get("format") == COW_FORMAT


def _full_snapshot(server_snaps: list, frontier: dict, records, health) -> dict:
    """The one shape of a full snapshot (see the module docstring)."""
    return {
        "servers": server_snaps,
        "frontier": frontier,
        "protection": records.snapshot(),
        "health": health.snapshot(),
    }


def _pool_of(group):
    """The shard-I/O pool a ``parallel`` multi-server group fans its
    per-server snapshot/restore work out on; ``None`` runs it inline."""
    return group.executor if group.parallel and len(group.servers) > 1 else None


def _per_server(pool, fn, items) -> list:
    """``fn`` over per-server ``items``; the work is independent across
    servers, so a ``pool`` fans it out."""
    if pool is None:
        return [fn(item) for item in items]
    return [fut.result() for fut in [pool.submit(fn, item) for item in items]]


def _restore_chain(servers, records, health, base: dict, deltas, pool=None) -> dict:
    """Bring ``servers`` / ``records`` / ``health`` to ``base + deltas``.

    Each owner restores its part of the base and re-applies its own sealed
    journals. Returns the chain's read frontier.
    """
    if len(base["servers"]) != len(servers):
        raise StagingError(
            f"snapshot covers {len(base['servers'])} servers, group has "
            f"{len(servers)}"
        )

    def restore_server(i: int) -> None:
        servers[i].restore(base["servers"][i], [d["servers"][i] for d in deltas])

    _per_server(pool, restore_server, range(len(servers)))
    records.restore(base["protection"], [d["protection"] for d in deltas])
    health.restore(deltas[-1]["health"] if deltas else base["health"])
    frontier = dict(base["frontier"])
    for d in deltas:
        # Read frontiers only advance within a chain (restores rebase the
        # chain), so replay is a plain per-key overwrite.
        frontier.update(d["frontier"])
    return frontier


def compose_chain(chain: dict) -> dict:
    """Fold ``base + deltas`` into one full snapshot (chain compaction).

    The fold restores the chain into scratch instances of the classes that
    recorded it and snapshots them, so it can never disagree with a live
    restore. It needs no group lock and never mutates the chain it reads
    (older snapshots may still reference the same base/delta objects).
    """
    t0 = perf_counter()
    base = chain["base"]
    servers = [StagingServer(i) for i in range(len(base["servers"]))]
    records = ProtectionIndex()
    health = GroupHealth(len(servers))
    frontier = _restore_chain(servers, records, health, base, chain["deltas"])
    composed = _full_snapshot(
        [s.snapshot() for s in servers], frontier, records, health
    )
    _COMPOSE_SECONDS.record(perf_counter() - t0)
    return composed


# ------------------------------------------------------------ cost helpers


def full_snapshot_bytes(snap: dict) -> int:
    """Payload bytes referenced by a full snapshot."""
    total = 0
    for server in snap["servers"]:
        total += server["store"]["bytes"]
        for bucket in server["blobs"].values():
            total += sum(int(b.nbytes) for b in bucket.values())
    return total


def snapshot_cost_bytes(snap: dict) -> int:
    """Bytes a checkpoint of ``snap`` newly persists.

    For an incremental snapshot that is the latest delta's payload bytes
    (the base and earlier deltas were persisted by earlier checkpoints);
    for a freshly rebased chain or a full snapshot it is the full image.
    """
    if is_cow_snapshot(snap):
        deltas = snap["chain"]["deltas"]
        if deltas:
            return deltas[-1]["nbytes"]
        return full_snapshot_bytes(snap["chain"]["base"])
    return full_snapshot_bytes(snap)


# ------------------------------------------------------------- checkpointer


class StagingCheckpointer:
    """Owns the journal lifecycle and the base + delta chain for one group.

    Locking contract: :meth:`capture_full` and :meth:`seal` must be called
    while the owner holds whatever makes the group quiescent (the service's
    metadata lock + data-plane gate); they do O(state) and O(1) work
    respectively, and so must :meth:`restore`. :meth:`materialize` and
    compaction run on immutable sealed data and need no group locks — the
    owner only has to serialize whole checkpoint/restore operations against
    each other (the service's ``_ckpt_lock``).
    """

    def __init__(self, group: StagingGroup) -> None:
        self.group = group
        # Deltas kept before folding the chain into a new base.
        self.max_chain = 8
        # Seal falls back to a full capture once journal length reaches
        # ratio × live fragments (one journal entry per fragment put): past
        # that point replaying the journal costs as much as re-copying the
        # containers.
        self.full_fallback_ratio = 1.0
        self.epoch = 0
        self.journaling = False
        # Live state diverged from the journal lineage (restore of a
        # ``full=True`` snapshot, server rebuild): the next capture must be
        # full.
        self.dirty = False
        self._base: dict | None = None
        self._deltas: list[dict] = []
        # Journals detached-but-not-yet-freed by a re-base under the gate.
        # A discarded journal may hold the last reference to megabytes of
        # evicted fragment payloads; dropping it is a deallocation cascade
        # that must not run inside the quiescence window. The owner calls
        # :meth:`release_discarded` after reopening the data plane.
        self._discarded: list = []
        # Called (no args) whenever the checkpoint epoch advances. The GC
        # subscribes: an epoch boundary is the retention event after which
        # pre-epoch versions become collectable, so it refreshes candidates.
        # Listeners run under the quiescence gate — they must be O(small).
        self.epoch_listeners: list = []

    def _notify_epoch(self) -> None:
        for listener in self.epoch_listeners:
            listener()

    # ------------------------------------------------------------- queries

    @property
    def chain_length(self) -> int:
        return len(self._deltas)

    def wants_full(self) -> bool:
        """True when the next capture cannot (or should not) be a delta."""
        if not self.journaling or self.dirty or self._base is None:
            return True
        mutations = sum(s.journal_mutation_count() for s in self.group.servers)
        mutations += self.group.records.journal_len()
        if mutations <= 32:
            return False
        fragments = sum(s.store.object_count for s in self.group.servers)
        return mutations >= self.full_fallback_ratio * max(1, fragments)

    def mark_dirty(self) -> None:
        """Invalidate the chain: live state no longer matches the journals."""
        self.dirty = True

    # ------------------------------------------------------------- capture

    def release_discarded(self) -> None:
        """Free journals parked by a re-base; call outside the gate."""
        self._discarded = []

    def _adopt(self, base: dict, deltas) -> None:
        """Make ``base + deltas`` the lineage: every layer's journal restarts
        empty, so the next incremental capture is a delta against it."""
        for server in self.group.servers:
            server.enable_journal()
            self._discarded.append(server.seal_delta())
        self.group.records.enable_journal()
        self._discarded.append(self.group.records.seal_journal())
        # Park the superseded chain too: at high churn the old base holds
        # the last references to every payload evicted since it was
        # captured, and freeing those under the gate stalls the data plane
        # for longer than the capture itself.
        self._discarded.append((self._base, self._deltas))
        self._base = base
        self._deltas = list(deltas)
        self.dirty = False
        self.journaling = True
        _CHAIN_LENGTH.set(len(self._deltas))

    def capture_full(self, frontier: dict, *, start_chain: bool = True) -> dict:
        """Capture a full snapshot (caller holds the gate).

        With ``start_chain`` the chain rebases onto this capture and
        journaling (re)starts, so subsequent captures are deltas against it;
        without it (the ``full=True`` path on a group that never
        checkpointed incrementally) journaling stays off and no
        per-mutation overhead is ever paid.
        """
        group = self.group
        snap = _full_snapshot(
            _per_server(_pool_of(group), lambda s: s.snapshot(), group.servers),
            dict(frontier),
            group.records,
            group.health,
        )
        if start_chain:
            self._adopt(snap, ())
            self.epoch += 1
            self._notify_epoch()
        _FULL_CAPTURES.inc()
        return snap

    def chain_view(self) -> dict:
        """The current chain as an immutable snapshot value."""
        return {
            "format": COW_FORMAT,
            "epoch": self.epoch,
            "chain": {"base": self._base, "deltas": tuple(self._deltas)},
        }

    def seal(self) -> dict:
        """Flip the epoch: detach every layer's journal (caller holds the
        gate). O(1) per layer — this is the entire quiescence-window cost of
        an incremental checkpoint. The caller attaches the frontier delta."""
        sealed_servers = [s.seal_delta() for s in self.group.servers]
        self.epoch += 1
        self._notify_epoch()
        return {
            "epoch": self.epoch,
            "servers": sealed_servers,
            "protection": self.group.records.seal_journal(),
            # Health is a few ints per server; a full copy is cheaper than
            # journaling its transitions.
            "health": self.group.health.snapshot(),
        }

    def materialize(self, sealed: dict) -> dict:
        """Package a sealed epoch into a delta and return the new snapshot.

        Runs outside every group lock and in O(servers), not O(mutations):
        each layer accumulated its journaled byte/mutation totals at record
        time, so packaging only sums per-server counters. Compacts the chain
        first when it is at ``max_chain``, so the returned snapshot always
        carries this epoch as its latest delta and restore cost stays
        bounded.
        """
        nbytes = sum(server["nbytes"] for server in sealed["servers"])
        mutations = sum(server["mutations"] for server in sealed["servers"])
        mutations += len(sealed["protection"]) + len(sealed["frontier"])
        delta = dict(sealed)
        delta["nbytes"] = nbytes
        delta["mutations"] = mutations
        if len(self._deltas) >= self.max_chain:
            # Compaction: fold the chain into a new base (no group locks).
            self._base = compose_chain(
                {"base": self._base, "deltas": tuple(self._deltas)}
            )
            self._deltas = []
            _COMPACTIONS.inc()
        self._deltas.append(delta)
        _DELTA_CAPTURES.inc()
        _DELTA_BYTES.inc(nbytes)
        live_bytes = sum(s.nbytes for s in self.group.servers)
        if live_bytes > 0:
            _DELTA_RATIO.record(nbytes / live_bytes)
        _CHAIN_LENGTH.set(len(self._deltas))
        return self.chain_view()

    # ------------------------------------------------------------- restore

    def empty_snapshot(self) -> dict:
        """The full snapshot of this group had it never stored anything —
        what a rollback before the first checkpoint restores. Health is the
        live one: an empty group says nothing about which servers are up."""
        empty = [StagingServer.empty_snapshot() for _ in self.group.servers]
        return _full_snapshot(empty, {}, ProtectionIndex(), self.group.health)

    def restore(self, snap: dict) -> dict:
        """Turn ``snap`` (chain or full) back into live group state (caller
        holds the gate); returns the read frontier it carries.

        An incremental snapshot's chain becomes the new lineage. A full
        snapshot has no lineage to adopt, so the chain is marked dirty and
        the next capture re-bases.
        """
        group = self.group
        cow = is_cow_snapshot(snap)
        base, deltas = (
            (snap["chain"]["base"], snap["chain"]["deltas"]) if cow else (snap, ())
        )
        pool = _pool_of(group)
        if pool is not None:
            _RESTORE_FANOUT.inc(len(group.servers))
        frontier = _restore_chain(
            group.servers, group.records, group.health, base, deltas, pool
        )
        if cow:
            self._adopt(base, deltas)
            self.epoch = snap["epoch"]
        else:
            self.mark_dirty()
        return frontier
