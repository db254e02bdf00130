"""Staging-area resilience: protection records, health, degraded reads.

This module makes the *live* staging data path survive server loss, the
property the paper delegates to CoREC ("data staging can contain data
resilience mechanism such as data replication or erasure coding"). The unit
of protection is one put's **shard group**: the per-server sub-payloads the
placement map scatters a write into. For a put that lands on ``k`` servers:

* ``rs`` mode treats the ``k`` per-server payloads (padded to a common
  length) as the data shards of a systematic RS(k, m) codeword and stores
  the ``m`` parity shards on ``m`` *other* servers;
* ``replication`` mode stores full copies of each per-server payload on
  other servers.

A :class:`PutRecord` remembers the geometry (which boxes each shard holds,
in which order), per-shard digests, and where parity/copies live, so a later
get can (a) verify every shard it reads against its digest (catching silent
corruption) and (b) reconstruct the shards of lost servers from survivors —
a **degraded read** returning byte-identical data with no workflow rollback,
as long as the number of lost servers does not exceed the protection level.
Beyond that level, reads raise :class:`~repro.errors.StagingDegradedError`.

Records live in the group's :class:`ProtectionIndex` and are snapshot/
restored alongside the servers by the synchronized service, and evicted
alongside fragments by the data log and retention paths — so the index never
points at payloads that rolled back or were collected.

Server health is tracked per group (:class:`GroupHealth`): a fail-stop
:class:`~repro.errors.ServerUnavailable` marks a server ``down``
immediately, repeated transient failures walk it through ``suspect`` to
``down``, and clients route around down servers instead of burning their
retry budget on them. :func:`rebuild_server` repopulates a replacement
server from survivors (reconstructing data shards, recomputing parity).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.corec.reedsolomon import RSCode, Shard
from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import (
    ConfigError,
    DecodingError,
    ObjectNotFound,
    StagingDegradedError,
    TransientServerError,
)
from repro.geometry.bbox import BBox
from repro.obs import registry as _obs
from repro.obs.profile import timed

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (client imports us)
    from repro.staging.client import StagingClient, StagingGroup

__all__ = [
    "ProtectionConfig",
    "RetryPolicy",
    "GroupHealth",
    "ShardInfo",
    "ParityInfo",
    "PutRecord",
    "ProtectionIndex",
    "rebuild_server",
]

_DEGRADED_READS = _obs.counter("staging.client.degraded_reads")
_DEGRADED_READ_SECONDS = _obs.histogram("staging.client.degraded_read.seconds")
_DEGRADED_PUTS = _obs.counter("staging.client.degraded_puts")
_VERIFY_FAILURES = _obs.counter("staging.client.verify_failures")
_PROTECTED_PUTS = _obs.counter("staging.protect.puts")
_PARITY_BYTES = _obs.counter("staging.protect.parity_bytes")
_HEALTH_TRANSITIONS = _obs.counter("staging.health.transitions")
_REBUILDS = _obs.counter("staging.rebuild.count")
_REBUILD_BYTES = _obs.counter("staging.rebuild.bytes")
_REBUILD_SECONDS = _obs.histogram("staging.rebuild.seconds")
# Where a rebuild's time goes: a replacement server, survivor reads (on pool
# threads when pipelined, so these may overlap the other two), matrix solves,
# digest checks + writes to the replacement.
_REBUILD_PROVISION_SECONDS = _obs.histogram("staging.rebuild.provision.seconds")
_REBUILD_FETCH_SECONDS = _obs.histogram("staging.rebuild.fetch.seconds")
_REBUILD_DECODE_SECONDS = _obs.histogram("staging.rebuild.decode.seconds")
_REBUILD_STORE_SECONDS = _obs.histogram("staging.rebuild.store.seconds")
_REBUILD_SKIPPED = _obs.counter("staging.rebuild.skipped_records")
_REBUILD_VERIFY_FAILURES = _obs.counter("staging.rebuild.verify_failures")
_REBUILD_BATCHES = _obs.counter("recovery.rebuild.batches")
_DECODE_BATCH_CODEWORDS = _obs.counter("recovery.decode.codewords")


def _digest(buf: np.ndarray | bytes) -> str:
    """Payload digest for shard verification (blake2b, 12-byte)."""
    if isinstance(buf, np.ndarray):
        buf = np.ascontiguousarray(buf)
    return hashlib.blake2b(buf, digest_size=12).hexdigest()


# ------------------------------------------------------------- configuration


@dataclass(frozen=True)
class ProtectionConfig:
    """How the client protects each put's shard group.

    Parameters
    ----------
    mode:
        ``"rs"`` — RS(k, ``parity``) erasure coding over the per-server
        shards; ``"replication"`` — ``replicas`` full copies of each shard.
    parity:
        Parity shard count m; the put tolerates losing any m of its servers.
    replicas:
        Extra full copies per shard in replication mode.
    verify_reads:
        Digest-check every shard read against the put-time digest. Catches
        silent corruption (a mismatching shard is treated as an erasure and
        reconstructed); reads are then served shard-aligned through the
        protection records rather than the raw geometric fast path.
    """

    mode: str = "rs"
    parity: int = 2
    replicas: int = 1
    verify_reads: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("rs", "replication"):
            raise ConfigError(f"protection mode must be rs|replication, got {self.mode!r}")
        if self.mode == "rs" and self.parity < 1:
            raise ConfigError(f"rs protection needs parity >= 1, got {self.parity}")
        if self.mode == "replication" and self.replicas < 1:
            raise ConfigError(f"replication needs replicas >= 1, got {self.replicas}")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for transient server errors.

    ``deadline`` bounds one logical client call (all attempts plus backoff):
    no new attempt starts once it would overrun the deadline, so a flaky or
    slow server cannot stall a get indefinitely.
    """

    max_attempts: int = 4
    base_backoff: float = 0.005
    max_backoff: float = 0.1
    jitter: float = 0.5
    deadline: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ConfigError("need 0 <= base_backoff <= max_backoff")
        if not 0 <= self.jitter <= 1:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {self.deadline}")

    def backoff_for(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        raw = min(self.max_backoff, self.base_backoff * (2.0 ** (attempt - 1)))
        if rng is None or self.jitter <= 0:
            return raw
        return raw * (1.0 + self.jitter * float(rng.random()))


# ------------------------------------------------------------------- health

UP = "up"
SUSPECT = "suspect"
DOWN = "down"


class GroupHealth:
    """Per-server health state machine: up -> suspect -> down.

    A fail-stop :class:`ServerUnavailable` downs a server immediately;
    transient failures accumulate (``suspect`` after the first, ``down``
    after ``down_after`` consecutive ones); any success resets to ``up``.
    Down servers are routed around until :func:`rebuild_server` resets them.
    """

    def __init__(self, num_servers: int, down_after: int = 3) -> None:
        if down_after < 1:
            raise ConfigError(f"down_after must be >= 1, got {down_after}")
        self.down_after = down_after
        self._lock = threading.Lock()
        self._states = [UP] * num_servers
        self._failures = [0] * num_servers
        # Optional hook fired (outside the lock) when a server transitions
        # from suspect/down back to up — e.g. the data log drains that
        # server's pending-eviction queue on recovery.
        self.on_recovered: "callable | None" = None

    def state(self, server_id: int) -> str:
        return self._states[server_id]

    def is_down(self, server_id: int) -> bool:
        return self._states[server_id] == DOWN

    def mark_success(self, server_id: int) -> None:
        # Fast path: a healthy server stays healthy without taking the lock
        # (hot-path call; a racy read costs at most one redundant transition).
        if self._states[server_id] == UP and not self._failures[server_id]:
            return
        with self._lock:
            recovered = self._states[server_id] != UP
            if recovered:
                _HEALTH_TRANSITIONS.inc()
            self._states[server_id] = UP
            self._failures[server_id] = 0
        if recovered and self.on_recovered is not None:
            self.on_recovered(server_id)

    def mark_failure(self, server_id: int) -> None:
        """Record one transient failure; may demote to suspect or down."""
        with self._lock:
            self._failures[server_id] += 1
            if self._states[server_id] == DOWN:
                return
            nxt = DOWN if self._failures[server_id] >= self.down_after else SUSPECT
            if nxt != self._states[server_id]:
                _HEALTH_TRANSITIONS.inc()
                self._states[server_id] = nxt

    def mark_down(self, server_id: int) -> None:
        """Fail-stop: the server is gone until rebuilt."""
        with self._lock:
            if self._states[server_id] != DOWN:
                _HEALTH_TRANSITIONS.inc()
            self._states[server_id] = DOWN

    def reset(self, server_id: int) -> None:
        """A rebuilt/replaced server starts healthy."""
        with self._lock:
            recovered = self._states[server_id] != UP
            if recovered:
                _HEALTH_TRANSITIONS.inc()
            self._states[server_id] = UP
            self._failures[server_id] = 0
        if recovered and self.on_recovered is not None:
            self.on_recovered(server_id)

    def alive(self) -> list[int]:
        return [i for i, s in enumerate(self._states) if s != DOWN]

    def down_servers(self) -> list[int]:
        return [i for i, s in enumerate(self._states) if s == DOWN]

    def snapshot(self) -> dict:
        with self._lock:
            return {"states": list(self._states), "failures": list(self._failures)}

    def restore(self, snap: dict) -> None:
        with self._lock:
            self._states = list(snap["states"])
            self._failures = list(snap["failures"])


# ------------------------------------------------------------------ records


@dataclass(frozen=True)
class ShardInfo:
    """One data shard of a protected put: owner, geometry, size, digest."""

    server: int
    boxes: tuple[BBox, ...]
    nbytes: int
    digest: str


@dataclass(frozen=True)
class ParityInfo:
    """One placed parity shard: its codeword group, row j, and holder."""

    group: int
    j: int
    server: int
    digest: str


@dataclass(frozen=True)
class PutRecord:
    """Everything needed to verify and reconstruct one protected put.

    RS mode codes the data shards in *placement subgroups* (``groups``): a
    put spanning all servers leaves no distinct server for parity, so the
    shards are partitioned into runs of at most ``num_servers - m``, each an
    independent RS(len(run), m) codeword whose parity lives on servers
    *outside* the run. Losing any m servers then costs each codeword at most
    m shards — every subgroup stays decodable.
    """

    record_id: str
    desc: ObjectDescriptor
    mode: str  # "rs" | "replication"
    parity_count: int  # m each codeword was built with (rs mode)
    shard_len: int  # padded shard byte length
    shards: tuple[ShardInfo, ...]  # data shards, in placement order
    groups: tuple[tuple[int, ...], ...] = ()  # rs: shard indices per codeword
    parity: tuple[ParityInfo, ...] = ()  # rs: placed parity (may be < m per group)
    copies: tuple[tuple[int, ...], ...] = ()  # replication: per-shard copy holders

    @property
    def key(self) -> tuple[str, int]:
        return (self.desc.name, self.desc.version)

    def parity_blob_key(self, group: int, j: int) -> str:
        return f"{self.record_id}#g{group}p{j}"

    def copy_blob_key(self, i: int) -> str:
        return f"{self.record_id}#s{i}"

    def group_of(self, shard: int) -> int:
        for gi, members in enumerate(self.groups):
            if shard in members:
                return gi
        raise KeyError(shard)

    def readable_with(self, health: GroupHealth) -> bool:
        """Health-based estimate: can this record still be served?"""
        if self.mode == "rs":
            for gi, members in enumerate(self.groups):
                alive = sum(
                    1 for i in members if not health.is_down(self.shards[i].server)
                )
                alive += sum(
                    1
                    for p in self.parity
                    if p.group == gi and not health.is_down(p.server)
                )
                if alive < len(members):
                    return False
            return True
        return all(
            not health.is_down(s.server)
            or any(not health.is_down(c) for c in self.copies[i])
            for i, s in enumerate(self.shards)
        )


def record_id_for(desc: ObjectDescriptor) -> str:
    """Deterministic identity of one put's protection record."""
    return f"{desc.name}@v{desc.version}:{desc.bbox}"


class ProtectionIndex:
    """Thread-safe (name, version) -> {record_id: PutRecord} map."""

    def __init__(self) -> None:
        # Reentrant: restore and apply_journal call the mutators under it.
        self._lock = threading.RLock()
        self._records: dict[tuple[str, int], dict[str, PutRecord]] = {}
        # Mutation journal for incremental checkpointing; None = off. Same
        # seal-in-O(1) contract as ObjectStore._journal.
        self._journal: list[tuple] | None = None

    # ----------------------------------------------------------- journaling

    def enable_journal(self) -> None:
        """Start recording mutations (idempotent)."""
        with self._lock:
            if self._journal is None:
                self._journal = []

    def disable_journal(self) -> None:
        """Stop recording mutations and drop any pending journal."""
        with self._lock:
            self._journal = None

    def journal_len(self) -> int:
        """Mutations recorded since the last seal."""
        with self._lock:
            return len(self._journal) if self._journal is not None else 0

    def seal_journal(self) -> list[tuple]:
        """Detach and return the mutations since the last seal; O(1)."""
        with self._lock:
            sealed = self._journal if self._journal is not None else []
            self._journal = []
            return sealed

    def apply_journal(self, journal: list[tuple]) -> None:
        """Re-apply a sealed journal through the mutators that recorded it."""
        with self._lock:
            for mut in journal:
                if mut[0] == "add":
                    self.add(mut[1])
                else:
                    self.evict(*mut[1])

    def add(self, rec: PutRecord) -> None:
        with self._lock:
            self._records.setdefault(rec.key, {})[rec.record_id] = rec
            if self._journal is not None:
                self._journal.append(("add", rec))

    def overlapping(self, desc: ObjectDescriptor) -> list[PutRecord]:
        """Records of (name, version) whose bbox intersects ``desc.bbox``."""
        with self._lock:
            recs = self._records.get(desc.key)
            if not recs:
                return []
            return [r for r in recs.values() if r.desc.bbox.intersects(desc.bbox)]

    def for_key(self, name: str, version: int) -> list[PutRecord]:
        with self._lock:
            return list(self._records.get((name, version), {}).values())

    def all_records(self) -> list[PutRecord]:
        with self._lock:
            return [r for recs in self._records.values() for r in recs.values()]

    def versions(self, name: str) -> list[int]:
        with self._lock:
            return sorted(v for (n, v) in self._records if n == name)

    def evict(self, name: str, version: int) -> int:
        """Drop all records of (name, version); returns the count dropped."""
        with self._lock:
            recs = self._records.pop((name, version), None)
            if recs and self._journal is not None:
                self._journal.append(("evict", (name, version)))
            return len(recs) if recs else 0

    def evict_older_than(self, name: str, version: int) -> int:
        """Drop records of ``name`` strictly below ``version``."""
        with self._lock:
            doomed = [(n, v) for (n, v) in self._records if n == name and v < version]
            return sum(self.evict(n, v) for n, v in doomed)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(r) for r in self._records.values())

    def snapshot(self) -> dict:
        """Records are frozen; snapshotting copies only the containers."""
        with self._lock:
            return {"records": {k: dict(v) for k, v in self._records.items()}}

    def restore(self, snap: dict, journals=()) -> None:
        """Roll back to ``snap`` plus the sealed ``journals`` that followed
        it; an open journal restarts empty (same contract as the store's)."""
        with self._lock:
            journaling = self._journal is not None
            self._journal = None
            self._records = {k: dict(v) for k, v in snap["records"].items()}
            for journal in journals:
                self.apply_journal(journal)
            if journaling:
                self._journal = []


# ------------------------------------------------------------ protected put


def _as_bytes(part: np.ndarray) -> np.ndarray:
    """Flatten one sub-box payload to a 1-D uint8 view (contiguous)."""
    return np.ascontiguousarray(part).reshape(-1).view(np.uint8)


def _shard_buffer(desc: ObjectDescriptor, data: np.ndarray, boxes) -> np.ndarray:
    """Concatenated bytes of one server's sub-boxes, in box order."""
    chunks = [_as_bytes(data[b.slices(desc.bbox)]) for b in boxes]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _padded(buf: np.ndarray, shard_len: int) -> np.ndarray:
    if buf.size == shard_len:
        return buf
    out = np.zeros(shard_len, dtype=np.uint8)
    out[: buf.size] = buf
    return out


def _codeword(bufs, members, shard_len: int) -> np.ndarray:
    """Data shards ``members`` as the zero-padded rows of one codeword."""
    mat = np.zeros((len(members), shard_len), dtype=np.uint8)
    for row, i in enumerate(members):
        mat[row, : bufs[i].size] = bufs[i]
    return mat


def _parity_candidates(group: "StagingGroup", data_servers: list[int]):
    """Live non-owner servers in deterministic rotation order — an iterator,
    so each is judged (down servers are skipped) at the moment it is drawn."""
    n = len(group.servers)
    start = (max(data_servers) + 1) % n
    for s in ((start + i) % n for i in range(n)):
        if s not in data_servers and not group.health.is_down(s):
            yield s


def _blob_families(cfg, record_id: str, owners: list[int], bufs, shard_len: int, groups):
    """Each codeword's parity rows (rs) or each shard's copies (replication)
    as ``(owners, [(tag, blob key, payload), ...])``: one family's blobs go
    to distinct non-owner holders."""
    if cfg.mode == "replication":
        return [
            ([owners[i]], [(i, f"{record_id}#s{i}", buf)] * cfg.replicas)
            for i, buf in enumerate(bufs)
        ]
    families = []
    for gi, members in enumerate(groups):
        mat = _codeword(bufs, members, shard_len)
        rows = RSCode(len(members), cfg.parity).encode_parity(mat)
        families.append((
            [owners[i] for i in members],
            [((gi, j), f"{record_id}#g{gi}p{j}", rows[j]) for j in range(cfg.parity)],
        ))
    return families


def protected_put(
    client: "StagingClient",
    desc: ObjectDescriptor,
    data: np.ndarray,
    by_server: dict[int, list[BBox]],
    retain=None,
) -> None:
    """Scatter a put's data shards and place its parity/copies.

    Data shards go to their placement owners as ordinary fragments (so
    unprotected readers and coverage queries still work); parity/copies go
    to distinct non-owner servers as protection blobs. Owners that are down
    (or fail past the retry budget) are skipped — their shard then lives
    only in parity until the server is rebuilt — and the put fails with
    :class:`StagingDegradedError` only when more shards were lost than the
    placed protection can reconstruct.

    Two rounds of wire latency. Data: every live owner's ``put_many`` is
    begun (``StagingClient.begin_all``), shard digests and all parity are
    computed while those are in flight, then each is settled inside its own
    server's retry loop. Any error but an unreachable owner — a version
    conflict — is raised here, before a blob is written: blob keys are a
    function of ``desc`` and ``put_blob`` overwrites, so a rejected put must
    not reach the blobs that protect the version already stored. Blobs:
    every one is begun to its first-choice holder (chosen now, so an owner
    the data round marked down is passed over), parity digests are computed
    in flight, all are settled; a blob whose holder proved unreachable goes
    to its family's next candidate, one synchronous call at a time.
    In-process servers have no begin half: the same code makes the same
    calls, in the same order, at settle. ``retain`` rides the data round
    (``StagingClient.retention_calls``).
    """
    group = client.group
    cfg = group.protection
    data = np.ascontiguousarray(data, dtype=np.dtype(desc.dtype))
    data_servers = sorted(by_server)
    k = len(data_servers)
    boxes = [tuple(by_server[s]) for s in data_servers]
    record_id = record_id_for(desc)
    groups: tuple[tuple[int, ...], ...] = ()
    if cfg.mode == "rs":
        g_max = max(1, len(group.servers) - cfg.parity)
        groups = tuple(
            tuple(range(lo, min(lo + g_max, k))) for lo in range(0, k, g_max)
        )

    live = [i for i, s in enumerate(data_servers) if not group.health.is_down(s)]
    calls = [
        (
            data_servers[i],
            "put_many",
            client.data_args(
                [(desc.with_bbox(b), data[b.slices(desc.bbox)]) for b in boxes[i]],
                retain,
            ),
        )
        for i in live
    ]
    retention = client.retention_calls(retain, {data_servers[i] for i in live})
    digests: dict[tuple[int, int], str] = {}  # parity digests by (group, j)
    pending = client.begin_all(calls + retention)
    try:
        bufs = [_shard_buffer(desc, data, b) for b in boxes]
        infos = [
            ShardInfo(server=s, boxes=b, nbytes=int(buf.nbytes), digest=_digest(buf))
            for s, b, buf in zip(data_servers, boxes, bufs)
        ]
        shard_len = max((b.size for b in bufs), default=1) or 1
        families = _blob_families(cfg, record_id, data_servers, bufs, shard_len, groups)
        stored = client.settle_all(calls, pending, unreachable=False)
        client.settle_retention(retention, pending[len(calls) :])

        blobs: list[tuple] = []  # (tag, spare holders, put_blob call) per begun blob
        for owners, family in families:
            spares = _parity_candidates(group, owners)
            blobs += [
                (tag, spares, (holder, "put_blob", (desc.name, desc.version, key, blob)))
                for tag, key, blob in family
                if (holder := next(spares, None)) is not None
            ]
        calls = [call for _tag, _spares, call in blobs]
        begun = client.begin_all(calls)
        pending += begun
        if cfg.mode == "rs":
            digests = {
                tag: _digest(blob) for _o, family in families for tag, _key, blob in family
            }
        landed = client.settle_all(calls, begun, unreachable=False)
    finally:
        # A no-op unless something other than a staging error escaped (an
        # interrupt, a bug in encode) with calls begun and slabs leased.
        client.abandon_all(pending)

    failed = sorted(
        set(range(k)).difference(live)
        | {i for i, done in zip(live, stored) if done is False}
    )
    placed: list[tuple] = []  # (tag, holder) per blob that landed
    for (tag, spares, call), done in zip(blobs, landed):
        while done is False and (holder := next(spares, None)) is not None:
            call = (holder, *call[1:])
            (done,) = client.fan_out([call], unreachable=False)
        if done is not False:
            placed.append((tag, call[0]))
            _PARITY_BYTES.inc(int(call[2][3].nbytes))

    parity: tuple[ParityInfo, ...] = ()
    copies: tuple[tuple[int, ...], ...] = ()
    overloaded: list[str] = []
    if cfg.mode == "rs":
        parity = tuple(
            ParityInfo(group=gi, j=j, server=holder, digest=digests[gi, j])
            for (gi, j), holder in placed
        )
        for gi, members in enumerate(groups):
            lost = sum(1 for i in failed if i in members)
            placed_parity = sum(1 for p in parity if p.group == gi)
            if lost > placed_parity:
                overloaded.append(
                    f"group {gi}: {lost} shard(s) lost, {placed_parity} parity placed"
                )
    else:
        copies = tuple(
            tuple(holder for tag, holder in placed if tag == i) for i in range(k)
        )
        overloaded = [f"shard {i}: no copy placed" for i in failed if not copies[i]]

    record = PutRecord(
        record_id=record_id,
        desc=desc,
        mode=cfg.mode,
        parity_count=cfg.parity,
        shard_len=shard_len,
        shards=tuple(infos),
        groups=groups,
        parity=parity,
        copies=copies,
    )
    group.records.add(record)
    _PROTECTED_PUTS.inc()

    if failed:
        _DEGRADED_PUTS.inc()
        if overloaded:
            raise StagingDegradedError(
                f"put {desc}: {len(failed)} of {k} shard server(s) lost beyond "
                f"protection ({'; '.join(overloaded)})"
            )


# ------------------------------------------------------------ protected get


def _verify_reads(group: "StagingGroup") -> bool:
    """Digest-check reads? (Records can outlive a dropped protection config.)"""
    cfg = group.protection
    return cfg.verify_reads if cfg is not None else True


def _verified(group: "StagingGroup", rec: PutRecord, read: tuple, reply) -> np.ndarray:
    """The ``check`` of one protected read: the reply's bytes, held to their
    put-time digest.

    It runs *inside* the retried attempt (``StagingClient._server_op``), so a
    transiently corrupted read burns a retry (with backoff) instead of
    surfacing as an erasure; only an exhausted retry budget escalates."""
    server_id, _op, _args, digest, what = read
    chunks = [_as_bytes(p) for p in ([reply] if isinstance(reply, np.ndarray) else reply)]
    buf = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    if _verify_reads(group) and _digest(buf) != digest:
        _VERIFY_FAILURES.inc()
        raise TransientServerError(server_id, f"{what} digest mismatch for {rec.desc}")
    return buf


def _read_round(
    client: "StagingClient", rec: PutRecord, reads: list[tuple], retention=()
) -> list:
    """One overlapped round of digest-checked reads ``(server, op, args,
    digest, what)``: per read its verified bytes — ``None`` where the server
    stayed unreachable, ``False`` where it answered that it holds none.
    ``retention`` calls join the round (``StagingClient.fan_out``)."""
    return client.fan_out(
        [read[:3] for read in reads],
        [partial(_verified, client.group, rec, read) for read in reads],
        unreachable=None,
        absent=False,
        retention=retention,
    )


def _first_available(client: "StagingClient", rec: PutRecord, wants: list) -> list:
    """Fill each want — an iterator of alternative ``(tag, read)``, best
    first — with ``(tag, bytes)``, or ``None`` when every alternative failed.

    The wants' first choices are asked in one overlapped round; a read that
    comes back lost or absent moves on to its want's next alternative, one
    synchronous call at a time. Wants may share an iterator (any ``n`` of a
    codeword's parity rows): each then draws a different alternative."""
    picks = [next(want, None) for want in wants]
    firsts = iter(
        _read_round(client, rec, [pick[1] for pick in picks if pick is not None])
    )
    filled = []
    for want, pick in zip(wants, picks):
        got = next(firsts) if pick is not None else None
        while pick is not None and not isinstance(got, np.ndarray):
            pick = next(want, None)
            if pick is not None:
                (got,) = _read_round(client, rec, [pick[1]])
        filled.append(None if pick is None else (pick[0], got))
    return filled


def _fetch_shards(
    client: "StagingClient",
    rec: PutRecord,
    indices,
    bufs: dict[int, np.ndarray],
    erased: set[int],
    absent: set[int] | None = None,
    retain=None,
) -> None:
    """Fetch data shards ``indices`` into ``bufs``, digest-verified, in one
    overlapped round; the ones lost to server faults (a down owner, an
    exhausted retry budget) land in ``erased``. Shards a healthy server
    simply does not hold (absent ≠ lost) raise :class:`ObjectNotFound`,
    unless the caller collects them in ``absent``. Already fetched or erased
    shards are skipped. ``retain`` rides the round."""
    health = client.group.health
    todo = [i for i in indices if i not in bufs and i not in erased]
    erased.update(i for i in todo if health.is_down(rec.shards[i].server))
    todo = [i for i in todo if i not in erased]
    reads = [
        (
            si.server,
            "get_many",
            client.data_args([rec.desc.with_bbox(b) for b in si.boxes], retain),
            si.digest,
            "shard",
        )
        for si in (rec.shards[i] for i in todo)
    ]
    retention = client.retention_calls(retain, {read[0] for read in reads})
    for i, got in zip(todo, _read_round(client, rec, reads, retention)):
        if got is None:
            erased.add(i)
        elif got is not False:
            bufs[i] = got
        elif absent is None:
            raise ObjectNotFound(f"{rec.desc}: shard {i} absent (not lost)")
        else:
            absent.add(i)


@dataclass
class _DecodeJob:
    """One subgroup codeword ready to decode: survivors in, erasures out.

    Planning (survivor/parity fetches) is separated from decoding so callers
    can batch the matrix solves across many jobs — ``decode_batch`` groups
    codewords by erasure pattern, paying one inverse per pattern instead of
    one per record.
    """

    rec: PutRecord
    members: tuple[int, ...]  # record-level shard indices of this codeword
    survivors: list[Shard]
    erased: list[int]  # members to recover


def _plan_recovery(
    client: "StagingClient",
    rec: PutRecord,
    bufs: dict[int, np.ndarray],
    erased: set[int],
) -> tuple[list[_DecodeJob], dict[int, np.ndarray]]:
    """Fetch stage of a degraded read: gather survivors, build decode jobs.

    ``bufs`` holds already-fetched shards and is extended in place with any
    additional survivors fetched here. Replication recovery has no decode
    stage, so its shards come back in the second element directly; RS
    recovery returns one :class:`_DecodeJob` per affected codeword. Raises
    :class:`StagingDegradedError` when too few shards survive, or
    :class:`ObjectNotFound` when nothing was lost to server faults and the
    data is simply absent (e.g. rolled back).
    """
    down = client.group.health.is_down
    name, version = rec.desc.name, rec.desc.version
    absent: set[int] = set()
    if rec.mode == "rs":
        # Decoding is per subgroup: fetch the surviving members of every
        # codeword that lost a shard (other subgroups are untouched).
        affected = {rec.group_of(i) for i in erased}
        needed = [i for gi in affected for i in rec.groups[gi]]
        _fetch_shards(client, rec, needed, bufs, erased, absent)
    fault_losses = set(erased)
    erased |= absent

    if rec.mode == "replication":

        def copies_of(i: int):
            key, digest = rec.copy_blob_key(i), rec.shards[i].digest
            for c in rec.copies[i] if i < len(rec.copies) else ():
                if not down(c):
                    yield c, (c, "get_blob", (name, version, key), digest, "copy")

        lost = sorted(erased)
        wants = [copies_of(i) for i in lost]
        recovered: dict[int, np.ndarray] = {}
        for i, copy in zip(lost, _first_available(client, rec, wants)):
            if copy is None:
                if not fault_losses:
                    raise ObjectNotFound(f"{rec.desc}: shard {i} absent (not lost)")
                raise StagingDegradedError(
                    f"{rec.desc}: shard {i} and all its copies are unavailable"
                )
            recovered[i] = copy[1][: rec.shards[i].nbytes]
        return [], recovered

    def parity_of(gi: int):
        for p in rec.parity:
            if p.group == gi and not down(p.server):
                key = rec.parity_blob_key(p.group, p.j)
                yield p, (p.server, "get_blob", (name, version, key), p.digest, "parity")

    # Each affected codeword wants as many parity rows as it is short of
    # data shards — any of its rows will do.
    affected = sorted({rec.group_of(i) for i in erased})
    wants = []
    for gi in affected:
        short = sum(1 for i in rec.groups[gi] if i not in bufs)
        wants += [parity_of(gi)] * short
    parity = [got for got in _first_available(client, rec, wants) if got is not None]

    jobs: list[_DecodeJob] = []
    for gi in affected:
        members = rec.groups[gi]
        gk = len(members)
        group_erased = [i for i in members if i in erased]
        survivors = [
            Shard(index=row, data=_padded(bufs[i], rec.shard_len))
            for row, i in enumerate(members)
            if i in bufs
        ] + [Shard(index=gk + p.j, data=buf) for p, buf in parity if p.group == gi]
        if len(survivors) < gk:
            if not fault_losses and absent:
                raise ObjectNotFound(
                    f"{rec.desc}: {len(absent)} shard(s) absent with no server faults"
                )
            raise StagingDegradedError(
                f"{rec.desc}: codeword {gi} lost {len(group_erased)} of {gk} data "
                f"shard(s), only {len(survivors)} codeword shard(s) survive (need {gk})"
            )
        jobs.append(_DecodeJob(rec=rec, members=members, survivors=survivors,
                               erased=group_erased))
    return jobs, {}


def _decode_jobs(jobs: list[_DecodeJob]) -> list["np.ndarray | DecodingError"]:
    """Decode many jobs with as few matrix solves as possible.

    Jobs sharing code parameters (gk, m) go through one ``decode_batch``
    call, which further groups them by erasure pattern internally. A
    :class:`DecodingError` anywhere in a batch falls back to per-job scalar
    decodes so one malformed record cannot poison its batch — the error is
    returned in that job's slot instead of raised (per-record isolation).
    """
    results: list[np.ndarray | DecodingError | None] = [None] * len(jobs)
    by_code: dict[tuple[int, int], list[int]] = {}
    for idx, job in enumerate(jobs):
        by_code.setdefault(
            (len(job.members), job.rec.parity_count), []
        ).append(idx)
    for (gk, m), idxs in by_code.items():
        code = RSCode(gk, m)
        batch = [jobs[i] for i in idxs]
        _DECODE_BATCH_CODEWORDS.inc(len(batch))
        try:
            flats = code.decode_batch(
                [j.survivors for j in batch],
                [gk * j.rec.shard_len for j in batch],
            )
        except DecodingError:
            flats = []
            for j in batch:
                try:
                    flats.append(code.decode(j.survivors, gk * j.rec.shard_len))
                except DecodingError as exc:
                    flats.append(exc)
        for i, flat in zip(idxs, flats):
            results[i] = (
                flat
                if isinstance(flat, DecodingError)
                else np.frombuffer(flat, dtype=np.uint8)
            )
    return results


def _apply_decoded(
    job: _DecodeJob, raw: np.ndarray, out: dict[int, np.ndarray]
) -> None:
    """Slice one decoded codeword's erased shards into ``out``."""
    shard_len = job.rec.shard_len
    for i in job.erased:
        row = job.members.index(i)
        out[i] = raw[row * shard_len : row * shard_len + job.rec.shards[i].nbytes]


def _reconstruct(
    client: "StagingClient",
    rec: PutRecord,
    bufs: dict[int, np.ndarray],
    erased: set[int],
) -> dict[int, np.ndarray]:
    """Recover the erased data shards of one record from survivors."""
    jobs, recovered = _plan_recovery(client, rec, bufs, erased)
    for job, raw in zip(jobs, _decode_jobs(jobs)):
        if isinstance(raw, DecodingError):
            raise StagingDegradedError(
                f"{rec.desc}: reconstruction failed: {raw}"
            ) from raw
        _apply_decoded(job, raw, recovered)
    return recovered


def _fill_from_shards(
    rec: PutRecord,
    bufs: dict[int, np.ndarray],
    indices: list[int],
    desc: ObjectDescriptor,
    out: np.ndarray,
    need: BBox,
) -> None:
    """Copy the needed region of each shard's boxes into ``out``."""
    dtype = np.dtype(rec.desc.dtype)
    for i in indices:
        si = rec.shards[i]
        buf = bufs[i]
        offset = 0
        for b in si.boxes:
            nb = b.volume * dtype.itemsize
            sub = b.intersect(need)
            if sub is not None:
                arr = buf[offset : offset + nb].view(dtype).reshape(b.shape)
                out[sub.slices(desc.bbox)] = arr[sub.slices(b)]
            offset += nb


def read_record(
    client: "StagingClient",
    rec: PutRecord,
    desc: ObjectDescriptor,
    out: np.ndarray,
    retain=None,
) -> bool:
    """Serve ``rec.desc.bbox ∩ desc.bbox`` into ``out``; True if degraded.
    ``retain`` rides the shard round."""
    need = rec.desc.bbox.intersect(desc.bbox)
    if need is None:
        return False
    k = len(rec.shards)
    needed = [
        i for i in range(k) if any(b.intersects(need) for b in rec.shards[i].boxes)
    ]
    bufs: dict[int, np.ndarray] = {}
    erased: set[int] = set()
    _fetch_shards(client, rec, needed, bufs, erased, retain=retain)
    if erased:
        t0 = perf_counter()
        bufs.update(_reconstruct(client, rec, bufs, erased))
        _DEGRADED_READS.inc()
        _DEGRADED_READ_SECONDS.record(perf_counter() - t0)
    _fill_from_shards(rec, bufs, needed, desc, out, need)
    return bool(erased)


# ----------------------------------------------------------------- rebuild


REBUILD_BATCH_RECORDS = 32


@dataclass
class _RebuildPlan:
    """Everything fetched for one record's rebuild, decode still pending."""

    rec: PutRecord
    own_data: list[int]
    own_parity: list[ParityInfo]
    own_copies: list[int]
    bufs: dict[int, np.ndarray]
    jobs: list[_DecodeJob]
    verified: set[int]  # shards whose fetch already held them to their digest


def rebuild_server(
    group: "StagingGroup",
    server_id: int,
    replacement=None,
    batch_size: int = REBUILD_BATCH_RECORDS,
) -> int:
    """Repopulate a lost server from survivors and swap it into the group.

    Every protection record referencing ``server_id`` is replayed: its data
    shards are reconstructed (degraded-read machinery) and re-stored as
    ordinary fragments; its parity shards are recomputed from the data
    shards; replication copies are re-placed. Only *protected* data can be
    rebuilt — fragments that were written without protection died with the
    server. Records whose surviving shards are insufficient (or fail digest
    verification) are skipped and counted
    (``staging.rebuild.skipped_records``).

    Records are processed in batches of ``batch_size`` pipelined on the
    shared staging pool — batch N+1's survivor fetches run while batch N
    decodes and stores — and each batch's matrix solves are amortised
    through ``decode_batch``. Every reconstructed shard is digest-verified
    before it is stored, and the server's health flips back up only after
    the whole rebuild — a replica is never marked healthy while holding
    unverified bytes.

    The replacement, when not supplied, is provisioned by the group's
    transport (:meth:`repro.net.transport.Transport.make_replacement`): a
    fresh in-process server on inproc, a fresh server *process* on TCP (the
    lost one's process is retired) — rebuild works unchanged over sockets.

    Returns the number of payload bytes rebuilt onto the new server.
    """
    from repro.staging.client import StagingClient

    t0 = perf_counter()
    with timed(_REBUILD_PROVISION_SECONDS):
        fresh = (
            replacement
            if replacement is not None
            else group.transport.make_replacement(server_id)
        )
    client = StagingClient(group, client_id=f"rebuild-{server_id}")
    group.health.mark_down(server_id)  # route every fetch to survivors
    rebuilt = _rebuild_pipelined(
        client, group.records.all_records(), server_id, fresh, batch_size
    )
    group.servers[server_id] = fresh
    group.health.reset(server_id)
    _REBUILDS.inc()
    _REBUILD_BYTES.inc(rebuilt)
    _REBUILD_SECONDS.record(perf_counter() - t0)
    return rebuilt


def _plan_rebuild_record(
    client: "StagingClient", rec: PutRecord, server_id: int
) -> _RebuildPlan | None:
    """Fetch stage: gather every survivor this record's rebuild needs — one
    overlapped round of shard reads, then (if any are lost) one of parity or
    copies.

    Returns ``None`` when the record does not reference ``server_id``.
    Decode jobs are returned un-decoded so the caller can batch the solves
    across records.
    """
    own_data = [i for i, s in enumerate(rec.shards) if s.server == server_id]
    own_parity = [p for p in rec.parity if p.server == server_id]
    own_copies = [i for i, holders in enumerate(rec.copies) if server_id in holders]
    if not (own_data or own_parity or own_copies):
        return None

    want = set(own_data) | set(own_copies)
    # Parity recompute needs its codeword's shards, and so does decoding a
    # lost data shard: ask for both in the one round.
    codewords = {p.group for p in own_parity}
    if rec.mode == "rs":
        codewords |= {rec.group_of(i) for i in own_data}
    for gi in codewords:
        want |= set(rec.groups[gi])
    bufs: dict[int, np.ndarray] = {}
    erased: set[int] = set()
    _fetch_shards(
        client, rec, sorted(want) if want else range(len(rec.shards)), bufs, erased
    )
    jobs: list[_DecodeJob] = []
    recovered: dict[int, np.ndarray] = {}
    if erased:
        jobs, recovered = _plan_recovery(client, rec, bufs, erased)
    verified = set(bufs) if _verify_reads(client.group) else set()
    bufs.update(recovered)
    return _RebuildPlan(rec, own_data, own_parity, own_copies, bufs, jobs, verified)


def _fetch_rebuild_batch(
    client: "StagingClient", batch: list[PutRecord], server_id: int
) -> list:
    """Plan every record of ``batch``; a record whose survivors are
    insufficient parks its exception in its slot (per-record isolation)."""
    plans: list = []
    with timed(_REBUILD_FETCH_SECONDS):
        for rec in batch:
            try:
                plans.append(_plan_rebuild_record(client, rec, server_id))
            except (ObjectNotFound, StagingDegradedError) as exc:
                plans.append(exc)
    return plans


def _store_rebuilt(client: "StagingClient", plan: _RebuildPlan, fresh) -> int:
    """Verify one record's rebuilt bytes against put-time digests, then store
    them on ``fresh`` as one overlapped batch.

    Nothing reaches the replacement unless it was checked against its
    put-time digest — independent of ``verify_reads`` — so a corrupt
    survivor or a bad decode can never be laundered onto it: reconstructed
    shards and recomputed parity are hashed here, and so is every directly
    fetched shard that its fetch did not verify already
    (``plan.verified``). Nothing is stored until everything checks out
    (record-level all-or-nothing).
    """
    rec = plan.rec
    bufs = plan.bufs
    dtype = np.dtype(rec.desc.dtype)
    name, version = rec.desc.name, rec.desc.version

    for i in sorted((set(plan.own_data) | set(plan.own_copies)) - plan.verified):
        if _digest(bufs[i]) != rec.shards[i].digest:
            _REBUILD_VERIFY_FAILURES.inc()
            raise StagingDegradedError(
                f"{rec.desc}: rebuilt shard {i} fails digest verification"
            )
    stores: list[tuple[int, str, tuple]] = []
    sid = fresh.server_id
    only = {sid: fresh}  # not the group's server ``sid`` until the rebuild is done
    rebuilt = 0
    for i in plan.own_data:
        offset = 0
        items = []
        for b in rec.shards[i].boxes:
            nb = b.volume * dtype.itemsize
            arr = bufs[i][offset : offset + nb].view(dtype).reshape(b.shape)
            items.append((rec.desc.with_bbox(b), arr))
            offset += nb
        stores.append((sid, "put_many", (items,)))
        rebuilt += rec.shards[i].nbytes
    for p in plan.own_parity:
        members = rec.groups[p.group]
        mat = _codeword(bufs, members, rec.shard_len)
        row = RSCode(len(members), rec.parity_count).encode_parity(mat)[p.j]
        if _digest(row) != p.digest:
            _REBUILD_VERIFY_FAILURES.inc()
            raise StagingDegradedError(
                f"{rec.desc}: recomputed parity g{p.group}p{p.j} fails digest "
                f"verification"
            )
        key = rec.parity_blob_key(p.group, p.j)
        stores.append((sid, "put_blob", (name, version, key, row)))
        rebuilt += rec.shard_len
    for i in plan.own_copies:
        stores.append((sid, "put_blob", (name, version, rec.copy_blob_key(i), bufs[i])))
        rebuilt += rec.shards[i].nbytes

    # No retry/health policy: the replacement is not in the group yet, and a
    # failure to fill it fails the rebuild.
    pending = client.begin_all(stores, only)
    try:
        for store, first in zip(stores, pending):
            client.attempt(store, first, only)
    finally:
        client.abandon_all(pending)
    return rebuilt


def _apply_rebuild_batch(client: "StagingClient", plans: list, fresh) -> int:
    """Decode + verify + store one fetched batch; skips failed records."""
    jobs = [
        job
        for plan in plans
        if isinstance(plan, _RebuildPlan)
        for job in plan.jobs
    ]
    with timed(_REBUILD_DECODE_SECONDS):
        raw_by_job = dict(zip(map(id, jobs), _decode_jobs(jobs)))
    rebuilt = 0
    for plan in plans:
        if plan is None:
            continue
        if isinstance(plan, Exception):
            _REBUILD_SKIPPED.inc()
            continue
        try:
            for job in plan.jobs:
                raw = raw_by_job[id(job)]
                if isinstance(raw, DecodingError):
                    raise StagingDegradedError(
                        f"{plan.rec.desc}: reconstruction failed: {raw}"
                    ) from raw
                _apply_decoded(job, raw, plan.bufs)
            with timed(_REBUILD_STORE_SECONDS):
                rebuilt += _store_rebuilt(client, plan, fresh)
        except (ObjectNotFound, StagingDegradedError):
            _REBUILD_SKIPPED.inc()
    return rebuilt


def _rebuild_pipelined(
    client: "StagingClient",
    records: list[PutRecord],
    server_id: int,
    fresh,
    batch_size: int,
) -> int:
    """Pipelined rebuild: fetch batch N+1 while decoding/storing batch N.

    The fetch stage (survivor reads, retry loops, digest checks) runs on the
    shared staging pool one batch ahead of the decode/store stage, so
    network-ish latency overlaps field arithmetic. Per-record failures are
    confined to their record: a fetch failure parks the exception in the
    plan slot, a decode/verify failure skips that record at store time.
    """
    pool = client.group.executor
    batches = [
        records[lo : lo + batch_size] for lo in range(0, len(records), batch_size)
    ]
    if not batches:
        return 0
    rebuilt = 0
    future = pool.submit(_fetch_rebuild_batch, client, batches[0], server_id)
    for bi in range(len(batches)):
        plans = future.result()
        if bi + 1 < len(batches):
            future = pool.submit(_fetch_rebuild_batch, client, batches[bi + 1], server_id)
        _REBUILD_BATCHES.inc()
        rebuilt += _apply_rebuild_batch(client, plans, fresh)
    return rebuilt
