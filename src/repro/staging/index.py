"""Spatial metadata index for a staging server.

Tracks which (name, version) regions a server holds so queries can be
answered without touching payload bytes. This mirrors the DHT metadata layer
of DataSpaces: clients first query the index to learn which fragments exist,
then fetch payloads.

Aggregates are maintained incrementally: byte totals, entry counts, and the
per-name version sets are updated on insert/remove instead of being
recomputed by full iteration — these are read on every flow-control check
and memory-bench sample, so they must be O(1). The running totals are
asserted against full recomputes in the store/index lockstep property test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.descriptors.odsc import ObjectDescriptor
from repro.geometry.bbox import BBox

__all__ = ["SpatialIndex", "IndexEntry"]


@dataclass(frozen=True)
class IndexEntry:
    """One indexed fragment: its descriptor plus bookkeeping."""

    desc: ObjectDescriptor
    nbytes: int
    logged: bool = False  # True when retained by the data-logging component


@dataclass
class SpatialIndex:
    """Per-server metadata index over fragment descriptors.

    A flat per-(name, version) list is sufficient here: server-local fragment
    counts are small (one per producer rank per step). Aggregates (bytes,
    counts, version sets) are incremental so the metadata path never scans.
    """

    _entries: dict[tuple[str, int], list[IndexEntry]] = field(default_factory=dict)
    _versions: dict[str, set[int]] = field(default_factory=dict)
    _total_bytes: int = 0
    _logged_bytes: int = 0
    _count: int = 0
    # (name, version) -> summed *unclipped* fragment volume, used by
    # covered() as a necessary-condition early-out. Summed full volumes are
    # an upper bound on the covered volume, so sum < region.volume proves
    # non-coverage without any geometry walk.
    _volumes: dict[tuple[str, int], int] = field(default_factory=dict)
    # Mutation journal for incremental checkpointing; None = off. Same
    # seal-in-O(1) contract as ObjectStore._journal.
    _journal: list[tuple] | None = None

    # ----------------------------------------------------------- journaling

    def enable_journal(self) -> None:
        """Start recording mutations (idempotent; keeps an open journal)."""
        if self._journal is None:
            self._journal = []

    def disable_journal(self) -> None:
        """Stop recording mutations and drop any pending journal."""
        self._journal = None

    @property
    def journal_len(self) -> int:
        """Mutations recorded since the last seal; O(1)."""
        return len(self._journal) if self._journal is not None else 0

    def seal_journal(self) -> list[tuple]:
        """Detach and return the mutations since the last seal; O(1)."""
        sealed = self._journal if self._journal is not None else []
        self._journal = []
        return sealed

    def apply_journal(self, journal: list[tuple]) -> None:
        """Re-apply a sealed journal through the mutators that recorded it."""
        for mut in journal:
            if mut[0] == "insert":
                self._insert(mut[1])
            elif mut[0] == "remove":
                self.remove_version(mut[1], mut[2])
            else:
                self.clear()

    # ------------------------------------------------------------ mutation

    def insert(self, desc: ObjectDescriptor, nbytes: int, logged: bool = False) -> IndexEntry:
        """Index one fragment; returns the entry created."""
        entry = IndexEntry(desc=desc, nbytes=nbytes, logged=logged)
        self._insert(entry)
        return entry

    def _insert(self, entry: IndexEntry) -> None:
        """Add one entry: containers, aggregates, journal."""
        desc = entry.desc
        key = desc.key
        self._entries.setdefault(key, []).append(entry)
        self._versions.setdefault(desc.name, set()).add(desc.version)
        self._total_bytes += entry.nbytes
        if entry.logged:
            self._logged_bytes += entry.nbytes
        self._count += 1
        self._volumes[key] = self._volumes.get(key, 0) + desc.bbox.volume
        if self._journal is not None:
            self._journal.append(("insert", entry))

    def remove_version(self, name: str, version: int) -> int:
        """Drop all entries for (name, version); returns entries removed."""
        entries = self._entries.pop((name, version), None)
        if not entries:
            return 0
        versions = self._versions.get(name)
        if versions is not None:
            versions.discard(version)
            if not versions:
                del self._versions[name]
        for e in entries:
            self._total_bytes -= e.nbytes
            if e.logged:
                self._logged_bytes -= e.nbytes
        self._count -= len(entries)
        self._volumes.pop((name, version), None)
        if self._journal is not None:
            self._journal.append(("remove", name, version))
        return len(entries)

    def query(self, name: str, version: int, region: BBox | None = None) -> list[IndexEntry]:
        """Entries for (name, version) overlapping ``region`` (or all)."""
        entries = self._entries.get((name, version), ())
        if region is None:
            return list(entries)
        return [e for e in entries if e.desc.bbox.intersects(region)]

    def versions(self, name: str) -> list[int]:
        """Sorted versions indexed for ``name`` (per-name set, no key scan)."""
        return sorted(self._versions.get(name, ()))

    def names(self) -> list[str]:
        """Sorted distinct variable names indexed."""
        return sorted(self._versions)

    def covered(self, name: str, version: int, region: BBox) -> bool:
        """True when indexed fragments fully cover ``region``.

        Two fast paths before the O(entries × pieces) subtract walk: the
        summed fragment volume bounds the coverable volume from above, so a
        deficit proves non-coverage in O(1); and any single fragment
        containing the region proves coverage without subtraction.
        """
        key = (name, version)
        entries = self._entries.get(key)
        if not entries:
            return False
        if self._volumes.get(key, 0) < region.volume:
            return False
        if len(entries) == 1:
            return entries[0].desc.bbox.contains(region)
        uncovered = [region]
        for entry in entries:
            if entry.desc.bbox.contains(region):
                return True
            uncovered = [
                piece for box in uncovered for piece in box.subtract(entry.desc.bbox)
            ]
            if not uncovered:
                return True
        return not uncovered

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Capture the index for coordinated checkpointing.

        Entries are immutable, so only the container structure is copied —
        the same in-place convention as :meth:`ObjectStore.snapshot`. The
        running aggregates travel with the snapshot so restore is O(keys)
        container copying, never an O(entries) rescan.
        """
        return {
            "entries": {k: list(v) for k, v in self._entries.items()},
            "aggregates": {
                "versions": {name: set(vs) for name, vs in self._versions.items()},
                "total_bytes": self._total_bytes,
                "logged_bytes": self._logged_bytes,
                "count": self._count,
                "volumes": dict(self._volumes),
            },
        }

    def restore(self, snap: dict, journals=()) -> None:
        """Roll the index back to ``snap`` plus the sealed ``journals`` that
        followed it; same contract as :meth:`ObjectStore.restore`.
        """
        journaling = self._journal is not None
        self._journal = None
        self._entries = {k: list(v) for k, v in snap["entries"].items()}
        agg = snap["aggregates"]
        self._versions = {name: set(vs) for name, vs in agg["versions"].items()}
        self._total_bytes = agg["total_bytes"]
        self._logged_bytes = agg["logged_bytes"]
        self._count = agg["count"]
        self._volumes = dict(agg["volumes"])
        for journal in journals:
            self.apply_journal(journal)
        if journaling:
            self._journal = []

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._versions.clear()
        self._total_bytes = 0
        self._logged_bytes = 0
        self._count = 0
        self._volumes.clear()
        if self._journal is not None:
            self._journal.append(("clear",))

    # ------------------------------------------------------------- metrics

    def nbytes(self, logged_only: bool = False) -> int:
        """Total indexed payload bytes (optionally only logged entries); O(1)."""
        return self._logged_bytes if logged_only else self._total_bytes

    def __len__(self) -> int:
        return self._count
