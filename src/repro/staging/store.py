"""Versioned object store (one staging server's local storage).

Stores immutable payload fragments keyed by their descriptors. The store
tracks exact byte occupancy (the quantity behind the paper's Figure 9(c)/(d)
memory plots) and exposes assembly of a requested region from the fragments
that cover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.descriptors.odsc import ObjectDescriptor
from repro.errors import ObjectNotFound, StagingError, VersionConflict
from repro.geometry.bbox import BBox

__all__ = ["StoredObject", "ObjectStore"]


@dataclass(frozen=True)
class StoredObject:
    """One immutable payload fragment with its descriptor."""

    desc: ObjectDescriptor
    data: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        if tuple(self.data.shape) != self.desc.bbox.shape:
            raise StagingError(
                f"payload shape {self.data.shape} != descriptor box "
                f"shape {self.desc.bbox.shape}"
            )
        if self.data.dtype != np.dtype(self.desc.dtype):
            raise StagingError(
                f"payload dtype {self.data.dtype} != descriptor dtype {self.desc.dtype}"
            )

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


class ObjectStore:
    """Fragments of named, versioned variables with exact byte accounting.

    Multiple fragments of the same (name, version) may coexist when different
    producer ranks wrote different sub-regions; overlapping re-puts of the
    same region must carry identical bytes (write-idempotence) or they raise
    :class:`VersionConflict`.
    """

    def __init__(self) -> None:
        # (name, version) -> list of fragments.
        self._objects: dict[tuple[str, int], list[StoredObject]] = {}
        self._bytes = 0
        self._count = 0
        # name -> set of versions with at least one fragment. Read on every
        # blocking-get poll (latest_version) and non-logged retention pass,
        # so it must not be recomputed by scanning every (name, version) key.
        self._versions: dict[str, set[int]] = {}
        # Mutation journal for incremental (copy-on-write) checkpointing.
        # None = journaling off (seed behaviour, no per-put overhead). When
        # enabled, every *effective* mutation appends one tuple; sealing an
        # epoch swaps the list out in O(1). Fragments are immutable, so a
        # journaled ("put", obj) shares the payload with the live store.
        # Payload bytes of journaled puts are accumulated alongside, so
        # packaging a sealed delta never has to re-walk the journal.
        self._journal: list[tuple] | None = None
        self._journal_put_bytes = 0

    # ----------------------------------------------------------- journaling

    def enable_journal(self) -> None:
        """Start recording mutations (idempotent; keeps an open journal)."""
        if self._journal is None:
            self._journal = []

    def disable_journal(self) -> None:
        """Stop recording mutations and drop any pending journal."""
        self._journal = None
        self._journal_put_bytes = 0

    @property
    def journal_len(self) -> int:
        """Mutations recorded since the last seal; O(1)."""
        return len(self._journal) if self._journal is not None else 0

    @property
    def journal_put_bytes(self) -> int:
        """Payload bytes of journaled puts since the last seal; O(1)."""
        return self._journal_put_bytes

    def seal_journal(self) -> list[tuple]:
        """Detach and return the mutations since the last seal; O(1).

        Journaling stays enabled: a fresh epoch starts immediately.
        """
        sealed = self._journal if self._journal is not None else []
        self._journal = []
        self._journal_put_bytes = 0
        return sealed

    def apply_journal(self, journal: list[tuple]) -> None:
        """Re-apply a sealed journal through the mutators that recorded it.

        Journals hold only *effective* mutations, so a journaled put skips
        the overlap checks it already passed and goes straight to
        :meth:`_insert`.
        """
        for mut in journal:
            if mut[0] == "put":
                self._insert(mut[1])
            elif mut[0] == "evict":
                self.evict(mut[1], mut[2])
            else:
                self.clear()

    # ------------------------------------------------------------------ put

    def put(self, desc: ObjectDescriptor, data: np.ndarray) -> StoredObject:
        """Store one fragment; returns the stored (copied) object.

        The payload is copied so later mutation by the producer cannot alter
        staged state — matching RDMA semantics where the staging server owns
        its buffer. Exactly one copy is made: when ``ascontiguousarray``
        already copied (non-contiguous or dtype-converted input), that
        private buffer is kept instead of being copied a second time.
        """
        arr = np.ascontiguousarray(data, dtype=np.dtype(desc.dtype))
        if arr is data or arr.base is not None:
            arr = arr.copy()
        obj = StoredObject(desc, arr)
        for existing in self._objects.get(desc.key, ()):
            overlap = existing.desc.bbox.intersect(desc.bbox)
            if overlap is None:
                continue
            mine = obj.data[overlap.slices(desc.bbox)]
            theirs = existing.data[overlap.slices(existing.desc.bbox)]
            if not np.array_equal(mine, theirs):
                raise VersionConflict(
                    f"conflicting re-put of {desc}: overlap {overlap} differs "
                    f"from fragment {existing.desc}"
                )
            if existing.desc.bbox.contains(desc.bbox):
                # Fully redundant write; keep the store unchanged.
                return existing
        self._insert(obj)
        return obj

    def _insert(self, obj: StoredObject) -> None:
        """Add an accepted fragment: containers, aggregates, journal."""
        desc = obj.desc
        self._objects.setdefault(desc.key, []).append(obj)
        self._bytes += obj.nbytes
        self._count += 1
        self._versions.setdefault(desc.name, set()).add(desc.version)
        if self._journal is not None:
            self._journal.append(("put", obj))
            self._journal_put_bytes += obj.nbytes

    # ------------------------------------------------------------------ get

    def get(self, desc: ObjectDescriptor, out: np.ndarray | None = None) -> np.ndarray:
        """Assemble the requested region from stored fragments.

        Raises :class:`ObjectNotFound` unless stored fragments fully cover
        ``desc.bbox`` at ``desc.version``. With ``out`` (a writable
        ``desc``-shaped array), fragments are gathered directly into it and
        it is returned — the shm transport passes a shared-segment view
        here so the assembled region never exists anywhere else.
        """
        frags = self._objects.get(desc.key)
        if not frags:
            raise ObjectNotFound(f"no data for {desc.name!r} v{desc.version}")
        # Fast path: one fragment already holds the whole region — the
        # common case in coupled workflows, where readers request the same
        # decomposition writers produced. Skips the cover-tracking walk.
        for frag in frags:
            if frag.desc.bbox.contains(desc.bbox):
                src = frag.data[desc.bbox.slices(frag.desc.bbox)]
                if out is None:
                    return src.copy()
                np.copyto(out, src)
                return out
        if out is None:
            out = np.empty(desc.bbox.shape, dtype=np.dtype(desc.dtype))
        # Track uncovered regions as a list of boxes, carving out each fragment.
        uncovered: list[BBox] = [desc.bbox]
        for frag in frags:
            overlap = frag.desc.bbox.intersect(desc.bbox)
            if overlap is None:
                continue
            out[overlap.slices(desc.bbox)] = frag.data[overlap.slices(frag.desc.bbox)]
            uncovered = [
                piece for box in uncovered for piece in box.subtract(frag.desc.bbox)
            ]
            if not uncovered:
                break
        if uncovered:
            raise ObjectNotFound(
                f"{desc} only partially covered; missing {len(uncovered)} "
                f"region(s), e.g. {uncovered[0]}"
            )
        return out

    def covers(self, desc: ObjectDescriptor) -> bool:
        """True if :meth:`get` for ``desc`` would succeed."""
        frags = self._objects.get(desc.key)
        if not frags:
            return False
        for frag in frags:
            if frag.desc.bbox.contains(desc.bbox):
                return True
        uncovered: list[BBox] = [desc.bbox]
        for frag in frags:
            uncovered = [
                piece for box in uncovered for piece in box.subtract(frag.desc.bbox)
            ]
            if not uncovered:
                return True
        return not uncovered

    # ---------------------------------------------------------------- query

    def versions(self, name: str) -> list[int]:
        """Sorted versions present (possibly partially) for ``name``."""
        return sorted(self._versions.get(name, ()))

    def latest_version(self, name: str) -> int | None:
        """Highest version present for ``name``, or None; O(versions-of-name)."""
        versions = self._versions.get(name)
        return max(versions) if versions else None

    def fragments(self, name: str, version: int) -> list[StoredObject]:
        """All fragments stored for (name, version)."""
        return list(self._objects.get((name, version), ()))

    def fragment_count(self, name: str, version: int) -> int:
        """Number of fragments stored for (name, version); O(1)."""
        frags = self._objects.get((name, version))
        return len(frags) if frags else 0

    def keys(self) -> list[tuple[str, int]]:
        """All (name, version) pairs with at least one fragment."""
        return list(self._objects)

    # ------------------------------------------------------------- eviction

    def evict(self, name: str, version: int) -> int:
        """Drop every fragment of (name, version); returns bytes freed."""
        frags = self._objects.pop((name, version), None)
        if not frags:
            return 0
        freed = sum(f.nbytes for f in frags)
        self._bytes -= freed
        self._count -= len(frags)
        versions = self._versions.get(name)
        if versions is not None:
            versions.discard(version)
            if not versions:
                del self._versions[name]
        if self._journal is not None:
            self._journal.append(("evict", name, version))
        return freed

    def evict_older_than(self, name: str, version: int) -> int:
        """Drop all versions of ``name`` strictly below ``version``."""
        freed = 0
        for v in self.versions(name):
            if v < version:
                freed += self.evict(name, v)
        return freed

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Capture the store's state for global coordinated checkpointing.

        Fragment payloads are immutable once stored, so the snapshot only
        copies the container structure, not the bytes — matching how a real
        coordinated protocol would checkpoint staging servers in place.
        The running aggregates travel with the snapshot so restore never
        rescans the containers to rebuild them.
        """
        return {
            "objects": {k: list(v) for k, v in self._objects.items()},
            "bytes": self._bytes,
            "count": self._count,
            "versions": {name: set(vs) for name, vs in self._versions.items()},
        }

    def restore(self, snap: dict, journals=()) -> None:
        """Roll the store back to ``snap`` plus the sealed ``journals`` that
        followed it (an incremental checkpoint's base + deltas).

        The running aggregates travel with the snapshot, so nothing is
        rescanned. Any open mutation journal restarts empty: the restored
        state is the new epoch base, and the re-applied history is not
        recorded a second time.
        """
        journaling = self._journal is not None
        self._journal = None
        self._objects = {k: list(v) for k, v in snap["objects"].items()}
        self._bytes = snap["bytes"]
        self._count = snap["count"]
        self._versions = {name: set(vs) for name, vs in snap["versions"].items()}
        for journal in journals:
            self.apply_journal(journal)
        if journaling:
            self._journal = []
            self._journal_put_bytes = 0

    # ------------------------------------------------------------- metrics

    @property
    def nbytes(self) -> int:
        """Exact bytes of payload currently held."""
        return self._bytes

    @property
    def object_count(self) -> int:
        """Number of fragments currently held; O(1) running counter."""
        return self._count

    def clear(self) -> None:
        """Drop everything."""
        self._objects.clear()
        self._bytes = 0
        self._count = 0
        self._versions.clear()
        if self._journal is not None:
            self._journal.append(("clear",))
