"""Tests for a server's metadata queries.

A staging server keeps no separate index: its :class:`ObjectStore`'s
``(name, version)`` map answers which fragments exist, which versions a
name has, whether a region is covered, and how many bytes are held.
"""

import numpy as np

from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox
from repro.staging import ObjectStore


def desc(name="x", version=0, lo=(0, 0), hi=(4, 4)):
    return ObjectDescriptor(name, version, BBox(lo, hi))


def put(store, d, fill=0.0):
    return store.put(d, np.full(d.bbox.shape, fill))


class TestInsertQuery:
    def test_insert_and_query(self):
        store = ObjectStore()
        put(store, desc())
        assert len(store.fragments("x", 0)) == 1
        assert store.fragments("x", 1) == []

    def test_query_by_region(self):
        store = ObjectStore()
        put(store, desc(lo=(0, 0), hi=(2, 2)))
        put(store, desc(lo=(2, 2), hi=(4, 4)))
        region = BBox((0, 0), (1, 1))
        hits = [f for f in store.fragments("x", 0) if f.desc.bbox.intersects(region)]
        assert len(hits) == 1
        assert hits[0].desc.bbox == BBox((0, 0), (2, 2))

    def test_versions_and_names(self):
        store = ObjectStore()
        put(store, desc(version=2))
        put(store, desc(version=0))
        put(store, desc(name="y"))
        assert store.versions("x") == [0, 2]
        assert store.latest_version("x") == 2
        assert sorted({n for n, _v in store.keys()}) == ["x", "y"]

    def test_len(self):
        store = ObjectStore()
        put(store, desc())
        put(store, desc(version=1))
        assert store.object_count == 2


class TestCoverage:
    def test_covered_true(self):
        store = ObjectStore()
        put(store, desc(lo=(0, 0), hi=(2, 4)))
        put(store, desc(lo=(2, 0), hi=(4, 4)))
        assert store.covers(desc())

    def test_covered_false_with_gap(self):
        store = ObjectStore()
        put(store, desc(lo=(0, 0), hi=(2, 4)))
        assert not store.covers(desc())

    def test_covered_missing_version(self):
        assert not ObjectStore().covers(desc(lo=(0,), hi=(1,)))


class TestRemoveAndBytes:
    def test_remove_version(self):
        store = ObjectStore()
        put(store, desc(lo=(0, 0), hi=(2, 4)))
        put(store, desc(lo=(2, 0), hi=(4, 4)))
        assert store.evict("x", 0) == 2 * 8 * 8
        assert store.fragments("x", 0) == []
        assert store.versions("x") == []

    def test_remove_missing(self):
        assert ObjectStore().evict("x", 5) == 0

    def test_nbytes(self):
        store = ObjectStore()
        put(store, desc())
        put(store, desc(version=1, hi=(4, 2)))
        assert store.nbytes == 16 * 8 + 8 * 8
