"""Tests for the staging server and the sharded client API."""

import numpy as np
import pytest

from repro.descriptors import ObjectDescriptor
from repro.errors import ObjectNotFound
from repro.geometry import BBox, Domain
from repro.staging import StagingClient, StagingGroup, StagingServer

from tests.conftest import make_payload


class TestServer:
    def test_put_get(self):
        srv = StagingServer(0)
        d = ObjectDescriptor("x", 0, BBox((0, 0), (4, 4)))
        data = np.arange(16, dtype=np.float64).reshape(4, 4)
        srv.put(d, data)
        assert np.array_equal(srv.get(d), data)
        assert srv.nbytes == d.nbytes

    def test_redundant_put_does_not_double_count(self):
        srv = StagingServer(0)
        d = ObjectDescriptor("x", 0, BBox((0,), (8,)))
        data = np.ones(8)
        srv.put(d, data)
        srv.put(d, data)
        assert srv.nbytes == d.nbytes
        assert len(srv.index) == 1

    def test_keep_only_latest(self):
        srv = StagingServer(0)
        for v in range(4):
            d = ObjectDescriptor("x", v, BBox((0,), (8,)))
            srv.put(d, np.full(8, float(v)))
        freed = srv.keep_only_latest("x")
        assert freed == 3 * 8 * 8
        assert srv.query_versions("x") == [3]

    def test_keep_only_latest_empty(self):
        assert StagingServer(0).keep_only_latest("nope") == 0

    def test_evict_older_than_version(self):
        srv = StagingServer(0)
        for v in range(5):
            srv.put(ObjectDescriptor("x", v, BBox((0,), (4,))), np.zeros(4))
        srv.evict_older_than_version("x", 3)
        assert srv.query_versions("x") == [3, 4]

    def test_evict_consumed_never_drops_the_newest(self):
        srv = StagingServer(0)
        for v in range(4):
            srv.put(ObjectDescriptor("x", v, BBox((0,), (4,))), np.zeros(4))
        assert srv.evict_consumed("x", 2) == 2 * 4 * 8
        assert srv.query_versions("x") == [2, 3]
        # A floor past the newest version still leaves it to serve.
        assert srv.evict_consumed("x", 9) == 4 * 8
        assert srv.query_versions("x") == [3]
        assert srv.evict_consumed("nope", 1) == 0

    def test_summary(self):
        srv = StagingServer(2)
        srv.put(ObjectDescriptor("rho", 0, BBox((0,), (4,))), np.zeros(4))
        s = srv.summary()
        assert s["server_id"] == 2
        assert s["names"] == ["rho"]
        assert s["fragments"] == 1


class TestGroup:
    def test_create(self, domain):
        grp = StagingGroup.create(domain, num_servers=3)
        assert len(grp.servers) == 3
        assert grp.total_bytes == 0

    def test_bytes_per_server_tracks_puts(self, domain):
        grp = StagingGroup.create(domain, num_servers=4)
        cli = StagingClient(grp)
        d = ObjectDescriptor("x", 0, domain.bbox)
        cli.put(d, make_payload(d))
        assert grp.total_bytes == d.nbytes
        assert sum(grp.bytes_per_server()) == d.nbytes
        assert all(b > 0 for b in grp.bytes_per_server())


class TestClient:
    def test_roundtrip_full_domain(self, domain, client):
        d = ObjectDescriptor("x", 0, domain.bbox)
        data = make_payload(d)
        shards = client.put(d, data)
        assert shards >= len(client.group.servers)
        assert np.array_equal(client.get(d), data)

    def test_roundtrip_subregion(self, domain, client):
        d = ObjectDescriptor("x", 0, domain.bbox)
        data = make_payload(d)
        client.put(d, data)
        sub = d.with_bbox(BBox((2, 3, 1), (10, 12, 6)))
        assert np.array_equal(client.get(sub), data[2:10, 3:12, 1:6])

    def test_put_subregion_then_get_it(self, domain, client):
        region = BBox((4, 4, 2), (12, 12, 6))
        d = ObjectDescriptor("x", 0, region)
        data = make_payload(d)
        client.put(d, data)
        assert np.array_equal(client.get(d), data)

    def test_get_missing_raises(self, domain, client):
        with pytest.raises(ObjectNotFound):
            client.get(ObjectDescriptor("nope", 0, domain.bbox))

    def test_get_region_outside_domain(self, domain, client):
        outside = ObjectDescriptor(
            "x", 0, BBox((100, 100, 100), (101, 101, 101))
        )
        with pytest.raises(ObjectNotFound):
            client.get(outside)

    def test_covers(self, domain, client):
        d = ObjectDescriptor("x", 0, domain.bbox)
        assert not client.covers(d)
        client.put(d, make_payload(d))
        assert client.covers(d)

    def test_latest_version(self, domain, client):
        assert client.latest_version("x") is None
        for v in (0, 2, 1):
            d = ObjectDescriptor("x", v, domain.bbox)
            client.put(d, make_payload(d))
        assert client.latest_version("x") == 2

    def test_multiple_variables_coexist(self, domain, client):
        for name in ("rho", "temp", "pressure"):
            d = ObjectDescriptor(name, 0, domain.bbox)
            client.put(d, make_payload(d))
        for name in ("rho", "temp", "pressure"):
            d = ObjectDescriptor(name, 0, domain.bbox)
            assert np.array_equal(client.get(d), make_payload(d))

    def test_distinct_rank_blocks_assemble(self, domain, client):
        # Producer ranks each write their own block; a consumer reads whole.
        from repro.geometry import grid_decompose

        blocks = grid_decompose(domain.bbox, (2, 2, 1))
        full = ObjectDescriptor("x", 0, domain.bbox)
        data = make_payload(full)
        for blk in blocks:
            client.put(full.with_bbox(blk), data[blk.slices()])
        assert np.array_equal(client.get(full), data)
