"""Unit tests for the DrTM+H-style address-caching baseline."""

import pytest

from repro.baselines import AddressCachingHashMap, OneSidedHashMap


@pytest.fixture
def cached(cluster):
    return AddressCachingHashMap(
        OneSidedHashMap.create(cluster.allocator, bucket_count=64)
    )


class TestCaching:
    def test_first_lookup_walks_then_caches(self, cluster, cached):
        c = cluster.client()
        cached.put(c, 1, 10)
        cached.get(c, 1)
        snapshot = c.metrics.snapshot()
        assert cached.get(c, 1) == 10
        assert c.metrics.delta(snapshot).far_accesses == 1  # direct read
        assert cached.stats.cache_hits == 2  # put() also primed it

    def test_metadata_grows_with_keys(self, cluster, cached):
        c = cluster.client()
        for k in range(50):
            cached.put(c, k, k)
            cached.get(c, k)
        assert cached.metadata_bytes(c) == 50 * 24

    def test_caches_are_per_client(self, cluster, cached):
        c1, c2 = cluster.client(), cluster.client()
        cached.put(c1, 1, 10)
        assert cached.metadata_bytes(c1) > 0
        assert cached.metadata_bytes(c2) == 0
        assert cached.get(c2, 1) == 10  # c2 pays the full walk
        assert cached.metadata_bytes(c2) > 0

    def test_invalidation_after_delete(self, cluster, cached):
        c = cluster.client()
        cached.put(c, 1, 10)
        cached.get(c, 1)
        cached.table.delete(c, 1)  # delete behind the cache's back...
        cached.put(c, 999, 1)  # unrelated
        # Stale address now points at a freed record; our allocator does
        # not recycle it into a matching key, so the key check fails.
        assert cached.get(c, 1) is None
        assert cached.stats.invalidations >= 1

    def test_cached_update_is_one_access(self, cluster, cached):
        c = cluster.client()
        cached.put(c, 2, 20)
        snapshot = c.metrics.snapshot()
        cached.put(c, 2, 30)
        assert c.metrics.delta(snapshot).far_accesses == 2  # read + write
        assert cached.get(c, 2) == 30

    def test_miss_not_cached(self, cluster, cached):
        c = cluster.client()
        assert cached.get(c, 404) is None
        assert cached.metadata_bytes(c) == 0

    def test_delete_via_wrapper(self, cluster, cached):
        c = cluster.client()
        cached.put(c, 3, 30)
        assert cached.delete(c, 3)
        assert cached.get(c, 3) is None
        assert len(cached) == 0
