"""Unit tests for the skip-list strawman."""

import pytest

from repro import Cluster
from repro.baselines import FarSkipList

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestSkipList:
    def test_put_get(self, cluster):
        sl = FarSkipList.create(cluster.allocator, seed=1)
        c = cluster.client()
        sl.put(c, 10, 100)
        sl.put(c, 5, 50)
        sl.put(c, 20, 200)
        assert sl.get(c, 10) == 100
        assert sl.get(c, 5) == 50
        assert sl.get(c, 20) == 200
        assert sl.get(c, 15) is None

    def test_update(self, cluster):
        sl = FarSkipList.create(cluster.allocator, seed=1)
        c = cluster.client()
        sl.put(c, 10, 1)
        sl.put(c, 10, 2)
        assert sl.get(c, 10) == 2
        assert len(sl) == 1

    def test_many_keys(self, cluster):
        import random

        sl = FarSkipList.create(cluster.allocator, seed=7)
        c = cluster.client()
        keys = random.Random(0).sample(range(100_000), 300)
        for k in keys:
            sl.put(c, k, k ^ 0xFF)
        for k in keys:
            assert sl.get(c, k) == k ^ 0xFF

    def test_lookup_cost_is_logarithmic(self, cluster):
        import random

        sl = FarSkipList.create(cluster.allocator, seed=3)
        c = cluster.client()
        keys = random.Random(1).sample(range(1_000_000), 500)
        for k in keys:
            sl.put(c, k, 1)
        target = sorted(keys)[250]
        snapshot = c.metrics.snapshot()
        sl.get(c, target)
        cost = c.metrics.delta(snapshot).far_accesses
        # O(log n) far accesses: far below a linear scan, above 1.
        assert 2 <= cost < 100

    def test_deterministic_with_seed(self, cluster):
        results = []
        for _ in range(2):
            sl = FarSkipList.create(cluster.allocator, seed=9)
            c = cluster.client()
            for k in range(50):
                sl.put(c, k, k)
            results.append(sl.stats.node_reads)
        assert results[0] == results[1]
