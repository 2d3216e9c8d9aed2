"""Unit + property tests for the one-sided B-tree baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.baselines import OneSidedBTree

NODE_SIZE = 16 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestOperations:
    def test_empty_lookup(self, cluster):
        tree = OneSidedBTree.create(cluster.allocator)
        assert tree.get(cluster.client(), 1) is None

    def test_put_get(self, cluster):
        tree = OneSidedBTree.create(cluster.allocator)
        c = cluster.client()
        tree.put(c, 5, 50)
        assert tree.get(c, 5) == 50

    def test_update(self, cluster):
        tree = OneSidedBTree.create(cluster.allocator)
        c = cluster.client()
        tree.put(c, 5, 50)
        tree.put(c, 5, 60)
        assert tree.get(c, 5) == 60
        assert len(tree) == 1

    def test_sequential_inserts_split(self, cluster):
        tree = OneSidedBTree.create(cluster.allocator, max_keys=3)
        c = cluster.client()
        for k in range(100):
            tree.put(c, k, k * 2)
        assert tree.stats.splits > 10
        assert tree.height > 2
        for k in range(100):
            assert tree.get(c, k) == k * 2

    def test_reverse_and_random_order(self, cluster):
        import random

        tree = OneSidedBTree.create(cluster.allocator, max_keys=5)
        c = cluster.client()
        keys = list(range(200))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.put(c, k, k + 1)
        for k in range(200):
            assert tree.get(c, k) == k + 1

    def test_fanout_must_be_odd(self, cluster):
        with pytest.raises(ValueError):
            OneSidedBTree.create(cluster.allocator, max_keys=4)


class TestAccessScaling:
    """Section 1: trees take O(log n) far accesses per lookup."""

    def test_lookup_cost_grows_with_height(self, cluster):
        tree = OneSidedBTree.create(cluster.allocator, max_keys=3)
        c = cluster.client()
        costs = {}
        for n in (10, 100, 1000):
            while len(tree) < n:
                tree.put(c, len(tree) * 17 % 100_000, 1)
            key = 17  # present from the start
            snapshot = c.metrics.snapshot()
            tree.get(c, key)
            costs[n] = c.metrics.delta(snapshot).far_accesses
        assert costs[1000] > costs[10]
        # Logarithmic, not linear: 100x the items, far less than 100x cost.
        assert costs[1000] < costs[10] * 10

    def test_level_caching_cuts_lookup_accesses(self, cluster):
        def load(tree, client):
            for k in range(500):
                tree.put(client, k, k)

        uncached = OneSidedBTree.create(cluster.allocator, max_keys=5, cache_levels=0)
        cached = OneSidedBTree.create(cluster.allocator, max_keys=5, cache_levels=2)
        c1, c2 = cluster.client(), cluster.client()
        load(uncached, c1)
        load(cached, c2)
        cached.get(c2, 123)  # warm the cached levels

        s1 = c1.metrics.snapshot()
        uncached.get(c1, 123)
        cost_uncached = c1.metrics.delta(s1).far_accesses

        s2 = c2.metrics.snapshot()
        cached.get(c2, 123)
        cost_cached = c2.metrics.delta(s2).far_accesses

        assert cost_cached < cost_uncached
        # And the price: client memory for the cached levels.
        assert cached.cache_bytes(c2) > 0


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=1 << 30),
            min_size=1,
            max_size=120,
        )
    )
    def test_matches_model_dict(self, model):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        tree = OneSidedBTree.create(cluster.allocator, max_keys=3)
        client = cluster.client()
        for key, value in model.items():
            tree.put(client, key, value)
        for key, value in model.items():
            assert tree.get(client, key) == value
        assert tree.get(client, 10_001) is None
        assert len(tree) == len(model)
