"""Unit tests for the traditional one-sided hash table strawman."""

import pytest

from repro.baselines import OneSidedHashMap


@pytest.fixture
def table(cluster):
    return OneSidedHashMap.create(cluster.allocator, bucket_count=64)


class TestOperations:
    def test_get_missing(self, cluster, table):
        assert table.get(cluster.client(), 1) is None

    def test_put_get(self, cluster, table):
        c = cluster.client()
        table.put(c, 1, 10)
        assert table.get(c, 1) == 10

    def test_update(self, cluster, table):
        c = cluster.client()
        table.put(c, 1, 10)
        table.put(c, 1, 20)
        assert table.get(c, 1) == 20
        assert len(table) == 1

    def test_chained_collisions(self, cluster):
        table = OneSidedHashMap.create(cluster.allocator, bucket_count=1)
        c = cluster.client()
        for k in range(10):
            table.put(c, k, k * 2)
        for k in range(10):
            assert table.get(c, k) == k * 2

    def test_delete_head_and_interior(self, cluster):
        table = OneSidedHashMap.create(cluster.allocator, bucket_count=1)
        c = cluster.client()
        for k in [1, 2, 3]:
            table.put(c, k, k)
        assert table.delete(c, 2)  # interior
        assert table.delete(c, 3)  # head (most recent insert)
        assert table.get(c, 1) == 1
        assert table.get(c, 2) is None
        assert not table.delete(c, 99)

    def test_shared_between_clients(self, cluster, table):
        c1, c2 = cluster.client(), cluster.client()
        table.put(c1, 5, 50)
        assert table.get(c2, 5) == 50

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            OneSidedHashMap.create(cluster.allocator, bucket_count=0)


class TestAccessCounts:
    """The section 1 mismatch: >= 2 far accesses per lookup."""

    def test_lookup_hit_is_at_least_two_accesses(self, cluster, table):
        c = cluster.client()
        table.put(c, 7, 70)
        snapshot = c.metrics.snapshot()
        table.get(c, 7)
        assert c.metrics.delta(snapshot).far_accesses >= 2

    def test_empty_bucket_miss_is_one_access(self, cluster, table):
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        table.get(c, 7)
        assert c.metrics.delta(snapshot).far_accesses == 1

    def test_chain_length_increases_accesses(self, cluster):
        table = OneSidedHashMap.create(cluster.allocator, bucket_count=1)
        c = cluster.client()
        for k in range(5):
            table.put(c, k, k)
        snapshot = c.metrics.snapshot()
        table.get(c, 0)  # deepest (first inserted, last in chain)
        assert c.metrics.delta(snapshot).far_accesses == 1 + 5

    def test_find_address(self, cluster, table):
        c = cluster.client()
        table.put(c, 3, 30)
        addr = table.find_address(c, 3)
        assert addr is not None
        assert table.find_address(c, 99) is None
