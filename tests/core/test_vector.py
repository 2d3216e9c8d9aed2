"""Unit tests for far vectors and their subscriptions."""

import pytest

from repro import Cluster
from repro.core.vector import FarVector
from repro.fabric.errors import AddressError
from repro.fabric.wire import WORD

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


@pytest.fixture
def client(cluster):
    return cluster.client()


@pytest.fixture
def vector(cluster):
    return cluster.far_vector(32)


class TestFarVector:
    def test_starts_zeroed(self, vector, client):
        assert vector.get(client, 0) == 0
        assert vector.get(client, 31) == 0

    def test_set_get(self, vector, client):
        vector.set(client, 5, 99)
        assert vector.get(client, 5) == 99

    def test_element_ops_are_one_far_access(self, vector, client):
        snapshot = client.metrics.snapshot()
        vector.set(client, 1, 10)
        vector.get(client, 1)
        vector.add(client, 1, 5)
        assert client.metrics.delta(snapshot).far_accesses == 3

    def test_add_returns_old(self, vector, client):
        vector.set(client, 2, 7)
        assert vector.add(client, 2, 3) == 7
        assert vector.get(client, 2) == 10

    def test_index_bounds(self, vector, client):
        with pytest.raises(AddressError):
            vector.get(client, 32)
        with pytest.raises(AddressError):
            vector.set(client, -1, 0)

    def test_read_range(self, vector, client):
        for i in range(32):
            vector.set(client, i, i)
        assert vector.read_range(client, 10, 5).tolist() == [10, 11, 12, 13, 14]

    def test_length_validation(self, cluster):
        with pytest.raises(ValueError):
            FarVector.create(cluster.allocator, 0)


class TestBaseSwitch:
    def test_swap_base_redirects_all_access(self, cluster, client, vector):
        vector.set(client, 0, 1)
        new_storage = cluster.allocator.alloc(32 * WORD)
        cluster.fabric.write(new_storage, b"\x00" * 32 * WORD)
        old = vector.swap_base(client, new_storage)
        assert vector.get(client, 0) == 0  # new storage is fresh
        vector.set(client, 0, 42)
        assert cluster.fabric.read_word(new_storage) == 42
        assert cluster.fabric.read_word(old) == 1  # old region intact

    def test_base_subscription_carries_new_base(self, cluster, client, vector):
        watcher = cluster.client()
        vector.subscribe_base(cluster.notifications, watcher)
        new_storage = cluster.allocator.alloc(32 * WORD)
        vector.swap_base(client, new_storage)
        ns = watcher.poll_notifications()
        assert len(ns) == 1
        from repro.fabric.wire import decode_u64

        assert decode_u64(ns[0].data) == new_storage


class TestSubscriptions:
    def test_subscribe_range_fires_on_element_write(self, cluster, client, vector):
        watcher = cluster.client()
        base = vector.base(watcher)
        vector.subscribe_range(cluster.notifications, watcher, base, 4, 4)
        vector.set(client, 5, 1)  # inside
        vector.set(client, 20, 1)  # outside
        assert watcher.pending_notifications() == 1

    def test_subscribe_value(self, cluster, client, vector):
        watcher = cluster.client()
        base = vector.base(watcher)
        cluster.notifications.notifye(watcher, base + 3 * WORD, 7)
        vector.set(client, 3, 5)
        assert watcher.pending_notifications() == 0
        vector.set(client, 3, 7)
        assert watcher.pending_notifications() == 1

    def test_subscribe_range_bounds(self, cluster, client, vector):
        base = vector.base(client)
        with pytest.raises(AddressError):
            vector.subscribe_range(cluster.notifications, client, base, 30, 5)

    def test_large_vector_subscription_splits_pages(self, cluster):
        vector = cluster.far_vector(2048)  # 16 KiB: 4+ pages
        watcher = cluster.client()
        base = vector.base(watcher)
        subs = vector.subscribe_range(cluster.notifications, watcher, base, 0, 2048)
        assert len(subs) >= 4

