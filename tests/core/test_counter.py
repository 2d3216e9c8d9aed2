"""Unit tests for far counters (section 5.1)."""

import pytest

from repro.core.counter import FarCounter
from repro.fabric.wire import U64_MASK


@pytest.fixture
def client(cluster):
    return cluster.client()


class TestFarCounter:
    def test_initial_value(self, cluster, client):
        counter = FarCounter.create(cluster.allocator, initial=7)
        assert counter.read(client) == 7

    def test_add_returns_old(self, cluster, client):
        counter = cluster.far_counter()
        assert counter.add(client, 5) == 0
        assert counter.add(client, 3) == 5
        assert counter.read(client) == 8

    def test_increment_decrement(self, cluster, client):
        counter = cluster.far_counter()
        counter.increment(client)
        counter.increment(client)
        counter.decrement(client)
        assert counter.read(client) == 1

    def test_decrement_below_zero_wraps(self, cluster, client):
        counter = cluster.far_counter()
        counter.decrement(client)
        assert counter.read(client) == U64_MASK

    def test_set(self, cluster, client):
        counter = cluster.far_counter()
        counter.set(client, 1000)
        assert counter.read(client) == 1000

    def test_compare_and_set(self, cluster, client):
        counter = cluster.far_counter()
        assert counter.compare_and_set(client, 0, 5)
        assert not counter.compare_and_set(client, 0, 9)
        assert counter.read(client) == 5

    def test_every_operation_is_one_far_access(self, cluster, client):
        counter = cluster.far_counter()
        snapshot = client.metrics.snapshot()
        counter.read(client)
        counter.set(client, 1)
        counter.add(client, 2)
        counter.increment(client)
        counter.compare_and_set(client, 5, 6)
        assert client.metrics.delta(snapshot).far_accesses == 5

    def test_shared_across_clients(self, cluster):
        counter = cluster.far_counter()
        clients = [cluster.client() for _ in range(4)]
        for c in clients:
            for _ in range(10):
                counter.increment(c)
        assert counter.read(clients[0]) == 40

    def test_attach(self, cluster, client):
        counter = cluster.far_counter()
        counter.set(client, 3)
        adopted = FarCounter.attach(counter.address)
        assert adopted.read(client) == 3

    def test_creation_charges_no_client(self, cluster):
        client = cluster.client()
        FarCounter.create(cluster.allocator, initial=5)
        assert client.metrics.far_accesses == 0
