"""Unit tests for the Cluster convenience wiring."""

import pytest

from repro import Cluster, IndirectionPolicy
from repro.fabric import CostModel, InterleavedPlacement, RangePlacement

NODE_SIZE = 8 << 20


class TestConstruction:
    def test_default_is_range_placed(self):
        cluster = Cluster(node_count=3, node_size=NODE_SIZE)
        assert isinstance(cluster.fabric.placement, RangePlacement)
        assert cluster.fabric.placement.node_count == 3

    def test_interleaved(self):
        cluster = Cluster(
            node_count=2, node_size=NODE_SIZE, interleaved=True,
            interleave_granularity=8192,
        )
        assert isinstance(cluster.fabric.placement, InterleavedPlacement)
        assert cluster.fabric.placement.granularity == 8192

    def test_indirection_policy_threads_through(self):
        cluster = Cluster(
            node_count=2, node_size=NODE_SIZE,
            indirection_policy=IndirectionPolicy.ERROR,
        )
        assert cluster.fabric.indirection_policy is IndirectionPolicy.ERROR

    def test_latencies_are_the_papers_constants(self):
        # Section 3.1's latencies are constants, not a constructor option.
        with pytest.raises(TypeError):
            Cluster(node_count=1, node_size=NODE_SIZE, cost_model=CostModel())
        model = Cluster(node_count=1, node_size=NODE_SIZE).client().cost_model
        assert model.far_ns == 1_000.0
        assert model.near_ns == 100.0

    def test_notifications_attached(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        assert cluster.fabric._notifier is cluster.notifications


class TestClients:
    def test_client_registration(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        a = cluster.client("a")
        b = cluster.client()
        assert cluster.clients == [a, b]
        assert a.name == "a"

    def test_total_metrics(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        a, b = cluster.client(), cluster.client()
        addr = cluster.allocator.alloc_words(1)
        a.write_u64(addr, 1)
        b.read_u64(addr)
        b.read_u64(addr)
        assert cluster.total_metrics().far_accesses == 3


class TestFactories:
    @pytest.fixture
    def cluster(self):
        return Cluster(node_count=1, node_size=NODE_SIZE)

    def test_every_factory_builds(self, cluster):
        client = cluster.client()
        assert cluster.far_counter().read(client) == 0
        assert cluster.far_vector(4).get(client, 0) == 0
        assert cluster.far_mutex().try_acquire(client)
        assert cluster.far_barrier(1).arrive(client).is_last
        tree = cluster.ht_tree(bucket_count=16)
        tree.put(client, 1, 1)
        queue = cluster.far_queue(capacity=16, max_clients=2)
        queue.enqueue(client, 1)
        vector = cluster.refreshable_vector(8, group_size=4)
        vector.set(client, 0, 1)
        assert cluster.far_rwlock().try_acquire_read(client)
        assert cluster.far_semaphore(1).try_acquire(client)
        registry = cluster.registry(capacity=8)
        registry.register(client, "n", 1, b"p")
        reclaimer = cluster.reclaimer()
        assert reclaimer.stats.pending == 0

    def test_repr(self, cluster):
        cluster.client()
        assert "clients=1" in repr(cluster)
