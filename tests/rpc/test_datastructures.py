"""Unit tests for RPC-served data structures (the paper's competitors)."""

import pytest

from repro import Cluster
from repro.fabric.errors import QueueEmpty, QueueFull
from repro.rpc import RpcMap, RpcQueue, RpcServer

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


@pytest.fixture
def server():
    return RpcServer(service_ns=700)


class TestRpcMap:
    def test_roundtrip(self, cluster, server):
        m = RpcMap(server)
        c = cluster.client()
        m.put(c, 1, 10)
        assert m.get(c, 1) == 10
        assert m.get(c, 2) is None
        assert m.delete(c, 1)
        assert not m.delete(c, 1)
        assert len(m) == 0

    def test_every_op_is_exactly_one_rpc(self, cluster, server):
        m = RpcMap(server)
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        m.put(c, 1, 10)
        m.get(c, 1)
        m.delete(c, 1)
        delta = c.metrics.delta(snapshot)
        assert delta.rpcs == 3
        assert delta.round_trips == 3
        assert delta.far_accesses == 0

    def test_lookup_cost_independent_of_size(self, cluster, server):
        # The RPC advantage: server-side chains cost no extra round trips.
        m = RpcMap(server)
        c = cluster.client()
        for k in range(10_000):
            m._data[k] = k  # bulk load server-side
        snapshot = c.metrics.snapshot()
        assert m.get(c, 9_999) == 9_999
        assert c.metrics.delta(snapshot).round_trips == 1


class TestRpcQueue:
    def test_fifo(self, cluster, server):
        q = RpcQueue(server)
        c = cluster.client()
        for i in range(5):
            q.enqueue(c, i)
        assert [q.dequeue(c) for _ in range(5)] == list(range(5))

    def test_empty_raises(self, cluster, server):
        q = RpcQueue(server)
        with pytest.raises(QueueEmpty):
            q.dequeue(cluster.client())
        assert q.try_dequeue(cluster.client()) is None

    def test_capacity(self, cluster, server):
        q = RpcQueue(server, capacity=2)
        c = cluster.client()
        q.enqueue(c, 1)
        q.enqueue(c, 2)
        with pytest.raises(QueueFull):
            q.enqueue(c, 3)

    def test_size(self, cluster, server):
        q = RpcQueue(server)
        c = cluster.client()
        q.enqueue(c, 1)
        assert q.size(c) == 1


class TestSharedServer:
    def test_two_structures_one_server_share_cpu(self, cluster, server):
        # The shared-bottleneck property: ops on different structures
        # still serialize on the same memory-side processor.
        m = RpcMap(server)
        q = RpcQueue(server)
        c1, c2 = cluster.client(), cluster.client()
        m.put(c1, 1, 1)
        q.enqueue(c2, 1)
        assert server.stats.rpcs == 2
        assert c2.clock.now_ns > c1.clock.now_ns  # queued behind c1
