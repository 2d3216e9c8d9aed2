"""Unit tests for the RPC server cost model."""

import pytest

from repro import Cluster
from repro.fabric.errors import RpcError
from repro.rpc import RpcServer

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestDispatch:
    def test_call_invokes_handler(self, cluster):
        server = RpcServer()
        server.register("echo", lambda x: x * 2)
        assert server.call(cluster.client(), "echo", 21) == 42

    def test_unknown_op_raises(self, cluster):
        with pytest.raises(RpcError):
            RpcServer().call(cluster.client(), "nope")

    def test_duplicate_registration_rejected(self):
        server = RpcServer()
        server.register("x", lambda: 1)
        with pytest.raises(RpcError):
            server.register("x", lambda: 2)


class TestCostModel:
    def test_uncontended_rpc_is_one_round_trip(self, cluster):
        # Section 3.1: an RPC "takes only one round trip over the fabric".
        server = RpcServer(service_ns=700, one_way_ns=500)
        server.register("noop", lambda: None)
        client = cluster.client()
        server.call(client, "noop")
        assert client.metrics.rpcs == 1
        assert client.metrics.round_trips == 1
        assert client.metrics.far_accesses == 0  # two-sided, not one-sided
        assert client.clock.now_ns == 500 + 700 + 500

    def test_serial_requests_queue_behind_each_other(self, cluster):
        server = RpcServer(service_ns=1000, one_way_ns=100)
        server.register("noop", lambda: None)
        a, b = cluster.client(), cluster.client()
        server.call(a, "noop")  # occupies the server [100, 1100]
        server.call(b, "noop")  # arrives at 100, starts at 1100
        assert b.clock.now_ns == 1100 + 1000 + 100
        assert server.stats.total_wait_ns == 1000

    def test_throughput_saturates_at_service_rate(self, cluster):
        server = RpcServer(service_ns=1000, one_way_ns=100)
        server.register("noop", lambda: None)
        clients = [cluster.client() for _ in range(8)]
        ops = 50
        for i in range(ops * len(clients)):
            server.call(clients[i % len(clients)], "noop")
        makespan = max(c.clock.now_ns for c in clients)
        throughput_per_ns = (ops * len(clients)) / makespan
        ceiling = 1 / server.service_ns
        assert throughput_per_ns <= ceiling * 1.01
        assert throughput_per_ns > ceiling * 0.9  # saturated, not idle

    def test_utilisation_reporting(self, cluster):
        server = RpcServer(service_ns=500, one_way_ns=100)
        server.register("noop", lambda: None)
        for _ in range(10):
            server.call(cluster.client(), "noop")
        assert 0 < server.stats.utilisation() <= 1.0
        assert server.stats.rpcs == 10

    def test_large_replies_pay_wire_time(self, cluster):
        fast, slow = cluster.client(), cluster.client()
        for client, reply_bytes in ((fast, 64), (slow, 64 * 1024)):
            server = RpcServer()  # a fresh server: no queueing behind the other call
            server.register("blob", lambda: None)
            server.call(client, "blob", reply_bytes=reply_bytes)
        assert slow.clock.now_ns > fast.clock.now_ns

    def test_per_call_service_override(self, cluster):
        server = RpcServer(service_ns=100)
        server.register("scan", lambda: None)
        client = cluster.client()
        server.call(client, "scan", service_ns=10_000)
        assert server.stats.busy_ns == 10_000
