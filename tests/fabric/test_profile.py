"""Unit tests for the operation profiler."""

import pytest

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.fabric.profile import Profiler
from repro.obs import Tracer

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestProfiler:
    def test_attributes_costs_to_labels(self, cluster):
        client = cluster.client()
        addr = cluster.allocator.alloc_words(4)
        profiler = Profiler()
        with profiler.measure(client, "writes"):
            client.write_u64(addr, 1)
            client.write_u64(addr + 8, 2)
        with profiler.measure(client, "reads"):
            client.read_u64(addr)
        assert profiler.row("writes").far_accesses == 2
        assert profiler.row("reads").far_accesses == 1

    def test_per_op_averages(self, cluster):
        client = cluster.client()
        addr = cluster.allocator.alloc_words(1)
        profiler = Profiler()
        for _ in range(4):
            with profiler.measure(client, "op"):
                client.read_u64(addr)
        row = profiler.row("op")
        assert row.count == 4
        assert row.far_per_op() == 1.0
        assert row.ns_per_op() == client.cost_model.far_ns

    def test_exception_still_recorded(self, cluster):
        client = cluster.client()
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.measure(client, "fails"):
                client.read_u64(cluster.allocator.alloc_words(1))
                raise RuntimeError("boom")
        assert profiler.row("fails").far_accesses == 1

    def test_data_structure_profile(self, cluster):
        tree = cluster.ht_tree(bucket_count=1024)
        client = cluster.client()
        profiler = Profiler()
        with profiler.measure(client, "put"):
            tree.put(client, 1, 10)
        with profiler.measure(client, "get"):
            tree.get(client, 1)
        assert profiler.row("get").far_accesses == 1
        assert profiler.row("put").far_accesses >= 2

    def test_notifications_counted(self, cluster):
        # Deliveries land in the watcher's metrics as they arrive, so the
        # measured window must span the arrival, not just the poll.
        watcher = cluster.client()
        addr = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(watcher, addr, 8)
        profiler = Profiler()
        with profiler.measure(watcher, "wait"):
            cluster.client().write_u64(addr, 1)
            watcher.poll_notifications()
        assert profiler.row("wait").notifications == 1

    def test_render(self, cluster):
        client = cluster.client()
        profiler = Profiler()
        with profiler.measure(client, "noop"):
            pass
        text = profiler.render()
        assert "noop" in text and "far/op" in text

    def test_empty_row(self):
        row = Profiler().row("ghost")
        assert row.far_per_op() == 0.0
        assert row.ns_per_op() == 0.0

    def test_measuring_never_attaches_a_tracer(self, cluster):
        """A profiled store op leaves an untraced client untraced (free to
        attach a tracer later) and still prices every row; the ledger
        below was recorded while the profiler attached a private tracer."""
        client = cluster.client("kv")
        store = FarKVStore.create(cluster, cluster.registry(), client, "s", bucket_count=64)
        store.put(client, "a", b"1")
        assert client.tracer is None
        store.put(client, "b", b"22")
        store.get(client, "a")
        store.delete(client, "b")
        assert client.tracer is None
        assert Tracer().attach(client) is client.tracer
        assert [line.split() for line in store.report().splitlines()[2:]] == [
            ["put", "2", "8.00", "8300.0", "280", "133", "0", "0.00"],
            ["delete", "1", "6.00", "6300.0", "368", "16", "0", "0.00"],
            ["get", "1", "2.00", "2100.0", "288", "0", "0", "0.00"],
        ]
