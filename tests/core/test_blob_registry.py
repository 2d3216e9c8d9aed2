"""Unit tests for the blob store and the naming registry."""

import pytest

from repro import Cluster
from repro.alloc import EpochReclaimer
from repro.core.blob import FarBlobStore
from repro.core.registry import FarRegistry, RegistryError, name_hash

NODE_SIZE = 16 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestBlobStore:
    @pytest.fixture
    def store(self, cluster):
        return FarBlobStore.create(cluster.allocator, cluster.ht_tree())

    def test_roundtrip(self, cluster, store):
        c = cluster.client()
        store.put(c, 1, b"hello far memory")
        assert store.get(c, 1) == b"hello far memory"

    def test_missing(self, cluster, store):
        assert store.get(cluster.client(), 404) is None
        assert store.length(cluster.client(), 404) is None

    def test_empty_blob(self, cluster, store):
        c = cluster.client()
        store.put(c, 2, b"")
        assert store.get(c, 2) == b""
        assert store.length(c, 2) == 0

    def test_replace(self, cluster, store):
        c = cluster.client()
        store.put(c, 3, b"old")
        store.put(c, 3, b"new value")
        assert store.get(c, 3) == b"new value"

    def test_large_blob_two_phase_read(self, cluster, store):
        c = cluster.client()
        big = bytes(range(256)) * 8  # 2 KiB > inline hint
        store.put(c, 4, big)
        assert store.get(c, 4) == big
        assert store.stats.overflow_reads == 1

    def test_small_blob_get_is_two_far_accesses(self, cluster, store):
        c = cluster.client()
        store.put(c, 5, b"tiny")
        store.get(c, 5)  # warm tree cache
        snapshot = c.metrics.snapshot()
        store.get(c, 5)
        assert c.metrics.delta(snapshot).far_accesses == 2

    def test_delete(self, cluster, store):
        c = cluster.client()
        store.put(c, 6, b"bye")
        assert store.delete(c, 6)
        assert store.get(c, 6) is None
        assert not store.delete(c, 6)

    def test_reclaimer_recycles_regions(self, cluster):
        reclaimer = EpochReclaimer(cluster.allocator)
        store = FarBlobStore.create(
            cluster.allocator, cluster.ht_tree(), reclaimer=reclaimer
        )
        c = cluster.client()
        pid = reclaimer.register()
        store.put(c, 1, b"v1")
        store.put(c, 1, b"v2")  # retires v1's region
        store.delete(c, 1)  # retires v2's region
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        assert reclaimer.stats.reclaimed == 2


class TestNameHash:
    def test_stable(self):
        assert name_hash("jobs") == name_hash("jobs")

    def test_distinct(self):
        assert name_hash("a") != name_hash("b")

    def test_never_sentinel(self):
        for name in ("", "x", "collision-probe"):
            assert name_hash(name) not in (0, 1)


class TestRegistry:
    @pytest.fixture
    def registry(self, cluster):
        return cluster.registry(capacity=16)

    def test_raw_roundtrip(self, cluster, registry):
        c = cluster.client()
        registry.register(c, "blob", 1, b"payload")
        assert registry.lookup(c, "blob") == (1, b"payload")

    def test_missing(self, cluster, registry):
        assert registry.lookup(cluster.client(), "nope") is None

    def test_duplicate_rejected(self, cluster, registry):
        c = cluster.client()
        registry.register(c, "x", 1, b"1")
        with pytest.raises(RegistryError):
            registry.register(c, "x", 1, b"2")

    def test_unregister_and_reuse(self, cluster, registry):
        c = cluster.client()
        registry.register(c, "temp", 1, b"1")
        assert registry.unregister(c, "temp")
        assert registry.lookup(c, "temp") is None
        registry.register(c, "temp", 1, b"2")  # tombstone slot reused
        assert registry.lookup(c, "temp") == (1, b"2")

    def test_probing_past_tombstones(self, cluster, registry):
        c = cluster.client()
        names = [f"svc-{i}" for i in range(10)]
        for name in names:
            registry.register(c, name, 1, name.encode())
        registry.unregister(c, names[3])
        for name in names:
            expected = None if name == names[3] else (1, name.encode())
            assert registry.lookup(c, name) == expected

    def test_capacity_exhaustion(self, cluster):
        registry = cluster.registry(capacity=4)
        c = cluster.client()
        for i in range(4):
            registry.register(c, f"n{i}", 1, b"x")
        with pytest.raises(RegistryError):
            registry.register(c, "overflow", 1, b"x")

    def test_attach_by_address(self, cluster, registry):
        c = cluster.client()
        registry.register(c, "k", 1, b"v")
        adopted = FarRegistry.attach(cluster.allocator, registry.base, c)
        assert adopted.capacity == registry.capacity
        assert adopted.lookup(c, "k") == (1, b"v")


class TestTypedRegistry:
    def test_counter(self, cluster):
        registry = cluster.registry()
        c1, c2 = cluster.client(), cluster.client()
        counter = cluster.far_counter()
        counter.add(c1, 41)
        registry.register_counter(c1, "hits", counter)
        adopted = registry.lookup_counter(c2, "hits")
        adopted.increment(c2)
        assert counter.read(c1) == 42

    def test_queue(self, cluster):
        registry = cluster.registry()
        producer, consumer = cluster.client(), cluster.client()
        queue = cluster.far_queue(capacity=32, max_clients=4)
        registry.register_queue(producer, "jobs", queue)
        queue.enqueue(producer, 5)
        adopted = registry.lookup_queue(consumer, "jobs")
        assert adopted.dequeue(consumer) == 5

    def test_kind_mismatch(self, cluster):
        registry = cluster.registry()
        c = cluster.client()
        registry.register_counter(c, "thing", cluster.far_counter())
        with pytest.raises(RegistryError):
            registry.lookup_queue(c, "thing")

    def test_lookup_missing_typed(self, cluster):
        registry = cluster.registry()
        assert registry.lookup_counter(cluster.client(), "ghost") is None
