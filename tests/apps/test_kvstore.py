"""Integration tests for the composed KV-store application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.core.registry import RegistryError
from repro.obs import Tracer

NODE_SIZE = 32 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


@pytest.fixture
def registry(cluster):
    return cluster.registry()


def make_store(cluster, registry, name="store"):
    return FarKVStore.create(cluster, registry, cluster.client(), name)


class TestBasics:
    def test_roundtrip(self, cluster, registry):
        store = make_store(cluster, registry)
        c = cluster.client()
        store.put(c, "user:42", b'{"name": "ada"}')
        assert store.get(c, "user:42") == b'{"name": "ada"}'

    def test_missing(self, cluster, registry):
        store = make_store(cluster, registry)
        assert store.get(cluster.client(), "ghost") is None
        assert not store.contains(cluster.client(), "ghost")

    def test_overwrite(self, cluster, registry):
        store = make_store(cluster, registry)
        c = cluster.client()
        store.put(c, "k", b"v1")
        store.put(c, "k", b"v2")
        assert store.get(c, "k") == b"v2"

    def test_delete(self, cluster, registry):
        store = make_store(cluster, registry)
        c = cluster.client()
        store.put(c, "k", b"v")
        assert store.delete(c, "k")
        assert store.get(c, "k") is None
        assert not store.delete(c, "k")

    def test_unicode_keys_and_binary_values(self, cluster, registry):
        store = make_store(cluster, registry)
        c = cluster.client()
        store.put(c, "clé-éè", bytes(range(256)))
        assert store.get(c, "clé-éè") == bytes(range(256))

    def test_shared_ops_counter(self, cluster, registry):
        store = make_store(cluster, registry)
        a, b = cluster.client(), cluster.client()
        store.put(a, "x", b"1")
        store.put(b, "y", b"2")
        assert store.total_operations(a) == 2


class TestDiscovery:
    def test_open_by_name(self, cluster, registry):
        store = make_store(cluster, registry, "shared")
        writer = cluster.client()
        store.put(writer, "k", b"v")
        other = FarKVStore.open(cluster, registry, cluster.client(), "shared")
        assert other.get(cluster.client(), "k") == b"v"

    def test_open_missing_raises(self, cluster, registry):
        with pytest.raises(RegistryError):
            FarKVStore.open(cluster, registry, cluster.client(), "nope")

    def test_open_wrong_kind_raises(self, cluster, registry):
        client = cluster.client()
        registry.register_counter(client, "ctr", cluster.far_counter())
        with pytest.raises(RegistryError):
            FarKVStore.open(cluster, registry, client, "ctr")

    def test_writes_visible_across_handles(self, cluster, registry):
        original = make_store(cluster, registry, "dual")
        attached = FarKVStore.open(cluster, registry, cluster.client(), "dual")
        c1, c2 = cluster.client(), cluster.client()
        original.put(c1, "from-original", b"a")
        attached.put(c2, "from-attached", b"b")
        assert attached.get(c2, "from-original") == b"a"
        assert original.get(c1, "from-attached") == b"b"


class TestReclamation:
    def test_replaced_values_reclaimed(self, cluster, registry):
        reclaimer = cluster.reclaimer()
        store = FarKVStore.create(
            cluster, registry, cluster.client(), "rc", reclaimer=reclaimer
        )
        c = cluster.client()
        pid = reclaimer.register()
        for i in range(10):
            store.put(c, "hot", f"v{i}".encode())
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        assert reclaimer.stats.reclaimed >= 9


class TestSpans:
    def test_get_cost_ledger(self, cluster, registry):
        store = make_store(cluster, registry)
        untraced = cluster.client()
        store.put(untraced, "k", b"v")
        assert untraced.tracer is None  # an op never attaches a tracer
        c = cluster.client()
        tracer = Tracer().attach(c)
        store.get(c, "k")  # warm
        store.get(c, "k")
        warm = tracer.spans_by_label("get")[-1]
        # Warm small get = index lookup (1) + blob read (1), and the
        # index lookup's own span nests inside it.
        assert warm.delta.far_accesses == 2
        (lookup,) = [s for s in tracer.spans_by_label("httree.get") if s.parent_id == warm.span_id]
        assert lookup.delta.far_accesses == 1
        assert "get" in tracer.summary()


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.text(min_size=1, max_size=12),
                st.binary(max_size=64),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_model_dict(self, script):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        registry = cluster.registry()
        store = FarKVStore.create(cluster, registry, cluster.client(), "prop")
        client = cluster.client()
        model: dict[str, bytes] = {}
        for op, key, value in script:
            if op == "put":
                store.put(client, key, value)
                model[key] = value
            elif op == "get":
                assert store.get(client, key) == model.get(key)
            else:
                assert store.delete(client, key) == (key in model)
                model.pop(key, None)
        for key, value in model.items():
            assert store.get(client, key) == value
