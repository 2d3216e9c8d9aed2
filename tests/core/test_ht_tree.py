"""Unit + property tests for the HT-tree map (section 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.core.ht_tree import LEAF, hash_u64
from repro.fabric.errors import StaleCacheError
from repro.fabric.wire import U64_MASK
from repro.obs import Tracer

NODE_SIZE = 16 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


def make_tree(cluster, **kwargs):
    defaults = dict(bucket_count=64, max_chain=4)
    defaults.update(kwargs)
    return cluster.ht_tree(**defaults)


class TestBasicOperations:
    def test_get_missing(self, cluster):
        tree = make_tree(cluster)
        assert tree.get(cluster.client(), 42) is None

    def test_put_get(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 1, 100)
        assert tree.get(c, 1) == 100

    def test_update_in_place(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 1, 100)
        tree.put(c, 1, 200)
        assert tree.get(c, 1) == 200
        assert tree.stats.updates == 1
        assert len(tree) == 1

    def test_many_keys(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        for k in range(1000):
            tree.put(c, k * 13 + 1, k)
        for k in range(1000):
            assert tree.get(c, k * 13 + 1) == k
        assert len(tree) == 1000

    def test_delete(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 5, 50)
        assert tree.delete(c, 5)
        assert tree.get(c, 5) is None
        assert not tree.delete(c, 5)
        assert len(tree) == 0

    def test_delete_from_chain_interior(self, cluster):
        # Force several keys into one bucket with a tiny table.
        tree = make_tree(cluster, bucket_count=1, max_chain=100)
        c = cluster.client()
        for k in [1, 2, 3, 4]:
            tree.put(c, k, k * 10)
        assert tree.delete(c, 2)
        assert tree.get(c, 2) is None
        for k in [1, 3, 4]:
            assert tree.get(c, k) == k * 10

    def test_boundary_keys(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 0, 1)
        tree.put(c, U64_MASK, 2)
        assert tree.get(c, 0) == 1
        assert tree.get(c, U64_MASK) == 2

    def test_key_validation(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        with pytest.raises(ValueError):
            tree.put(c, -1, 0)
        with pytest.raises(ValueError):
            tree.get(c, 1 << 64)

    def test_zero_value_distinct_from_missing(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 7, 0)
        assert tree.get(c, 7) == 0
        assert tree.get(c, 8) is None


class TestFarAccessClaims:
    """Section 5.2: lookups in one far access, stores in two."""

    def test_lookup_hit_is_one_far_access(self, cluster):
        tree = make_tree(cluster, bucket_count=4096)
        c = cluster.client()
        tree.put(c, 12345, 1)
        tree.get(c, 12345)  # warm the tree cache
        snapshot = c.metrics.snapshot()
        assert tree.get(c, 12345) == 1
        assert c.metrics.delta(snapshot).far_accesses == 1

    def test_lookup_miss_is_one_far_access(self, cluster):
        tree = make_tree(cluster, bucket_count=4096)
        c = cluster.client()
        tree.get(c, 1)  # warm cache
        snapshot = c.metrics.snapshot()
        assert tree.get(c, 999) is None
        assert c.metrics.delta(snapshot).far_accesses == 1

    def test_update_is_two_far_accesses(self, cluster):
        tree = make_tree(cluster, bucket_count=4096)
        c = cluster.client()
        tree.put(c, 5, 1)
        snapshot = c.metrics.snapshot()
        tree.put(c, 5, 2)  # update head-of-chain in place
        assert c.metrics.delta(snapshot).far_accesses == 2

    def test_insert_is_three_far_accesses(self, cluster):
        tree = make_tree(cluster, bucket_count=4096)
        c = cluster.client()
        tree.get(c, 1)  # warm cache
        snapshot = c.metrics.snapshot()
        tree.put(c, 42, 1)  # fresh key: check + record write + CAS
        assert c.metrics.delta(snapshot).far_accesses == 3

    def test_chain_hops_add_reads(self, cluster):
        tree = make_tree(cluster, bucket_count=1, max_chain=100)
        c = cluster.client()
        for k in range(5):
            tree.put(c, k, k)
        tree.get(c, 0)
        snapshot = c.metrics.snapshot()
        # Key 0 was inserted first: it is deepest in the chain (head is 4).
        tree.get(c, 0)
        assert c.metrics.delta(snapshot).far_accesses == 5

    def test_cache_traversal_is_near_memory(self, cluster):
        tree = make_tree(cluster, bucket_count=4096)
        c = cluster.client()
        tree.put(c, 1, 1)
        near_before = c.metrics.near_accesses
        tree.get(c, 1)
        assert c.metrics.near_accesses > near_before


class TestSplits:
    def test_split_triggers_on_collisions(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=3)
        c = cluster.client()
        for k in range(200):
            tree.put(c, k, k)
        assert tree.stats.splits >= 1
        assert tree.leaf_count() > 1
        for k in range(200):
            assert tree.get(c, k) == k, k

    def test_split_preserves_all_items(self, cluster):
        tree = make_tree(cluster, bucket_count=4, max_chain=2)
        c = cluster.client()
        keys = [k * 1000003 % (1 << 40) for k in range(150)]
        for k in keys:
            tree.put(c, k, k & 0xFFFF)
        for k in keys:
            assert tree.get(c, k) == k & 0xFFFF

    def test_other_tables_unaffected_by_split(self, cluster):
        # Section 5.2: "it is split and added to the tree, without
        # affecting the other hash tables."
        tree = make_tree(cluster, bucket_count=8, max_chain=3, initial_leaves=4)
        c = cluster.client()
        low_keys = list(range(100))  # leaf 0 only
        for k in low_keys:
            tree.put(c, k, k)
        splits = tree.stats.splits
        assert splits >= 1
        # Tables for the other ranges never split.
        assert tree.leaf_count() == 4 + splits

    def test_stale_client_detects_split_via_tombstone(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=3)
        writer = cluster.client()
        reader = cluster.client()
        tree.put(writer, 1, 11)
        assert tree.get(reader, 1) == 11  # reader caches the tree
        for k in range(2, 200):  # force splits via the writer
            tree.put(writer, k, k)
        assert tree.stats.splits >= 1
        stale_before = tree.stats.stale_refreshes
        assert tree.get(reader, 1) == 11  # stale cache must self-heal
        assert tree.stats.stale_refreshes > stale_before

    def test_stale_retry_is_one_lookup_in_one_span(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=3)
        writer = cluster.client()
        reader = cluster.client()
        tree.put(writer, 1, 11)
        assert tree.get(reader, 1) == 11
        for k in range(2, 200):
            tree.put(writer, k, k)
        stale_before = tree.stats.stale_refreshes
        lookups_before = tree.stats.lookups
        tracer = Tracer()
        tracer.attach(reader)
        assert tree.get(reader, 1) == 11
        tracer.finish()
        # The refresh-and-retry happens inside the one logical lookup.
        assert tree.stats.stale_refreshes > stale_before
        assert tree.stats.lookups == lookups_before + 1
        assert len(tracer.spans_by_label("httree.get")) == 1

    @pytest.mark.parametrize(
        "op",
        [
            lambda tree, c: tree.get(c, 1),
            lambda tree, c: tree.put(c, 1, 12),
            lambda tree, c: tree.delete(c, 1),
        ],
        ids=["get", "put", "delete"],
    )
    def test_a_cache_that_stays_stale_fails_after_five_refreshes(self, cluster, monkeypatch, op):
        tree = make_tree(cluster, bucket_count=8, max_chain=3)
        writer = cluster.client()
        reader = cluster.client()
        tree.put(writer, 1, 11)
        assert tree.get(reader, 1) == 11  # reader caches the one-leaf tree
        cache = tree._caches[reader.client_id]
        old = (cache.version, cache.region, cache.uppers, cache.leaves, cache.depth)
        for k in range(2, 200):
            tree.put(writer, k, k)
        assert tree.stats.splits >= 1  # the old leaf's table is tombstoned
        load = tree._load_cache

        def reload_the_old_leaves(client, cache):
            load(client, cache)
            if client is reader:
                cache.version, cache.region, cache.uppers, cache.leaves, cache.depth = old

        monkeypatch.setattr(tree, "_load_cache", reload_the_old_leaves)
        refreshes = tree.stats.stale_refreshes
        with pytest.raises(StaleCacheError, match="failed to converge"):
            op(tree, reader)
        assert tree.stats.stale_refreshes == refreshes + 5
        monkeypatch.undo()
        assert tree.get(reader, 1) == 11  # a true reload heals the cache

    def test_notify_mode_invalidates_eagerly(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=3, cache_mode="notify")
        writer = cluster.client()
        reader = cluster.client()
        tree.put(writer, 1, 11)
        assert tree.get(reader, 1) == 11
        for k in range(2, 200):
            tree.put(writer, k, k)
        assert tree.stats.splits >= 1
        assert tree.get(reader, 1) == 11
        assert tree.stats.notify_invalidations >= 1


class TestCacheFootprint:
    def test_cache_is_leaves_only(self, cluster):
        # Section 5.2 scaling: client cache is one entry per hash table,
        # not per item.
        tree = make_tree(cluster, bucket_count=16, max_chain=4)
        c = cluster.client()
        for k in range(500):
            tree.put(c, k, k)
        expected = tree.leaf_count() * LEAF.size
        assert tree.cache_bytes(c) == expected
        assert tree.cache_bytes(c) < 500 * 32  # far below item storage


class TestScan:
    def test_scan_returns_sorted_range(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        for k in range(0, 100, 3):
            tree.put(c, k, k * 10)
        result = tree.scan(c, 10, 40)
        assert result == [(k, k * 10) for k in range(12, 41, 3)]

    def test_scan_empty_range(self, cluster):
        tree = make_tree(cluster)
        c = cluster.client()
        tree.put(c, 5, 50)
        assert tree.scan(c, 100, 200) == []
        assert tree.scan(c, 10, 5) == []

    def test_scan_whole_keyspace(self, cluster):
        from repro.fabric.wire import U64_MASK

        tree = make_tree(cluster)
        c = cluster.client()
        keys = {k * 7919 % 100_000: k for k in range(200)}
        for key, value in keys.items():
            tree.put(c, key, value)
        result = tree.scan(c, 0, U64_MASK)
        assert result == sorted(keys.items())

    def test_scan_across_splits(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=2)
        c = cluster.client()
        for k in range(300):
            tree.put(c, k, k + 1)
        assert tree.stats.splits >= 1
        assert tree.scan(c, 50, 250) == [(k, k + 1) for k in range(50, 251)]

    def test_scan_touches_only_overlapping_tables(self, cluster):
        tree = make_tree(cluster, bucket_count=64, initial_leaves=8)
        c = cluster.client()
        step = ((1 << 64) // 8)
        for i in range(8):
            tree.put(c, i * step + 1, i)
        tree.scan(c, 0, 1)  # warm cache
        snapshot = c.metrics.snapshot()
        tree.scan(c, 0, step - 1)  # one leaf's range only
        # One bucket-array read + one chain gather for a single table.
        assert c.metrics.delta(snapshot).far_accesses <= 2

    def test_stale_scan_self_heals(self, cluster):
        tree = make_tree(cluster, bucket_count=8, max_chain=2)
        writer, reader = cluster.client(), cluster.client()
        tree.put(writer, 1, 11)
        assert tree.scan(reader, 0, 10) == [(1, 11)]  # reader caches tree
        for k in range(2, 200):
            tree.put(writer, k, k)
        assert tree.stats.splits >= 1
        result = tree.scan(reader, 0, 10)
        assert result == [(k, 11 if k == 1 else k) for k in range(1, 11)]


class TestHash:
    def test_hash_is_deterministic(self):
        assert hash_u64(12345) == hash_u64(12345)

    def test_hash_spreads(self):
        buckets = [hash_u64(k) % 64 for k in range(1000)]
        counts = [buckets.count(b) for b in range(64)]
        assert max(counts) < 40  # no catastrophic clustering


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=1 << 30),
            ),
            min_size=1,
            max_size=150,
        )
    )
    def test_matches_model_dict(self, script):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        tree = cluster.ht_tree(bucket_count=8, max_chain=3)
        client = cluster.client()
        model: dict[int, int] = {}
        for op, key, value in script:
            if op == "put":
                tree.put(client, key, value)
                model[key] = value
            elif op == "get":
                assert tree.get(client, key) == model.get(key)
            else:
                assert tree.delete(client, key) == (key in model)
                model.pop(key, None)
        for key, value in model.items():
            assert tree.get(client, key) == value
        assert len(tree) == len(model)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 16))
    def test_two_clients_converge(self, seed):
        import random

        rng = random.Random(seed)
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        tree = cluster.ht_tree(bucket_count=8, max_chain=3)
        clients = [cluster.client(), cluster.client()]
        model: dict[int, int] = {}
        for _ in range(120):
            client = clients[rng.randrange(2)]
            key = rng.randrange(100)
            value = rng.randrange(1 << 20)
            tree.put(client, key, value)
            model[key] = value
        for key, value in model.items():
            for client in clients:
                assert tree.get(client, key) == value
