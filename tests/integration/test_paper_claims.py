"""Integration tests asserting the paper's quantified claims end to end.

Each test here corresponds to a claim row in DESIGN.md section 1 and an
experiment in EXPERIMENTS.md; benchmarks produce the numbers, these tests
pin the *direction* of every comparison so regressions are caught by CI.
"""

import pytest

from repro import Cluster
from repro.baselines import OneSidedBTree, OneSidedHashMap
from repro.rpc import RpcMap, RpcServer
from repro.workloads import Uniform

NODE_SIZE = 32 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


def lookup_cost(structure, client, keys, **kwargs):
    snapshot = client.metrics.snapshot()
    for key in keys:
        structure.get(client, int(key))
    return client.metrics.delta(snapshot)


class TestClaimC2OneSidedVsRpc:
    """C2: a one-sided structure wins iff it takes ~1 far access per op."""

    def test_traditional_hash_loses_to_rpc_on_round_trips(self, cluster):
        keys = Uniform(1 << 32, seed=1).sample_unique(200)
        table = OneSidedHashMap.create(cluster.allocator, bucket_count=64)
        loader = cluster.client()
        for key in keys:
            table.put(loader, int(key), 1)
        server = RpcServer()
        rpc_map = RpcMap(server)
        for key in keys:
            rpc_map._data[int(key)] = 1

        c_onesided, c_rpc = cluster.client(), cluster.client()
        onesided = lookup_cost(table, c_onesided, keys)
        snapshot = c_rpc.metrics.snapshot()
        for key in keys:
            rpc_map.get(c_rpc, int(key))
        rpc = c_rpc.metrics.delta(snapshot)
        # The strawman needs strictly more round trips than RPC.
        assert onesided.round_trips > rpc.round_trips

    def test_ht_tree_matches_rpc_round_trips(self, cluster):
        keys = Uniform(1 << 32, seed=2).sample_unique(200)
        tree = cluster.ht_tree(bucket_count=8192, max_chain=8)
        client = cluster.client()
        for key in keys:
            tree.put(client, int(key), 1)
        reader = cluster.client()
        tree.get(reader, int(keys[0]))  # warm cache
        cost = lookup_cost(tree, reader, keys)
        # Section 3.1's bar: ~one far access per lookup, like one RPC.
        assert cost.far_accesses <= len(keys) * 1.1


class TestClaimC3PrimitivesSaveRoundTrips:
    """C3: each Fig. 1 primitive removes round trips vs its emulation."""

    def test_indirect_load_halves_accesses(self, cluster):
        client = cluster.client()
        pointer = cluster.allocator.alloc_words(1)
        target = cluster.allocator.alloc_words(1)
        client.write_u64(pointer, target)
        client.write_u64(target, 5)

        snapshot = client.metrics.snapshot()
        addr = client.read_u64(pointer)  # emulation: 2 dependent reads
        client.read_u64(addr)
        emulated = client.metrics.delta(snapshot).far_accesses

        snapshot = client.metrics.snapshot()
        client.load0_u64(pointer)
        primitive = client.metrics.delta(snapshot).far_accesses

        assert emulated == 2 and primitive == 1

    def test_faai_replaces_lock_based_dequeue(self, cluster):
        # Emulated pointer bump + read under a mutex: 5 far accesses
        # (lock CAS, read ptr, write ptr, read item, unlock) vs 1 faai.
        client = cluster.client()
        head = cluster.allocator.alloc_words(1)
        item = cluster.allocator.alloc_words(1)
        lock = cluster.allocator.alloc_words(1)
        client.write_u64(head, item)
        client.write_u64(item, 42)

        snapshot = client.metrics.snapshot()
        client.cas(lock, 0, 1)
        pointer = client.read_u64(head)
        client.write_u64(head, pointer + 8)
        client.read_u64(pointer)
        client.write_u64(lock, 0)
        emulated = client.metrics.delta(snapshot).far_accesses

        client.write_u64(head, item)
        snapshot = client.metrics.snapshot()
        client.faai(head, 8, 8)
        primitive = client.metrics.delta(snapshot).far_accesses

        assert emulated == 5 and primitive == 1

    def test_gather_replaces_n_reads(self, cluster):
        client = cluster.client()
        addrs = [cluster.allocator.alloc_words(1) for _ in range(16)]
        snapshot = client.metrics.snapshot()
        for addr in addrs:
            client.read_u64(addr)
        loop_cost = client.metrics.delta(snapshot).far_accesses

        snapshot = client.metrics.snapshot()
        client.rgather([(addr, 8) for addr in addrs])
        gather_cost = client.metrics.delta(snapshot).far_accesses

        assert loop_cost == 16 and gather_cost == 1

    def test_notification_replaces_polling(self, cluster):
        watcher, writer = cluster.client(), cluster.client()
        flag = cluster.allocator.alloc_words(1)

        # Polling: one far access per probe until the change lands.
        snapshot = watcher.metrics.snapshot()
        for _ in range(20):
            watcher.read_u64(flag)
        polling = watcher.metrics.delta(snapshot).far_accesses

        # Notification: one install, zero probes.
        snapshot = watcher.metrics.snapshot()
        cluster.notifications.notifye(watcher, flag, 1)
        writer.write_u64(flag, 1)
        assert watcher.pending_notifications() == 1
        notified = watcher.metrics.delta(snapshot).far_accesses

        assert polling == 20 and notified == 1


class TestClaimC4CacheScaling:
    """C4: the HT-tree client cache is per-table, not per-item."""

    def test_cache_grows_with_tables_not_items(self, cluster):
        from repro.core.ht_tree import LEAF

        tree = cluster.ht_tree(bucket_count=64, max_chain=8)
        client = cluster.client()
        while len(tree) < 2000:
            tree.put(client, len(tree) * 2654435761 % (1 << 48), 1)
        # The cache is exactly one entry per hash table (leaf) — the
        # paper's "tree of 10M nodes indexes 1T items" scaling argument.
        assert tree.cache_bytes(client) == tree.leaf_count() * LEAF.size
        # Each leaf fronts hundreds of items, so the cache footprint is
        # orders of magnitude below the item storage.
        assert tree.cache_bytes(client) * 50 < 2000 * 32

    def test_btree_level_cache_grows_geometrically(self, cluster):
        # The contrast the paper draws: caching tree levels costs O(n).
        tree = OneSidedBTree.create(cluster.allocator, max_keys=5, cache_levels=10)
        client = cluster.client()
        for k in range(2000):
            tree.put(client, k, 1)
        for k in range(0, 2000, 7):
            tree.get(client, k)
        # Caching "most levels" pulled in a large share of all nodes.
        assert tree.cache_bytes(client) > 2000 * 8


class TestClaimC1LatencyHierarchy:
    """C1: far accesses dominate; near accesses are an order cheaper."""

    def test_simulated_time_tracks_far_accesses(self, cluster):
        client = cluster.client()
        addr = cluster.allocator.alloc_words(1)
        client.read_u64(addr)
        far_time = client.clock.now_ns
        client.touch_local(1)
        near_delta = client.clock.now_ns - far_time
        assert far_time >= 10 * near_delta
