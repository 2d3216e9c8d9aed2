"""Tests for epoch-based far-memory reclamation."""

import pytest

from repro.alloc import EpochReclaimer
from repro.fabric.errors import AllocationError


@pytest.fixture
def reclaimer(cluster):
    return EpochReclaimer(cluster.allocator)


class TestLifecycle:
    def test_retire_defers_free(self, cluster, reclaimer):
        reclaimer.register()
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        # Still live: the participant has not quiesced past the epoch.
        assert cluster.allocator.size_of(block) == 64
        assert reclaimer.stats.pending == 1

    def test_quiesce_reclaims(self, cluster, reclaimer):
        pid = reclaimer.register()
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        reclaimer.quiesce(pid)  # advances the epoch past the block's
        reclaimer.quiesce(pid)
        assert reclaimer.stats.reclaimed == 1
        with pytest.raises(AllocationError):
            cluster.allocator.size_of(block)

    def test_slow_participant_blocks_reclamation(self, cluster, reclaimer):
        fast = reclaimer.register()
        slow = reclaimer.register()
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        for _ in range(5):
            reclaimer.quiesce(fast)  # the epoch cannot advance alone
        assert reclaimer.stats.pending == 1
        reclaimer.quiesce(slow)
        reclaimer.quiesce(fast)
        reclaimer.quiesce(slow)
        assert reclaimer.stats.pending == 0

    def test_deregister_unblocks(self, cluster, reclaimer):
        fast = reclaimer.register()
        crashed = reclaimer.register()
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        reclaimer.deregister(crashed)  # crash cleanup
        reclaimer.quiesce(fast)
        reclaimer.quiesce(fast)
        assert reclaimer.stats.pending == 0

    def test_no_participants_reclaims_immediately(self, cluster, reclaimer):
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        assert reclaimer.stats.pending == 0

    def test_retire_requires_live_block(self, cluster, reclaimer):
        with pytest.raises(AllocationError):
            reclaimer.retire(0xDEAD0)

    def test_double_retire_rejected_via_free(self, cluster, reclaimer):
        reclaimer.register()  # hold reclamation open
        block = cluster.allocator.alloc(64)
        reclaimer.retire(block)
        reclaimer.retire(block)  # accepted (still live)...
        with pytest.raises(AllocationError):
            reclaimer.drain()  # ...but the second free fails loudly

    def test_drain(self, cluster, reclaimer):
        reclaimer.register()
        blocks = [cluster.allocator.alloc(32) for _ in range(5)]
        for block in blocks:
            reclaimer.retire(block)
        assert reclaimer.drain() == 5
        assert reclaimer.stats.pending == 0

    def test_quiesce_unknown_participant(self, reclaimer):
        with pytest.raises(AllocationError):
            reclaimer.quiesce(99)


class TestHTTreeIntegration:
    def test_deletes_reclaim_records(self, cluster):
        reclaimer = EpochReclaimer(cluster.allocator)
        tree = cluster.ht_tree(bucket_count=64, max_chain=8, reclaimer=reclaimer)
        client = cluster.client()
        pid = reclaimer.register()
        for k in range(100):
            tree.put(client, k, k)
        live_before = cluster.allocator.stats.live_bytes
        for k in range(100):
            tree.delete(client, k)
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        assert reclaimer.stats.reclaimed >= 100
        assert cluster.allocator.stats.live_bytes < live_before

    def test_splits_reclaim_old_tables(self, cluster):
        reclaimer = EpochReclaimer(cluster.allocator)
        tree = cluster.ht_tree(bucket_count=8, max_chain=2, reclaimer=reclaimer)
        client = cluster.client()
        pid = reclaimer.register()
        for k in range(200):
            tree.put(client, k, k)
        assert tree.stats.splits >= 1
        pending = reclaimer.stats.pending
        assert pending > 0  # old tables / records / leaves regions retired
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        assert reclaimer.stats.pending == 0
        # The tree still answers correctly after reclamation.
        for k in range(200):
            assert tree.get(client, k) == k

    def test_stale_reader_safe_until_quiesce(self, cluster):
        # The invariant reclamation exists for: a reader holding a stale
        # tree can still dereference old tables until it quiesces.
        reclaimer = EpochReclaimer(cluster.allocator)
        tree = cluster.ht_tree(bucket_count=8, max_chain=2, reclaimer=reclaimer)
        writer, reader = cluster.client(), cluster.client()
        writer_pid = reclaimer.register()
        reader_pid = reclaimer.register()
        tree.put(writer, 1, 11)
        assert tree.get(reader, 1) == 11  # reader caches the tree
        for k in range(2, 150):
            tree.put(writer, k, k)
        reclaimer.quiesce(writer_pid)
        # Reader has not quiesced: old tables/tombstones are still live,
        # so its stale lookup path works and self-heals.
        assert reclaimer.stats.pending > 0
        assert tree.get(reader, 1) == 11
        reclaimer.quiesce(reader_pid)
        reclaimer.quiesce(writer_pid)
        reclaimer.quiesce(reader_pid)
        assert reclaimer.stats.pending == 0
