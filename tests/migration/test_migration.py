"""Tests for the migration coordinator: live moves, drains, accounting."""

import pytest

from repro import Cluster
from repro.fabric import MigrationWritePolicy
from repro.fabric.errors import (
    AllocationError,
    NodeUnavailableError,
    StaleEpochError,
)
from repro.migration import MigrationCoordinator

NODE_SIZE = 1 << 20  # 4 extents per node at 256 KiB
ES = 256 << 10


def small_cluster(nodes=2, **kwargs):
    return Cluster(node_count=nodes, node_size=NODE_SIZE, **kwargs)


class TestExtentMigration:
    def test_migrate_preserves_data_and_remaps(self):
        cluster = small_cluster()
        client = cluster.client()
        base = cluster.allocator.alloc(4096)
        client.write(base, b"\x5A" * 4096)
        extent = cluster.fabric.extents.extent_of(base)
        spare = cluster.add_node()
        state = cluster.migration.migrate_extent(client, extent, spare)
        assert state.dst_node == spare
        assert cluster.fabric.node_of(base) == spare
        assert client.read(base, 4096) == b"\x5A" * 4096
        assert cluster.fabric.extents.epoch_of(extent) == 2

    def test_copy_charges_exactly_predicted(self):
        cluster = small_cluster()
        client = cluster.client()
        spare = cluster.add_node()
        coordinator = cluster.migration
        predicted = coordinator.predicted_copy_accesses()
        snap = client.metrics.snapshot()
        coordinator.migrate_extent(client, 0, spare)
        delta = client.metrics.delta(snap)
        assert delta.far_accesses == predicted
        assert coordinator.stats.copy_far_accesses == predicted
        assert coordinator.stats.bytes_copied == ES

    def test_stepwise_migration_interleaves_writers(self):
        cluster = small_cluster()
        client = cluster.client()
        writer = cluster.client("writer")
        base = cluster.allocator.alloc(ES)
        spare = cluster.add_node()
        handle = cluster.migration.begin(client, 0, spare)
        writes = []

        def keep_writing():
            offset = len(writes) * 8
            writer.write(base + offset, offset.to_bytes(8, "little"))
            writes.append(offset)

        while not handle.step():
            keep_writing()
        handle.finish()
        assert writes, "the copy must actually interleave rounds"
        for offset in writes:
            assert client.read(base + offset, 8) == offset.to_bytes(8, "little")

    def test_forwarded_write_during_copy_is_never_lost(self):
        cluster = small_cluster()
        client = cluster.client()
        base = cluster.allocator.alloc(ES)
        spare = cluster.add_node()
        handle = cluster.migration.begin(client, 0, spare)
        handle.step()  # copy a prefix
        assert handle.state.cursor > 0
        # Overwrite a word inside the already-copied prefix: must forward.
        client.write(base + 16, b"\xEE" * 8)
        assert handle.state.forwards == 1
        handle.run()
        assert client.read(base + 16, 8) == b"\xEE" * 8
        assert cluster.migration.stats.forwards == 1

    def test_fence_policy_raises_then_recovers(self):
        cluster = small_cluster()
        client = cluster.client()
        writer = cluster.client("writer")
        base = cluster.allocator.alloc(64)
        spare = cluster.add_node()
        handle = cluster.migration.begin(
            client, 0, spare, policy=MigrationWritePolicy.FENCE
        )
        handle.step()
        with pytest.raises(StaleEpochError):
            writer.write(base, b"\x01" * 8)
        handle.run()
        writer.write(base, b"\x02" * 8)  # post-commit: admitted
        assert client.read(base, 8) == b"\x02" * 8
        assert cluster.migration.stats.fences == 1

    def test_abort_rolls_back_cleanly(self):
        cluster = small_cluster()
        client = cluster.client()
        base = cluster.allocator.alloc(64)
        client.write(base, b"\x77" * 8)
        spare = cluster.add_node()
        handle = cluster.migration.begin(client, 0, spare)
        handle.step()
        handle.abort()
        assert cluster.fabric.node_of(base) == 0
        assert client.read(base, 8) == b"\x77" * 8
        assert cluster.migration.stats.aborts == 1
        free = cluster.fabric.extents.free_slot_count(spare)
        assert free == NODE_SIZE // ES

    def test_word_op_mid_migration_mirrors(self):
        cluster = small_cluster()
        client = cluster.client()
        base = cluster.allocator.alloc(64)
        client.write_u64(base, 5)
        spare = cluster.add_node()
        handle = cluster.migration.begin(client, 0, spare)
        while handle.state.cursor < ES:  # copy everything, don't commit yet
            handle.step()
        assert client.faa(base, 3) == 5  # mirrored into the staged copy
        handle.finish()
        assert client.read_u64(base) == 8  # served from the new home


class TestPickTarget:
    def test_least_loaded_eligible_node_wins(self):
        cluster = small_cluster(nodes=2)
        spare = cluster.add_node()
        coordinator = cluster.migration
        assert coordinator.pick_target(0) == spare  # only node with slots

    def test_excludes_failed_drained_and_sibling_nodes(self):
        cluster = small_cluster(nodes=2)
        a = cluster.add_node()
        b = cluster.add_node()
        table = cluster.fabric.extents
        table.mark_drained(a)
        table.annotate_replicas("g", 0, ES)          # extent 0 on node 0
        table.annotate_replicas("g", NODE_SIZE, ES)  # sibling on node 1
        # Node 1 is a sibling, node a is drained: only b is eligible.
        assert cluster.migration.pick_target(0) == b
        cluster.fabric.fail_node(b)
        with pytest.raises(AllocationError):
            cluster.migration.pick_target(0)

    def test_sibling_fallback_only_when_nothing_else(self):
        cluster = small_cluster(nodes=2)
        table = cluster.fabric.extents
        spare = cluster.add_node()
        client = cluster.client()
        # Move node 1's extent 4 onto the spare, then make every node but
        # node 0 a sibling home: extent 4 (now on the spare) and extent 5
        # (still on node 1) both carry replicas of extent 0's group.
        cluster.migration.migrate_extent(client, 4, spare)
        table.annotate_replicas("g", 0, ES)
        table.annotate_replicas("g", 4 * ES, ES)
        table.annotate_replicas("g", 5 * ES, ES)
        with pytest.raises(AllocationError):
            cluster.migration.pick_target(0)
        # Fallback relaxes the sibling rule, least-loaded node wins.
        assert (
            cluster.migration.pick_target(0, allow_sibling_fallback=True) == spare
        )


class TestDrain:
    def test_drain_moves_everything_and_retires_node(self):
        cluster = small_cluster(nodes=2)
        client = cluster.client()
        cluster.add_node()
        report = cluster.drain_node(1, client)
        assert report.node == 1
        assert report.extents_moved == NODE_SIZE // ES
        assert cluster.fabric.extents.extents_on_node(1) == []
        assert cluster.fabric.extents.is_drained(1)
        # A drained node is not a migration target.
        with pytest.raises(AllocationError):
            cluster.fabric.extents.alloc_slot(1)

    def test_drain_preserves_bytes_under_concurrent_writer(self):
        cluster = small_cluster(nodes=2)
        client = cluster.client()
        writer = cluster.client("writer")
        cluster.add_node()
        oracle = {}
        step = [0]

        def interleave():
            # One write per copy round, cycling over both nodes' ranges.
            offset = (step[0] * 8) % (2 * NODE_SIZE - 8)
            offset -= offset % 8
            value = step[0].to_bytes(8, "little")
            writer.write(offset, value)
            oracle[offset] = value
            step[0] += 1

        cluster.drain_node(1, client, interleave=interleave)
        assert step[0] >= NODE_SIZE // ES  # at least one write per extent
        for offset, value in oracle.items():
            assert client.read(offset, 8) == value

    def test_drain_dead_node_is_repairs_problem(self):
        cluster = small_cluster(nodes=2)
        client = cluster.client()
        cluster.add_node()
        cluster.fabric.fail_node(1)
        with pytest.raises(NodeUnavailableError):
            cluster.drain_node(1, client)

    def test_drain_without_headroom_fails_loudly(self):
        cluster = small_cluster(nodes=2)
        client = cluster.client()
        with pytest.raises(AllocationError):
            cluster.drain_node(1, client)


class TestCoordinatorConfig:
    def test_chunk_bytes_must_be_word_aligned(self):
        cluster = small_cluster()
        with pytest.raises(ValueError):
            MigrationCoordinator(cluster.fabric, chunk_bytes=100)

    def test_predicted_accesses_scale_with_chunking(self):
        cluster = small_cluster()
        coordinator = MigrationCoordinator(cluster.fabric, chunk_bytes=8192)
        assert coordinator.predicted_copy_accesses() == 2 * (ES // 8192)
        assert coordinator.predicted_copy_accesses(extents=3) == 6 * (ES // 8192)
