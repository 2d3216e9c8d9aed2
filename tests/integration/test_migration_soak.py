"""Migration soak: oracle-checked drains under concurrent writers and faults.

The elastic-membership guarantee under test: a live drain loses zero
bytes — every word the workload wrote (before or *during* the copy) reads
back exactly, writers are never silently dropped (forwarded under
``FORWARD``, fenced loudly under ``FENCE``), and transient fabric faults
during the copy only slow it down, never corrupt the outcome.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric import FaultPlan, MigrationWritePolicy
from repro.fabric.errors import (
    FabricError,
    FarCorruptionError,
    NodeUnavailableError,
    StaleEpochError,
)
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import RepairCoordinator

NODE_SIZE = 1 << 20  # 4 extents of 256 KiB per node
ES = 256 << 10


class TestDrainSoak:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.sampled_from([0, 1]),  # which node to drain
        st.booleans(),  # interleaved initial layout?
    )
    def test_drain_under_writers_loses_zero_bytes(self, seed, victim, interleaved):
        rng = random.Random(seed)
        kwargs = {"interleave_granularity": ES} if interleaved else {}
        cluster = Cluster(
            node_count=2, node_size=NODE_SIZE, interleaved=interleaved, **kwargs
        )
        cluster.add_node()
        driver = cluster.client("driver")
        writer = cluster.client("writer")
        total = cluster.fabric.total_size

        oracle: dict[int, bytes] = {}

        def write_random_word():
            offset = rng.randrange(0, total // 8) * 8
            value = rng.getrandbits(64).to_bytes(8, "little")
            writer.write(offset, value)
            oracle[offset] = value

        for _ in range(64):  # pre-populate
            write_random_word()

        report = cluster.drain_node(victim, driver, interleave=write_random_word)
        assert report.extents_moved == NODE_SIZE // ES
        assert cluster.fabric.extents.extents_on_node(victim) == []

        for offset, value in oracle.items():
            assert driver.read(offset, 8) == value, f"lost write at 0x{offset:x}"
        # Exact accounting: the drain charged precisely the predicted
        # copy round trips (forward hops are charged to the writer).
        predicted = cluster.migration.predicted_copy_accesses(report.extents_moved)
        assert cluster.migration.stats.copy_far_accesses == predicted

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @example(548584)  # a copy window exhausts the retry budget mid-extent
    def test_drain_survives_transient_faults(self, seed):
        """Retries heal most timeouts, but 0.05**4 per access over the
        512 copy accesses of a 4-extent drain means a retry budget *is*
        exhausted now and then. A drain call therefore either returns or
        raises a typed fabric error with no extent left mid-migration,
        and calling it again is the resume."""
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        cluster.add_node()
        driver = cluster.client("driver")  # default retry policy heals timeouts
        payload = bytes(i % 256 for i in range(4096))
        driver.write(0, payload)
        table = cluster.fabric.extents
        nodes = range(cluster.fabric.node_count)
        free_slots = sum(table.free_slot_count(node) for node in nodes)
        cluster.inject_faults(seed=seed, plan=FaultPlan().random_timeouts(0.05))
        for _attempt in range(6):
            try:
                cluster.drain_node(0, driver)
                break
            except FabricError:
                assert cluster.topology()["migrating"] == []
                assert sum(table.free_slot_count(node) for node in nodes) == free_slots
        else:
            pytest.fail("drain did not converge in 6 calls")
        cluster.fabric.set_fault_injector(None)
        stats = cluster.migration.stats
        assert stats.extents_migrated == NODE_SIZE // ES
        assert table.extents_on_node(0) == []
        assert driver.read(0, 4096) == payload
        predicted = cluster.migration.predicted_copy_accesses(stats.extents_migrated)
        if stats.aborts == 0:
            assert stats.copy_far_accesses == predicted
        else:  # the aborted extent's completed rounds were paid for too
            assert stats.copy_far_accesses >= predicted

    def test_fence_policy_refuses_writers_but_never_loses(self):
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        cluster.add_node()
        driver = cluster.client("driver")
        writer = cluster.client("writer")
        rng = random.Random(7)

        oracle: dict[int, bytes] = {}
        fenced = [0]

        def contend():
            offset = rng.randrange(0, NODE_SIZE // 8) * 8  # node 0 only
            value = rng.getrandbits(64).to_bytes(8, "little")
            try:
                writer.write(offset, value)
                oracle[offset] = value
            except StaleEpochError:
                fenced[0] += 1  # refused whole: nothing landed anywhere

        for _ in range(32):
            contend()
        cluster.drain_node(
            0, driver, policy=MigrationWritePolicy.FENCE, interleave=contend
        )
        assert fenced[0] > 0, "the soak must actually exercise the fence"
        for offset, value in oracle.items():
            assert driver.read(offset, 8) == value
        assert cluster.migration.stats.fences == fenced[0]

    def test_drain_then_repair_interoperate(self):
        """Migration and repair share fault domains: a drained node's
        extents move without collapsing replica separation, and repair
        still heals corruption afterwards."""
        cluster = Cluster(node_count=4, node_size=NODE_SIZE)
        cluster.add_node()
        client = cluster.client(retry_policy=None, breaker_policy=None)
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=32, block_count=8, copies=2
        )
        coordinator = RepairCoordinator(cluster.allocator, home_node=3)
        coordinator.register(client, region)
        payloads = {}
        for index in range(8):
            payloads[index] = bytes([index + 1]) * 32
            region.write_block(client, index, payloads[index])

        # Drain the node holding replica 0: its extents must not land on
        # replica 1's node (sibling separation), data must survive.
        victim = cluster.fabric.node_of(region.replicas[0])
        sibling = cluster.fabric.node_of(region.replicas[1])
        report = cluster.drain_node(victim, client)
        assert report.extents_moved > 0
        new_home = cluster.fabric.node_of(region.replicas[0])
        assert new_home not in (victim, sibling)

        # Corrupt the moved replica: verified reads still heal from the
        # sibling — integrity machinery follows the virtual address.
        loc = cluster.fabric.locate(region.replicas[0])
        cluster.fabric.nodes[loc.node].corrupt_bit(loc.offset + 20, 2)
        for index in range(8):
            assert region.read_block(client, index) == payloads[index]
        assert region.stats.verify_misses >= 1

        # And repair still works in the post-drain world.
        cluster.fabric.fail_node(new_home)
        repair_report = coordinator.run(client, new_home)
        assert repair_report.replicas_rebuilt == 1
        assert region.live_replicas() == 2
        for index in range(8):
            assert region.read_block(client, index) == payloads[index]

    def test_corruption_of_staged_bytes_is_detected_by_frames(self):
        """Rot introduced in the staging copy during migration is caught
        by the frame checksums on the next verified read (the migration
        itself is byte-oblivious; integrity rides the frames)."""
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        spare = cluster.add_node()
        client = cluster.client(retry_policy=None, breaker_policy=None)
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=32, block_count=4, copies=2
        )
        for index in range(4):
            region.write_block(client, index, bytes([index + 1]) * 32)

        extent = cluster.fabric.extents.extent_of(region.replicas[0])
        handle = cluster.migration.begin(client, extent, spare)
        handle.run()
        # Rot the *moved* copy.
        loc = cluster.fabric.locate(region.replicas[0])
        assert loc.node == spare
        cluster.fabric.nodes[loc.node].corrupt_bit(loc.offset + 18, 1)
        got = region.read_block(client, 0)  # heals from the other replica
        assert got == bytes([1]) * 32
        assert region.stats.verify_misses >= 1

        # With the second replica also dead, the rot is loud, not silent
        # (corruption error, or unavailable while probing the dead copy).
        cluster.fabric.fail_node(cluster.fabric.node_of(region.replicas[1]))
        with pytest.raises((FarCorruptionError, NodeUnavailableError)):
            region.read_block(client, 0)
