"""Tests for the re-replication coordinator and its epoch-fencing protocol."""

import pytest

from repro import Cluster
from repro.fabric import FaultPlan, frame_size
from repro.fabric.errors import (
    AllocationError,
    FabricError,
    NodeUnavailableError,
    StaleEpochError,
)
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import RepairCoordinator

NODE_SIZE = 8 << 20
PAYLOAD = 64
BLOCKS = 12


@pytest.fixture
def cluster():
    return Cluster(node_count=4, node_size=NODE_SIZE)


@pytest.fixture
def coordinator(cluster):
    # Epoch words on the last node, which these tests never kill.
    return RepairCoordinator(cluster.allocator, home_node=3, chunk_blocks=4)


@pytest.fixture
def framed(cluster):
    return ReplicatedRegion.create_framed(
        cluster.allocator, block_payload=PAYLOAD, block_count=BLOCKS, copies=2
    )


def fill(region, client):
    oracle = {}
    for index in range(region.block_count):
        oracle[index] = bytes([index + 1]) * PAYLOAD
        region.write_block(client, index, oracle[index])
    return oracle


class TestRegistration:
    def test_register_sets_up_the_fence(self, cluster, coordinator, framed):
        c = cluster.client()
        region_id = coordinator.register(c, framed)
        assert framed.region_id == region_id
        assert framed.epoch == 1
        assert c.read_u64(framed.epoch_addr) == 1
        assert cluster.fabric.node_of(framed.epoch_addr) == 3
        assert coordinator.current_replicas(region_id) == tuple(framed.replicas)

    def test_double_register_rejected(self, cluster, coordinator, framed):
        c = cluster.client()
        coordinator.register(c, framed)
        with pytest.raises(ValueError):
            coordinator.register(c, framed)

    def test_config_validation(self, cluster):
        with pytest.raises(ValueError):
            RepairCoordinator(cluster.allocator, chunk_blocks=0)


class TestRepair:
    def test_rebuild_restores_full_replication(self, cluster, coordinator, framed):
        c = cluster.client()
        coordinator.register(c, framed)
        oracle = fill(framed, c)
        dead = cluster.fabric.node_of(framed.replicas[0])
        cluster.fabric.fail_node(dead)
        assert framed.live_replicas() == 1

        report = coordinator.run(c, dead)
        assert report.replicas_rebuilt == 1
        assert report.blocks_copied == BLOCKS
        assert framed.live_replicas() == 2
        assert dead not in {
            cluster.fabric.node_of(base) for base in framed.replicas
        }
        for index, expected in oracle.items():
            assert framed.read_block(c, index) == expected

    def test_repair_cost_is_linear_in_blocks(self, cluster, coordinator):
        """2 far accesses per block (read + write) + 1 epoch bump."""
        c = cluster.client()
        deltas = []
        for count in (4, 8):
            region = ReplicatedRegion.create_framed(
                cluster.allocator, block_payload=PAYLOAD, block_count=count
            )
            coordinator.register(c, region)
            fill(region, c)
            dead = cluster.fabric.node_of(region.replicas[0])
            cluster.fabric.fail_node(dead)
            snap = c.metrics.snapshot()
            coordinator.run(c, dead)
            deltas.append(c.metrics.delta(snap).far_accesses)
            cluster.fabric.repair_node(dead)
            coordinator._regions.clear()
        assert deltas == [2 * 4 + 1, 2 * 8 + 1]

    def test_repair_streams_through_the_pipeline(self, cluster, coordinator, framed):
        """The copy overlaps its reads and writes (chunked windows), not
        one synchronous round trip per block."""
        c = cluster.client()
        coordinator.register(c, framed)
        fill(framed, c)
        dead = cluster.fabric.node_of(framed.replicas[0])
        cluster.fabric.fail_node(dead)
        snap = c.metrics.snapshot()
        coordinator.run(c, dead)
        delta = c.metrics.delta(snap)
        assert delta.overlap_saved_ns > 0
        # 12 blocks in chunks of 4: at most 3 read + 3 write windows (+faa).
        assert delta.pipeline_flushes <= 7

    def test_corrupt_source_block_healed_during_repair(self, cluster):
        """copies=3: the copy source has a rotten block, repair re-reads
        it verified from the remaining replica instead of propagating rot."""
        cluster_ = Cluster(node_count=5, node_size=NODE_SIZE)
        coordinator = RepairCoordinator(
            cluster_.allocator, home_node=4, chunk_blocks=4
        )
        region = ReplicatedRegion.create_framed(
            cluster_.allocator, block_payload=PAYLOAD, block_count=BLOCKS, copies=3
        )
        c = cluster_.client()
        coordinator.register(c, region)
        oracle = fill(region, c)

        dead = cluster_.fabric.node_of(region.replicas[0])
        cluster_.fabric.fail_node(dead)
        # Rot one block on the copy *source* (the first survivor).
        source = region.replicas[1]
        offset = 5 * frame_size(PAYLOAD)
        location = cluster_.fabric.locate(source + offset)
        cluster_.fabric.nodes[location.node].corrupt_bit(location.offset + 3, 2)

        report = coordinator.run(c, dead)
        assert report.source_verify_misses == 1
        rebuilt = region.replicas[0]
        for index, expected in oracle.items():
            frame = c.read(rebuilt + index * frame_size(PAYLOAD), frame_size(PAYLOAD))
            from repro.fabric import try_unframe

            version, payload = try_unframe(frame)
            assert payload == expected  # the rebuilt copy is clean

    def test_no_spare_raises(self):
        # 3 copies on 3 nodes: when one dies, every surviving node
        # already holds a replica — redundancy cannot be restored.
        cluster = Cluster(node_count=3, node_size=NODE_SIZE)
        coordinator = RepairCoordinator(cluster.allocator, home_node=2)
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=PAYLOAD, block_count=4, copies=3
        )
        c = cluster.client()
        coordinator.register(c, region)
        fill(region, c)
        dead = cluster.fabric.node_of(region.replicas[0])
        cluster.fabric.fail_node(dead)
        with pytest.raises(AllocationError):
            coordinator.run(c, dead)

    def test_no_survivors_raises_not_invents(self, cluster, coordinator, framed):
        c = cluster.client()
        coordinator.register(c, framed)
        for base in framed.replicas:
            cluster.fabric.fail_node(cluster.fabric.node_of(base))
        with pytest.raises(NodeUnavailableError):
            coordinator.run(c, cluster.fabric.node_of(framed.replicas[0]))

    def test_untouched_regions_pay_nothing(self, cluster, coordinator):
        c = cluster.client()
        a = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=PAYLOAD, block_count=4
        )
        coordinator.register(c, a)
        fill(a, c)
        # Fail a node hosting no replica of a: scan finds nothing to do.
        spare_only = next(
            n
            for n in range(4)
            if n not in {cluster.fabric.node_of(base) for base in a.replicas}
        )
        snap = c.metrics.snapshot()
        report = coordinator.run(c, spare_only)
        assert report.replicas_rebuilt == 0
        assert report.regions_scanned == 1
        assert c.metrics.delta(snap).far_accesses == 0
        assert a.epoch == 1  # epoch untouched: nobody needs to rejoin


class TestFencingProtocol:
    def test_stale_writer_fenced_then_rejoins(self, cluster, coordinator, framed):
        app = cluster.client("app")
        late = cluster.client("late")
        coordinator.register(app, framed)
        oracle = fill(framed, app)
        stale = framed.clone_view()

        dead = cluster.fabric.node_of(framed.replicas[0])
        cluster.fabric.fail_node(dead)
        coordinator.run(app, dead)
        assert framed.epoch == 2

        with pytest.raises(StaleEpochError):
            stale.write_block(late, 0, b"Z" * PAYLOAD)
        # The fence fired before any replica byte moved:
        assert framed.read_block(app, 0) == oracle[0]
        assert stale.stats.fence_rejects == 1

        assert stale.rejoin(late) == 2
        assert stale.replicas == framed.replicas
        stale.write_block(late, 0, b"Z" * PAYLOAD)
        assert framed.read_block(app, 0) == b"Z" * PAYLOAD

    def test_never_silent_lost_write(self, cluster, coordinator, framed):
        """The acceptance criterion verbatim: a fenced stale writer gets
        StaleEpochError — its write is *rejected*, not absorbed into a
        replica set that repair has moved elsewhere."""
        app = cluster.client("app")
        coordinator.register(app, framed)
        fill(framed, app)
        stale = framed.clone_view()
        old_replicas = list(stale.replicas)

        dead = cluster.fabric.node_of(framed.replicas[0])
        cluster.fabric.fail_node(dead)
        coordinator.run(app, dead)
        cluster.fabric.repair_node(dead)  # the old node comes back...

        # ...so the stale map's addresses are all writable again — the
        # epoch word is the ONLY thing standing between the stale writer
        # and a silent write to de-commissioned memory.
        before = [
            cluster.fabric.read(base, frame_size(PAYLOAD)).value
            for base in old_replicas
        ]
        with pytest.raises(StaleEpochError):
            stale.write_block(app, 0, b"!" * PAYLOAD)
        after = [
            cluster.fabric.read(base, frame_size(PAYLOAD)).value
            for base in old_replicas
        ]
        assert before == after

    def test_sequential_failures_two_repairs(self, cluster, coordinator, framed):
        c = cluster.client()
        coordinator.register(c, framed)
        oracle = fill(framed, c)
        for round_ in (1, 2):
            dead = cluster.fabric.node_of(framed.replicas[0])
            cluster.fabric.fail_node(dead)
            coordinator.run(c, dead)
            assert framed.epoch == 1 + round_
            assert framed.live_replicas() == 2
        for index, expected in oracle.items():
            assert framed.read_block(c, index) == expected


#: shape -> (block_count, copies). One uninterrupted rebuild costs a read
#: and a write per block, plus the epoch faa.
SHAPES = {
    "full-chunks": (BLOCKS, 2),  # 12 blocks: three whole windows of 4
    "ragged-tail": (5, 2),  # a window of 4, then a short window of 1
    "three-copies": (3, 3),  # the copy source has a fallback replica
}


class TestResumable:
    """A typed fabric error out of ``run`` aborts the rebuild in flight
    and leaves nothing behind: re-calling ``run`` is the resume."""

    @pytest.mark.parametrize(
        "shape, fault_at",
        [
            (shape, index)
            for shape, (blocks, _) in SHAPES.items()
            for index in range(2 * blocks + 1)
        ],
    )
    def test_fault_at_any_access_leaks_nothing_and_rerun_completes(
        self, cluster, shape, fault_at
    ):
        blocks, copies = SHAPES[shape]
        coordinator = RepairCoordinator(cluster.allocator, home_node=3, chunk_blocks=4)
        setup = cluster.client()
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=PAYLOAD, block_count=blocks, copies=copies
        )
        coordinator.register(setup, region)
        oracle = fill(region, setup)
        dead = cluster.fabric.node_of(region.replicas[0])
        cluster.fabric.fail_node(dead)
        c = cluster.client(retry_policy=None, breaker_policy=None)
        replicas, free = list(region.replicas), cluster.allocator.free_bytes()

        cluster.inject_faults(plan=FaultPlan().timeout_at(fault_at))
        with pytest.raises(FabricError):
            coordinator.run(c, dead)
        cluster.fabric.set_fault_injector(None)
        assert cluster.allocator.free_bytes() == free
        assert region.replicas == replicas and region.epoch == 1
        assert setup.read_u64(region.epoch_addr) == 1

        snap = c.metrics.snapshot()
        report = coordinator.run(c, dead)
        assert c.metrics.delta(snap).far_accesses == 2 * blocks + 1
        assert report.replicas_rebuilt == 1 and region.epoch == 2
        assert cluster.allocator.free_bytes() == free  # dead copy freed, spare taken
        assert report.blocks_copied == blocks
        for index, expected in oracle.items():
            assert region.read_block(c, index) == expected
        assert region.live_replicas() == copies
