"""Tests for client-driven replication across node fault domains."""

import pytest

from repro import Cluster
from repro.fabric import BreakerPolicy, FaultPlan, RetryPolicy, frame_size, try_unframe
from repro.fabric.errors import (
    AddressError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    StaleEpochError,
)
from repro.fabric.replication import ReplicatedRegion

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=3, node_size=NODE_SIZE)


@pytest.fixture
def framed(cluster):
    return ReplicatedRegion.create_framed(
        cluster.allocator, block_payload=64, block_count=8, copies=2
    )


def _stamp(client, region, index):
    """The version stamp replica 0's frame of block ``index`` carries."""
    version, _ = client.read_verified(region.replicas[0] + index * frame_size(64), 64)
    return version


class TestPlacement:
    def test_replicas_on_distinct_nodes(self, cluster, framed):
        nodes = {cluster.fabric.node_of(replica) for replica in framed.replicas}
        assert len(nodes) == 2

    def test_too_many_copies_rejected(self, cluster):
        with pytest.raises(ValueError):
            ReplicatedRegion.create_framed(
                cluster.allocator, block_payload=64, block_count=1, copies=4
            )

    def test_single_copy_rejected(self, cluster):
        with pytest.raises(ValueError):
            ReplicatedRegion.create_framed(
                cluster.allocator, block_payload=64, block_count=1, copies=1
            )


class TestFailover:
    def test_failover_costs_one_extra_access(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 0, b"7" * 64)
        cluster.fabric.fail_node(cluster.fabric.node_of(framed.replicas[0]))
        snapshot = c.metrics.snapshot()
        framed.read_block(c, 0)
        assert c.metrics.delta(snapshot).far_accesses == 2

    @pytest.mark.xfail(strict=True, reason="known defect: a failed replica read is charged again")
    def test_a_failed_replica_read_is_not_a_far_access(self, cluster, framed):
        """The dead primary's attempt costs its timeout and no far access;
        the secondary's read is the one far access. ``read_block`` charges
        the failed attempt a second time, as a phantom access."""
        framed.write_block(cluster.client(), 0, b"7" * 64)
        cluster.fabric.fail_node(cluster.fabric.node_of(framed.replicas[0]))
        reader = cluster.client(retry_policy=None, breaker_policy=None)
        assert framed.read_block(reader, 0) == b"7" * 64
        assert (reader.metrics.far_accesses, reader.clock.now_ns) == (1, 11_000.0)

    def test_primary_failed_mid_workload(self, cluster, framed):
        """The primary dies *between* reads: earlier reads hit it, later
        reads fail over — and the stats ledger separates the two."""
        c = cluster.client()
        framed.write_block(c, 0, b"b" * 64)
        assert framed.read_block(c, 0) == b"b" * 64  # primary serving
        assert framed.stats.failovers == 0
        cluster.fabric.fail_node(cluster.fabric.node_of(framed.replicas[0]))
        for _ in range(3):
            assert framed.read_block(c, 0) == b"b" * 64  # secondary serving
        assert framed.stats.failovers == 3
        assert framed.stats.reads == 4
        assert framed.live_replicas() == 1

    def test_write_raises_when_any_replica_down(self, cluster, framed):
        # Breaker off: both failing iterations anchor at replica 0's node,
        # and 8 consecutive failures there would trip it — this test is
        # about fail-stop write semantics, not breaker behaviour.
        c = cluster.client(breaker_policy=None)
        for index in range(len(framed.replicas)):
            node = cluster.fabric.node_of(framed.replicas[index])
            cluster.fabric.fail_node(node)
            with pytest.raises(NodeUnavailableError):
                framed.write_block(c, 0, b"1" * 64)
            cluster.fabric.repair_node(node)
        framed.write_block(c, 0, b"1" * 64)  # all repaired: writes flow again

    def test_failover_accounting_all_down(self, cluster, framed):
        c = cluster.client()
        for replica in framed.replicas:
            cluster.fabric.fail_node(cluster.fabric.node_of(replica))
        with pytest.raises(NodeUnavailableError):
            framed.read_block(c, 0)
        # Every replica was tried and charged as a failover.
        assert framed.stats.failovers == len(framed.replicas)
        assert framed.stats.timeout_failovers == 0


class TestFramedBlocks:
    def test_create_validates(self, cluster):
        with pytest.raises(ValueError):
            ReplicatedRegion.create_framed(
                cluster.allocator, block_payload=0, block_count=4
            )
        with pytest.raises(ValueError):
            ReplicatedRegion.create_framed(
                cluster.allocator, block_payload=64, block_count=0
            )

    def test_fresh_region_verifies(self, cluster, framed):
        """Every block starts as a valid version-0 frame of zeros."""
        c = cluster.client()
        for index in range(framed.block_count):
            assert framed.read_block(c, index) == b"\x00" * 64
            assert _stamp(c, framed, index) == 0

    def test_roundtrip_and_version_bump(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 3, b"v" * 64)
        framed.write_block(c, 3, b"w" * 64)
        assert framed.read_block(c, 3) == b"w" * 64
        assert _stamp(c, framed, 3) == 2

    def test_write_reaches_every_replica(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 1, b"copy" * 16)
        for replica in framed.replicas:
            frame = cluster.fabric.read(replica + frame_size(64), frame_size(64)).value
            assert try_unframe(frame) == (1, b"copy" * 16)

    def test_write_is_one_far_access(self, cluster, framed):
        c = cluster.client()
        snap = c.metrics.snapshot()
        framed.write_block(c, 0, b"x" * 64)
        # Unregistered: no fence read, one wscatter to both replicas.
        assert c.metrics.delta(snap).far_accesses == 1

    def test_payload_length_enforced(self, cluster, framed):
        c = cluster.client()
        with pytest.raises(ValueError):
            framed.write_block(c, 0, b"short")

    def test_block_index_bounds(self, cluster, framed):
        c = cluster.client()
        with pytest.raises(AddressError):
            framed.read_block(c, 8)
        with pytest.raises(AddressError):
            framed.write_block(c, -1, b"x" * 64)

    def test_corrupt_primary_heals_from_secondary(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 2, b"k" * 64)
        offset = 2 * frame_size(64)
        location = cluster.fabric.locate(framed.replicas[0] + offset)
        cluster.fabric.nodes[location.node].corrupt_bit(location.offset + 5, 1)
        snap = c.metrics.snapshot()
        assert framed.read_block(c, 2) == b"k" * 64
        delta = c.metrics.delta(snap)
        assert delta.far_accesses == 2  # the verify-miss cost one re-read
        assert delta.verify_misses == 1
        assert framed.stats.verify_misses == 1

    def test_all_copies_corrupt_raises_never_returns(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 1, b"q" * 64)
        offset = 1 * frame_size(64)
        for replica in framed.replicas:
            location = cluster.fabric.locate(replica + offset)
            cluster.fabric.nodes[location.node].corrupt_bit(location.offset, 7)
        with pytest.raises(FarCorruptionError):
            framed.read_block(c, 1)

    def test_dead_primary_fails_over(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 0, b"d" * 64)
        cluster.fabric.fail_node(cluster.fabric.node_of(framed.replicas[0]))
        assert framed.read_block(c, 0) == b"d" * 64
        assert framed.stats.failovers == 1

    def test_torn_replicated_write_never_serves_garbage(self, cluster, framed):
        """A torn wscatter rips replica 0's frame; the reader detects it
        and serves the intact old value from replica 1 — the failed write
        is cleanly not-applied, never half-applied."""
        c = cluster.client(retry_policy=None, breaker_policy=None)
        framed.write_block(c, 0, b"old!" * 16)
        cluster.inject_faults(seed=6, plan=FaultPlan().torn_at(0))
        with pytest.raises(FarTimeoutError):
            framed.write_block(c, 0, b"new!" * 16)
        result = framed.read_block(c, 0)
        assert result in (b"old!" * 16, b"new!" * 16)  # never a mix
        framed.write_block(c, 0, b"next" * 16)
        assert _stamp(c, framed, 0) == 2  # the failed write left no stamp


class TestEpochFencing:
    """Fence behaviour without a live coordinator: the region only needs
    the epoch word. (Full repair protocol: tests/recovery/test_repair.py.)"""

    def _register(self, cluster, region, client):
        epoch_addr = cluster.allocator.alloc_words(1)
        client.write_u64(epoch_addr, 1)
        region.epoch_addr = epoch_addr
        region.epoch = 1
        region.region_id = 0
        return epoch_addr

    def test_fenced_write_costs_one_extra_access(self, cluster, framed):
        c = cluster.client()
        self._register(cluster, framed, c)
        snap = c.metrics.snapshot()
        framed.write_block(c, 0, b"f" * 64)
        assert c.metrics.delta(snap).far_accesses == 2  # fence read + wscatter
        assert framed.stats.fence_checks == 1

    def test_stale_epoch_rejected_before_any_write(self, cluster, framed):
        c = cluster.client()
        epoch_addr = self._register(cluster, framed, c)
        framed.write_block(c, 1, b"a" * 64)
        c.write_u64(epoch_addr, 2)  # the world moves on
        with pytest.raises(StaleEpochError) as excinfo:
            framed.write_block(c, 1, b"b" * 64)
        assert excinfo.value.held == 1
        assert excinfo.value.current == 2
        assert framed.read_block(c, 1) == b"a" * 64  # nothing was written
        assert framed.stats.fence_rejects == 1
        assert c.metrics.fence_rejects == 1

    def test_reads_are_never_fenced(self, cluster, framed):
        c = cluster.client()
        epoch_addr = self._register(cluster, framed, c)
        framed.write_block(c, 0, b"r" * 64)
        c.write_u64(epoch_addr, 9)
        # Reads serve stale-epoch holders fine: fencing protects writes.
        assert framed.read_block(c, 0) == b"r" * 64

    def test_rejoin_needs_registration(self, cluster, framed):
        with pytest.raises(ValueError):
            framed.rejoin(cluster.client())

    def test_unregistered_region_pays_nothing(self, cluster, framed):
        c = cluster.client()
        framed.write_block(c, 0, b"u" * 64)
        assert framed.stats.fence_checks == 0

    def test_clone_view_is_independent(self, cluster, framed):
        c = cluster.client()
        self._register(cluster, framed, c)
        framed.write_block(c, 0, b"1" * 64)
        view = framed.clone_view()
        assert view.replicas == framed.replicas
        assert view.epoch == framed.epoch
        view.write_block(c, 0, b"2" * 64)
        assert _stamp(c, framed, 0) == 2  # the clone continues the stamp sequence
        view.replicas[0] = 0xDEAD  # mutating the clone...
        assert framed.replicas[0] != 0xDEAD  # ...never touches the original
        view.stats.writes += 1
        assert framed.stats.writes == 1


class TestTimeoutFailover:
    """Degradation under transient faults, not just fail-stop."""

    def test_read_fails_over_on_timeout(self, cluster, framed):
        c = cluster.client(retry_policy=RetryPolicy(max_attempts=2))
        framed.write_block(c, 0, b"t" * 64)
        primary_node = cluster.fabric.node_of(framed.replicas[0])
        cluster.inject_faults(
            seed=3, plan=FaultPlan().random_timeouts(1.0, node=primary_node)
        )
        assert framed.read_block(c, 0) == b"t" * 64  # secondary serves
        assert framed.stats.failovers == 1
        assert framed.stats.timeout_failovers == 1
        assert c.metrics.timeouts == 2  # both attempts at the primary

    def test_read_fails_over_on_open_breaker(self, cluster, framed):
        c = cluster.client(
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_ns=1e12),
        )
        framed.write_block(c, 0, b"o" * 64)
        primary_node = cluster.fabric.node_of(framed.replicas[0])
        cluster.inject_faults(
            seed=3, plan=FaultPlan().random_timeouts(1.0, node=primary_node)
        )
        assert framed.read_block(c, 0) == b"o" * 64  # trips the primary's breaker
        assert c.metrics.breaker_trips == 1
        # Subsequent reads fail over instantly via the open breaker: no
        # timeout waits, still correct data.
        timeouts_before = c.metrics.timeouts
        assert framed.read_block(c, 0) == b"o" * 64
        assert c.metrics.timeouts == timeouts_before
        assert c.metrics.breaker_rejections >= 1

    def test_all_replicas_flaky_raises_timeout(self, cluster, framed):
        c = cluster.client(retry_policy=RetryPolicy(max_attempts=2))
        framed.write_block(c, 0, b"f" * 64)
        cluster.inject_faults(seed=3, plan=FaultPlan().random_timeouts(1.0))
        with pytest.raises(FarTimeoutError):
            framed.read_block(c, 0)
        assert framed.stats.timeout_failovers == len(framed.replicas)
