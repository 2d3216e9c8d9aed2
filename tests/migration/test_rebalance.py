"""Tests for the heat-driven rebalancer."""

import pytest

from repro import Cluster
from repro.migration import MigrationCoordinator, Rebalancer

NODE_SIZE = 1 << 20
ES = 256 << 10


def cluster_with_headroom(nodes=2):
    cluster = Cluster(node_count=nodes, node_size=NODE_SIZE)
    spare = cluster.add_node()
    return cluster, spare


class TestPlan:
    def test_no_heat_plans_nothing(self):
        cluster, _ = cluster_with_headroom()
        overloaded, moves = Rebalancer(cluster.migration).plan()
        assert moves == []

    def test_hot_extents_move_off_hottest_node(self):
        cluster, spare = cluster_with_headroom()
        client = cluster.client()
        # Hammer extent 1 (node 0): reads touch heat.
        for _ in range(64):
            client.read(ES + 16, 8)
        overloaded, moves = Rebalancer(cluster.migration, top_k=1).plan()
        assert overloaded == 0
        assert [(m.extent, m.src, m.dst, m.reason) for m in moves] == [
            (1, 0, spare, "heat")
        ]

    def test_plan_is_deterministic(self):
        cluster, _ = cluster_with_headroom()
        client = cluster.client()
        for extent in (0, 1, 5):
            for _ in range(8):
                client.read(extent * ES, 8)
        rebalancer = Rebalancer(cluster.migration)
        assert rebalancer.plan() == rebalancer.plan()

    def test_forward_source_node_preferred_over_spill(self):
        cluster, spare = cluster_with_headroom(nodes=3)
        table = cluster.fabric.extents
        client = cluster.client()
        # Extent 0 (node 0) is hot, and node 2 keeps forwarding into it.
        for _ in range(32):
            client.read(0, 8)
            table.note_forward(0, 2)
        # Node 2 must have headroom for the preference to bind directly.
        cluster.migration.migrate_extent(client, table.extents_on_node(2)[0], spare)
        overloaded, moves = Rebalancer(cluster.migration, top_k=1).plan()
        assert overloaded == 0
        heat_moves = [m for m in moves if m.reason == "heat"]
        assert heat_moves[0].extent == 0
        assert heat_moves[0].dst == 2  # pointer-side node, not the empty spare

    def test_full_prefer_node_evicts_coldest_first(self):
        cluster, spare = cluster_with_headroom(nodes=2)
        table = cluster.fabric.extents
        client = cluster.client()
        for _ in range(32):
            client.read(0, 8)
            table.note_forward(0, 1)  # node 1 forwards, but node 1 is full
        client.read(5 * ES, 8)  # extent 5 on node 1 is warm; 4,6,7 are cold
        overloaded, moves = Rebalancer(cluster.migration, top_k=1).plan()
        assert [m.reason for m in moves] == ["evict", "heat"]
        evict, heat = moves
        assert evict.src == 1 and evict.dst == spare
        assert evict.extent == 4  # coldest extent on node 1, lowest id
        assert heat == heat.__class__(0, 0, 1, "heat")


class TestRun:
    def test_run_executes_plan_and_reports_heat(self):
        cluster, spare = cluster_with_headroom()
        client = cluster.client()
        for _ in range(16):
            client.read(0, 8)
        report = cluster.rebalance(client, top_k=1)
        assert report.overloaded_node == 0
        assert len(report.moves) == 1
        assert report.moved_heat >= 16
        assert cluster.fabric.node_of(0) == spare
        # Commit reset the heat at the new home: fresh evidence only.
        assert cluster.fabric.extents.heat_of(0) == 0

    def test_rebalance_keeps_data_intact(self):
        cluster, _ = cluster_with_headroom()
        client = cluster.client()
        base = cluster.allocator.alloc(4096)
        payload = bytes(i % 251 for i in range(4096))
        client.write(base, payload)
        for _ in range(32):
            client.read(base, 64)
        cluster.rebalance(client)
        assert client.read(base, 4096) == payload

    def test_top_k_validation(self):
        cluster, _ = cluster_with_headroom()
        with pytest.raises(ValueError):
            Rebalancer(MigrationCoordinator(cluster.fabric), top_k=0)


class TestRegistryHeat:
    """Registry mode: extent heat comes from the live telemetry plane
    instead of the extent table's own counts."""

    def _observed_client(self, cluster, name="observer"):
        from repro.obs import TelemetryRegistry, Tracer

        client = cluster.client(name)
        tracer = Tracer()
        tracer.attach(client)
        return client, TelemetryRegistry().observe(tracer)

    def test_registry_heat_drives_the_plan(self):
        cluster, spare = cluster_with_headroom()
        client, registry = self._observed_client(cluster)
        for _ in range(64):
            client.read(ES + 16, 8)
        # Make the two planes disagree: traffic no tracer saw heats
        # extent 2 past extent 1 in the table, never in the registry.
        unobserved = cluster.client("unobserved")
        for _ in range(200):
            unobserved.read(2 * ES, 8)
        bare = Rebalancer(cluster.migration, top_k=1)
        assert [m.extent for m in bare.plan()[1]] == [2]  # table mode
        observed = Rebalancer(cluster.migration, top_k=1, registry=registry)
        overloaded, moves = observed.plan()
        assert overloaded == 0
        assert [(m.extent, m.src, m.dst, m.reason) for m in moves] == [
            (1, 0, spare, "heat")
        ]

    def test_run_reports_registry_heat(self):
        cluster, spare = cluster_with_headroom()
        client, registry = self._observed_client(cluster)
        for _ in range(16):
            client.read(0, 8)
        report = Rebalancer(
            cluster.migration, top_k=1, registry=registry
        ).run(client)
        assert len(report.moves) == 1
        assert report.moved_heat >= 16
        assert cluster.fabric.node_of(0) == spare

    def test_registry_and_table_rank_alike(self):
        """Same traffic, same hottest extent, whichever plane measures."""
        cluster, _ = cluster_with_headroom()
        client, registry = self._observed_client(cluster)
        for extent, touches in ((0, 4), (1, 12), (5, 2)):
            for _ in range(touches):
                client.read(extent * ES, 8)
        table = cluster.fabric.extents
        table_rank = sorted(
            (0, 1, 5), key=lambda e: -table.heat_of(e)
        )
        registry_rank = sorted(
            (0, 1, 5), key=lambda e: -registry.extent_heat(e)
        )
        assert table_rank == registry_rank

    def test_cluster_rebalance_forwards_registry_kwarg(self):
        cluster, spare = cluster_with_headroom()
        client, registry = self._observed_client(cluster)
        for _ in range(32):
            client.read(ES + 16, 8)
        unobserved = cluster.client("unobserved")
        for _ in range(200):  # the table alone ranks extent 2 first
            unobserved.read(2 * ES, 8)
        report = cluster.rebalance(client, top_k=1, registry=registry)
        assert [(m.extent, m.dst) for m in report.moves] == [(1, spare)]
