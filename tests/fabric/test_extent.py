"""Tests for the extent table: translation, slots, migration mechanics."""

import pytest

from repro import Cluster
from repro.fabric import (
    DEFAULT_EXTENT_SIZE,
    Fabric,
    FaultPlan,
    IndirectionPolicy,
    MigrationWritePolicy,
    make_placement,
)
from repro.fabric.errors import (
    AllocationError,
    FarTimeoutError,
    NodeUnavailableError,
    RemoteIndirectionError,
    StaleEpochError,
)
from repro.fabric.extent import ExtentTable

from . import layout_oracle as oracle

NODE_SIZE = 8 << 20
ES = DEFAULT_EXTENT_SIZE


class TestGeometry:
    def test_range_layout_defaults_to_256k_extents(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        assert table.extent_size == ES
        assert table.virtual_size == 2 * NODE_SIZE
        assert table.extent_count == 2 * NODE_SIZE // ES

    def test_interleaved_layout_defaults_to_granularity(self):
        layout = make_placement(4, NODE_SIZE, interleaved=True, granularity=4096)
        table = ExtentTable(layout)
        assert table.extent_size == 4096

    def test_odd_node_size_shrinks_extent_to_gcd(self):
        table = ExtentTable(make_placement(2, ES + ES // 2))
        assert (ES + ES // 2) % table.extent_size == 0

    def test_extent_size_must_divide_node_size(self):
        with pytest.raises(ValueError):
            ExtentTable(make_placement(1, NODE_SIZE), extent_size=NODE_SIZE - 8)

    def test_extent_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            ExtentTable(make_placement(1, NODE_SIZE), extent_size=1000)


class TestCleanTableEquivalence:
    """A table with no remaps translates exactly like the closed-form
    layout formulas it was seeded from (``layout_oracle``)."""

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_locate_matches_layout(self, interleaved):
        layout = make_placement(4, NODE_SIZE, interleaved=interleaved)
        table = ExtentTable(layout)
        for address in (0, 7, 4096, NODE_SIZE - 1, NODE_SIZE, 3 * NODE_SIZE + 9):
            location = table.locate(address)
            assert (location.node, location.offset) == oracle.locate(layout, address)
            assert table.node_of(address) == oracle.locate(layout, address)[0]

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_split_matches_layout_bit_for_bit(self, interleaved):
        layout = make_placement(4, NODE_SIZE, interleaved=interleaved)
        table = ExtentTable(layout)
        for address, length in (
            (0, 64),
            (NODE_SIZE - 100, 200),
            (4096 - 8, 16),
            (0, 3 * 4096),
            (NODE_SIZE + 5, 2 * 4096),
        ):
            assert oracle.as_pairs(table.split(address, length)) == oracle.split(
                layout, address, length
            )

    def test_same_node_span_matches_contiguous_extent(self):
        layout = make_placement(2, NODE_SIZE)
        table = ExtentTable(layout)
        for address in (0, 1024, NODE_SIZE - 64, NODE_SIZE):
            assert table.same_node_span(address) == oracle.contiguous_extent(layout, address)

    def test_globalize_round_trips(self):
        layout = make_placement(2, NODE_SIZE)
        table = ExtentTable(layout)
        for address in (0, ES, NODE_SIZE + 17):
            location = table.locate(address)
            assert table.globalize(location.node, location.offset) == address
            assert oracle.globalize(layout, location.node, location.offset) == address


class TestSegmentCountsAreLocal:
    """A range's segments depend only on where that range lives."""

    def test_split_invariant_under_unrelated_noop_remap(self):
        # Regression: a clean table used to answer from the layout formula
        # (one segment per stripe) and any table with a remap from the
        # coalescing walk, so an unrelated commit changed this count 4 -> 1.
        table = ExtentTable(make_placement(1, 1 << 20, interleaved=True, granularity=4096))
        spare, _ = table.add_node()
        before = table.split(100, 3 * 4096)
        far_extent = table.extent_count - 1
        for dst in (spare, 0):  # away and straight back: a no-op remap
            table.begin_migration(far_extent, dst)
            table.advance_migration(far_extent, table.extent_size)
            table.commit_migration(far_extent)
        assert table.dump()["remapped"] == 1
        assert table.split(100, 3 * 4096) == before
        # One node, physically contiguous stripes: the NIC issues one DMA.
        assert [(loc.node, loc.offset, n) for loc, n in before] == [(0, 100, 3 * 4096)]

    def test_same_node_coalesces_only_when_slots_are_adjacent(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        spare, _ = table.add_node()
        es = table.extent_size

        def move(extent):
            table.begin_migration(extent, spare)
            table.advance_migration(extent, es)
            table.commit_migration(extent)

        move(5)  # spare slot 0
        move(3)  # spare slot 1
        move(4)  # spare slot 2: adjacent to 3, not to 5
        segments = table.split(3 * es, 3 * es)
        assert [(loc.node, loc.offset, n) for loc, n in segments] == [
            (spare, es, 2 * es),
            (spare, 0, es),
        ]
        assert table.same_node_span(3 * es) == 3 * es  # one node, two DMAs

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_multi_node_counts_unchanged_by_unrelated_remap(self, interleaved):
        table = ExtentTable(make_placement(4, NODE_SIZE, interleaved=interleaved))
        spare, _ = table.add_node()
        probes = [(0, 64), (NODE_SIZE - 100, 200), (0, 3 * 4096), (NODE_SIZE + 5, 2 * 4096)]
        before = [table.split(a, n) for a, n in probes]
        far_extent = table.extent_count - 1
        table.begin_migration(far_extent, spare)
        table.advance_migration(far_extent, table.extent_size)
        table.commit_migration(far_extent)
        assert [table.split(a, n) for a, n in probes] == before


class TestElasticMembership:
    def test_add_node_headroom_has_all_slots_free(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        node, grown = table.add_node()
        assert (node, grown) == (1, 0)
        assert table.free_slot_count(1) == NODE_SIZE // table.extent_size
        assert table.virtual_size == NODE_SIZE  # virtual space unchanged

    def test_add_node_grow_virtual_extends_address_space(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        node, grown = table.add_node(grow_virtual=True)
        assert grown == NODE_SIZE
        assert table.virtual_size == 2 * NODE_SIZE
        # The new range is identity-mapped onto the new node.
        assert table.node_of(NODE_SIZE) == node
        assert table.globalize(node, 0) == NODE_SIZE

    def test_add_node_size_must_align(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        with pytest.raises(ValueError):
            table.add_node(table.extent_size + 8)

    def test_drained_node_refuses_staging(self):
        table = ExtentTable(make_placement(1, NODE_SIZE))
        table.add_node()
        table.mark_drained(1)
        with pytest.raises(AllocationError):
            table.alloc_slot(1)


class TestMigrationStateMachine:
    def _table(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        table.add_node()  # node 2: headroom
        return table

    def test_begin_advance_commit_remaps_and_bumps_epoch(self):
        table = self._table()
        state = table.begin_migration(0, 2)
        assert table.migrating_extents == [0]
        table.advance_migration(0, table.extent_size)
        committed = table.commit_migration(0)
        assert committed is state
        assert table.node_of(0) == 2
        assert table.epoch_of(0) == 2
        assert table.migrating_extents == []
        # The old slot is free again, the new one is occupied.
        assert table.free_slot_count(2) == NODE_SIZE // table.extent_size - 1

    def test_commit_requires_complete_copy(self):
        table = self._table()
        table.begin_migration(0, 2)
        table.advance_migration(0, 8)
        with pytest.raises(AllocationError):
            table.commit_migration(0)

    def test_double_begin_rejected(self):
        table = self._table()
        table.begin_migration(0, 2)
        with pytest.raises(AllocationError):
            table.begin_migration(0, 2)

    def test_migrate_to_current_home_rejected(self):
        table = self._table()
        with pytest.raises(AllocationError):
            table.begin_migration(0, table.node_of(0))

    def test_abort_releases_staging_slot(self):
        table = self._table()
        before = table.free_slot_count(2)
        table.begin_migration(0, 2)
        assert table.free_slot_count(2) == before - 1
        table.abort_migration(0)
        assert table.free_slot_count(2) == before
        assert table.node_of(0) == 0  # unchanged
        assert table.epoch_of(0) == 1

    def test_staging_slot_is_not_globalizable(self):
        table = self._table()
        state = table.begin_migration(0, 2)
        offset = state.dst_slot * table.extent_size
        assert table.try_globalize(2, offset) is None
        table.advance_migration(0, table.extent_size)
        table.commit_migration(0)
        assert table.try_globalize(2, offset) == 0
        # The freed source slot is unmapped now.
        assert table.try_globalize(state.src_node, state.src_slot * table.extent_size) is None

    def test_commit_resets_heat_and_forward_telemetry(self):
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        cluster.add_node()  # node 2: headroom
        cluster.client().read(0, 8)
        table = cluster.fabric.extents
        table.note_forward(0, 1)
        assert table.heat_of(0) == 1
        table.begin_migration(0, 2)
        table.advance_migration(0, table.extent_size)
        table.commit_migration(0)
        assert table.heat_of(0) == 0
        assert table.forward_sources(0) == {}


class TestWriteIntercept:
    def _mid_migration(self, policy=MigrationWritePolicy.FORWARD):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        table.add_node()
        state = table.begin_migration(0, 2, policy)
        table.advance_migration(0, 4096)  # copied prefix: [0, 4096)
        return table, state

    def test_no_migrations_is_free(self):
        table = ExtentTable(make_placement(2, NODE_SIZE))
        assert table.write_intercept(0, 64) == ()

    def test_forward_mirrors_copied_prefix_only(self):
        table, state = self._mid_migration()
        mirrors = table.write_intercept(4000, 200)  # straddles the cursor
        assert mirrors == [(0, 96, 2, state.dst_slot * table.extent_size + 4000)]
        assert state.forwards == 1
        assert table.forwards_total == 1

    def test_write_past_cursor_not_mirrored(self):
        table, state = self._mid_migration()
        assert table.write_intercept(8192, 64) == []
        assert state.forwards == 0

    def test_write_outside_migrating_extent_untouched(self):
        table, _ = self._mid_migration()
        assert table.write_intercept(table.extent_size, 64) == []

    def test_fence_raises_before_any_byte(self):
        table, state = self._mid_migration(MigrationWritePolicy.FENCE)
        with pytest.raises(StaleEpochError) as exc:
            table.write_intercept(0, 8)
        assert "extent:0" in str(exc.value)
        assert state.fences == 1
        assert table.fences_total == 1


class TestReplicaAnnotations:
    def test_sibling_nodes_cover_other_replicas(self):
        table = ExtentTable(make_placement(3, NODE_SIZE))
        table.annotate_replicas("r1", 0, ES)             # node 0
        table.annotate_replicas("r1", NODE_SIZE, ES)     # node 1
        extent0 = 0
        assert table.sibling_replica_nodes(extent0) == {1}
        assert table.dump()["extents"][extent0]["replica_groups"] == ["r1"]

    def test_clear_removes_annotation(self):
        table = ExtentTable(make_placement(3, NODE_SIZE))
        table.annotate_replicas("r1", 0, ES)
        table.annotate_replicas("r1", NODE_SIZE, ES)
        table.clear_replicas("r1", NODE_SIZE, ES)
        assert table.sibling_replica_nodes(0) == set()


class TestFabricIntegration:
    def test_fabric_exposes_extent_table(self):
        fabric = Fabric(make_placement(2, NODE_SIZE))
        assert fabric.extents.layout is fabric.placement
        assert fabric.node_count == 2
        assert fabric.supports_node_hints is True

    def test_add_node_appends_memory_node(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        node = fabric.add_node()
        assert node == 1
        assert len(fabric.nodes) == 2
        assert fabric.total_size == NODE_SIZE  # headroom only

    def test_reads_touch_extent_heat(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.write(0, b"\x01" * 8)
        fabric.read(0, 8)
        assert fabric.extents.heat_of(0) == 2

    def test_data_survives_commit_via_raw_fabric_copy(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        payload = bytes(range(256))
        fabric.write(512, payload)
        table = fabric.extents
        state = table.begin_migration(0, 1)
        es = table.extent_size
        # Simulate the coordinator's copy with the raw dataplane.
        data = fabric.read(0, es).value
        fabric.write_phys(1, state.dst_slot * es, data)
        table.advance_migration(0, es)
        table.commit_migration(0)
        assert fabric.read(512, len(payload)).value == payload
        assert fabric.node_of(512) == 1

    def test_forwarded_write_lands_on_both_homes(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        table = fabric.extents
        state = table.begin_migration(0, 1)
        es = table.extent_size
        fabric.write_phys(1, state.dst_slot * es, fabric.read(0, es).value)
        table.advance_migration(0, es)  # fully copied, not yet committed
        result = fabric.write(64, b"\xAB" * 8)
        assert result.forward_hops == 1
        # The mirror made the staged copy current before commit.
        table.commit_migration(0)
        assert fabric.read(64, 8).value == b"\xAB" * 8

    def test_fenced_write_raises_and_preserves_bytes(self):
        fabric = Fabric(make_placement(1, NODE_SIZE))
        fabric.add_node()
        fabric.write(64, b"\x11" * 8)
        fabric.extents.begin_migration(0, 1, MigrationWritePolicy.FENCE)
        with pytest.raises(StaleEpochError):
            fabric.write(64, b"\x22" * 8)
        # Fence-before-byte: the old value is intact on the source.
        fabric.extents.abort_migration(0)
        assert fabric.read(64, 8).value == b"\x11" * 8


# -- Where heat is counted -------------------------------------------------
#
# Heat is counted where the fabric touches a node, not where it translates:
# per segment in ``read`` after the failed-node check and per segment in
# ``write``; for a word, before the failed-node check in ``_read_word_at``
# and after the migration policing in ``_atomic_at``. Extents are 4 KiB and
# interleaved over two nodes (extent e on node e % 2, node 2 a spare).

HES = 4096


def _heat_cluster(**kwargs):
    cluster = Cluster(node_count=2, node_size=1 << 16, interleaved=True, **kwargs)
    cluster.add_node()
    client = cluster.client(retry_policy=None, breaker_policy=None)
    return cluster, client


def _read_three_extents(cluster, client):
    client.read(HES - 8, HES + 16)


def _write_two_extents(cluster, client):
    client.write(2 * HES - 8, b"\x01" * 16)


def _word_ops(cluster, client):
    client.read_u64(8)
    client.cas(HES, 0, 5)
    client.faa(3 * HES, 1)


def _indirect_across_extents(cluster, client):
    client.write_u64(0, 3 * HES)  # the pointer (extent 0) names extent 3
    client.load0(0, 8)
    client.faai(0, 8, 8)


def _forward_mirrored_write(cluster, client):
    table = cluster.fabric.extents
    table.begin_migration(0, 2, MigrationWritePolicy.FORWARD)
    table.advance_migration(0, 2048)
    client.write(1024, b"\x02" * 2048)
    assert table.forwards_total == 1


def _fenced_write(cluster, client):
    cluster.fabric.extents.begin_migration(0, 2, MigrationWritePolicy.FENCE)
    with pytest.raises(StaleEpochError):
        client.write(HES - 64, b"\x03" * 128)


def _read_into_failed_node(cluster, client):
    cluster.fabric.fail_node(1)
    with pytest.raises(NodeUnavailableError):
        client.read(HES - 8, HES + 16)  # extent 0 is read, extent 1 is down


def _words_on_failed_node(cluster, client):
    cluster.fabric.fail_node(1)
    for op, args in (("read_u64", ()), ("faa", (1,)), ("cas", (0, 1))):
        with pytest.raises(NodeUnavailableError):
            getattr(client, op)(HES, *args)


def _torn_write(cluster, client):
    cluster.inject_faults(seed=1, plan=FaultPlan().torn_at(0))
    with pytest.raises(FarTimeoutError, match="1096/8192"):
        client.write(HES - 32, b"\x04" * 2 * HES)  # the prefix ends in extent 1


def _refused_indirection(cluster, client):
    client.write_u64(0, 3 * HES)
    with pytest.raises(RemoteIndirectionError):
        cluster.fabric.load0(0, 8)


HEAT_POINTS = [
    (_read_three_extents, {}, {0: 1, 1: 1, 2: 1}),
    (_write_two_extents, {}, {1: 1, 2: 1}),
    (_word_ops, {}, {0: 1, 1: 1, 3: 1}),
    (_indirect_across_extents, {}, {0: 3, 3: 2}),
    (_forward_mirrored_write, {}, {0: 1}),
    (_fenced_write, {}, {}),
    (_read_into_failed_node, {}, {0: 1}),
    (_words_on_failed_node, {}, {1: 3}),
    (_torn_write, {}, {0: 1, 1: 1}),
    (_refused_indirection, {"indirection_policy": IndirectionPolicy.ERROR}, {0: 2}),
]


@pytest.mark.parametrize(
    "scenario, kwargs, heat", HEAT_POINTS, ids=[row[0].__name__[1:] for row in HEAT_POINTS]
)
def test_heat_is_counted_where_the_fabric_touches_a_node(scenario, kwargs, heat):
    cluster, client = _heat_cluster(**kwargs)
    scenario(cluster, client)
    table = cluster.fabric.extents
    seen = {extent: table.heat_of(extent) for extent in range(table.extent_count)}
    assert {extent: count for extent, count in seen.items() if count} == heat
