"""Property tests for the allocator's free-list and accounting invariants.

Hypothesis drives arbitrary interleavings of alloc/free (with hints,
growth, and odd sizes) and checks the structural invariants after every
step: the free list stays sorted, non-overlapping, and fully coalesced
(no two adjacent ranges), live/free bytes always partition the pool, and
``AllocStats`` never drifts from ground truth.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.alloc import FarAllocator, on_node, spread
from repro.fabric import Fabric, make_placement
from repro.fabric.errors import AllocationError
from repro.fabric.wire import align_up

NODE_SIZE = 1 << 20


def check_invariants(allocator: FarAllocator, live: dict[int, int]) -> None:
    free = allocator._free
    # Sorted, non-overlapping, coalesced.
    for (a_start, a_size), (b_start, b_size) in zip(free, free[1:]):
        assert a_start + a_size < b_start, (
            f"free ranges overlap or touch uncoalesced: "
            f"({a_start}, {a_size}) then ({b_start}, {b_size})"
        )
    for start, size in free:
        assert size > 0
        assert 0 <= start and start + size <= allocator.fabric.total_size
    # Free ranges never intersect a live block.
    spans = sorted((addr, live[addr]) for addr in live)
    for (l_start, l_size), (f_start, f_size) in (
        (a, b) for a in spans for b in free
    ):
        assert l_start + l_size <= f_start or f_start + f_size <= l_start, (
            f"live block ({l_start}, {l_size}) overlaps free ({f_start}, {f_size})"
        )
    # Live blocks never overlap each other.
    for (a_start, a_size), (b_start, b_size) in zip(spans, spans[1:]):
        assert a_start + a_size <= b_start
    # Stats are ground truth.
    assert allocator.stats.live_blocks == len(live)
    assert allocator.stats.live_bytes == sum(live.values())
    assert allocator.free_bytes() == sum(size for _, size in free)
    # The reserved null word at the bottom is neither free nor live.
    total_accounted = allocator.free_bytes() + sum(live.values())
    assert total_accounted <= allocator.fabric.total_size


class TestAllocatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.integers(min_value=1, max_value=4),  # node count
        st.integers(min_value=40, max_value=120),  # ops
        st.booleans(),  # use placement hints?
    )
    def test_arbitrary_alloc_free_interleavings(self, seed, nodes, ops, hinted):
        rng = random.Random(seed)
        fabric = Fabric(make_placement(nodes, NODE_SIZE))
        allocator = FarAllocator(fabric)
        live: dict[int, int] = {}

        for _ in range(ops):
            if live and rng.random() < 0.45:
                address = rng.choice(sorted(live))
                allocator.free(address)
                del live[address]
            else:
                size = rng.choice([8, 24, 64, 1000, 4096, 65536])
                size += rng.randrange(0, 3) * 8
                hint = None
                if hinted and rng.random() < 0.5:
                    hint = (
                        on_node(rng.randrange(nodes))
                        if rng.random() < 0.5
                        else spread()
                    )
                try:
                    address = allocator.alloc(size, hint)
                except AllocationError:
                    continue  # full / hint unsatisfiable: fine, no mutation
                assert address % 8 == 0
                live[address] = allocator.size_of(address)
            check_invariants(allocator, live)

        # Tear down completely: everything coalesces back to one range.
        for address in sorted(live):
            allocator.free(address)
        live.clear()
        check_invariants(allocator, live)
        assert len(allocator._free) == 1
        assert allocator.stats.live_bytes == 0
        assert allocator.stats.allocations == allocator.stats.frees

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_per_node_accounting_balances_through_free(self, seed):
        rng = random.Random(seed)
        fabric = Fabric(make_placement(3, NODE_SIZE))
        allocator = FarAllocator(fabric)
        addresses = []
        for _ in range(30):
            try:
                addresses.append(
                    allocator.alloc(rng.choice([64, 4096]), on_node(rng.randrange(3)))
                )
            except AllocationError:
                pass
        for address in addresses:
            allocator.free(address)
        assert all(v == 0 for v in allocator.stats.per_node_bytes.values())

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=3),  # grow events
    )
    def test_growth_extends_the_free_list_coherently(self, seed, grows):
        rng = random.Random(seed)
        fabric = Fabric(make_placement(1, NODE_SIZE))
        allocator = FarAllocator(fabric)
        live: dict[int, int] = {}
        for _ in range(10):
            live_addr = allocator.alloc(rng.choice([64, 4096]))
            live[live_addr] = allocator.size_of(live_addr)
        for _ in range(grows):
            before = fabric.total_size
            fabric.add_node(grow_virtual=True)
            allocator.grow(fabric.total_size - before)
            check_invariants(allocator, live)
        # New space is allocatable.
        big = allocator.alloc(NODE_SIZE // 2)
        live[big] = allocator.size_of(big)
        check_invariants(allocator, live)


def oracle_first_fit(allocator: FarAllocator, size: int, alignment: int, node: int):
    """Lowest aligned base in the lowest free range with every byte of the
    block on ``node`` — by trying candidates, knowing nothing of spans."""
    table = allocator.fabric.extents
    es = table.extent_size
    for start, length in allocator._free:
        base = align_up(start, alignment)
        while base + size <= start + length:
            foreign = next(
                (
                    extent
                    for extent in range(base // es, (base + size - 1) // es + 1)
                    if table.node_of(extent * es) != node
                ),
                None,
            )
            if foreign is None:
                return base
            # Every candidate below the end of a foreign extent overlaps it.
            base = align_up((foreign + 1) * es, alignment)
    return None


class TestHintedFirstFit:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.integers(min_value=2, max_value=4),  # node count
    )
    def test_hinted_alloc_on_a_migrated_table_matches_brute_force(self, seed, nodes):
        rng = random.Random(seed)
        es = 4096
        cluster = Cluster(node_count=nodes, node_size=16 * es, extent_size=es)
        spare = cluster.add_node()
        table = cluster.fabric.extents
        mover = cluster.client("mover")
        for _ in range(rng.randrange(4, 20)):  # scatter extents across nodes
            extent = rng.randrange(table.extent_count)
            targets = [
                node
                for node in range(nodes + 1)
                if node != table.node_of(extent * es) and table.free_slot_count(node)
            ]
            cluster.migration.migrate_extent(mover, extent, rng.choice(targets))
        assert table.extents_on_node(spare), "the table must actually be remapped"

        allocator = cluster.allocator
        live: list[int] = []
        for _ in range(40):
            if live and rng.random() < 0.3:
                allocator.free(live.pop(rng.randrange(len(live))))
                continue
            size = rng.choice([8, 24, 1000, es, es + 8, 3 * es])
            alignment = rng.choice([8, 64, es])
            node = rng.randrange(nodes + 1)
            expected = oracle_first_fit(allocator, size, alignment, node)
            try:
                address = allocator.alloc(size, on_node(node, alignment))
            except AllocationError:
                assert expected is None
                continue
            assert address == expected
            assert {
                table.node_of(extent * es)
                for extent in range(address // es, (address + size - 1) // es + 1)
            } == {node}
            live.append(address)
