"""Property test for the one address map.

Hypothesis draws an initial layout and a random membership/migration
history; after every step the extent table is compared with a brute-force
dict model seeded from the old closed-form layout formulas
(``layout_oracle``). The model knows nothing about columns, coalescing
loops or sentinels: it is a dict per direction plus per-node free sets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import MigrationWritePolicy, make_placement
from repro.fabric.errors import AddressError, AllocationError
from repro.fabric.extent import ExtentTable

from . import layout_oracle as oracle


class Model:
    """Dict oracle of the virtual→physical map and its slot book-keeping."""

    def __init__(self, layout, extent_size):
        self.es = extent_size
        self.default_slots = layout.node_size // extent_size
        self.home = {}  # extent -> (node, slot)
        for extent in range(layout.total_size // extent_size):
            node, offset = oracle.locate(layout, extent * extent_size)
            self.home[extent] = (node, offset // extent_size)
        self.free = {node: set() for node in range(layout.node_count)}
        self.staging = {}  # extent -> [dst_node, dst_slot, cursor]
        self.moved = set()

    @property
    def virtual_size(self):
        return len(self.home) * self.es

    def locate(self, address):
        node, slot = self.home[address // self.es]
        return node, slot * self.es + address % self.es

    def split(self, address, length):
        """Per-extent pieces, then merge neighbours that are physically
        contiguous on one node."""
        merged = []
        end = address + length
        while address < end:
            take = min(self.es - address % self.es, end - address)
            node, offset = self.locate(address)
            if merged and merged[-1][0] == (node, offset - merged[-1][1]):
                merged[-1] = (merged[-1][0], merged[-1][1] + take)
            else:
                merged.append(((node, offset), take))
            address += take
        return merged

    def add_node(self, grow_virtual):
        node = len(self.free)
        self.free[node] = set()
        if grow_virtual:
            first = len(self.home)
            for slot in range(self.default_slots):
                self.home[first + slot] = (node, slot)
        else:
            self.free[node] = set(range(self.default_slots))
        return node

    def begin_error(self, extent, dst):
        return extent in self.staging or dst == self.home[extent][0] or not self.free[dst]

    def begin(self, extent, dst):
        slot = min(self.free[dst])
        self.free[dst].remove(slot)
        self.staging[extent] = [dst, slot, 0]

    def advance(self, extent, nbytes):
        state = self.staging[extent]
        state[2] = min(state[2] + nbytes, self.es)

    def commit(self, extent):
        dst, slot, _ = self.staging.pop(extent)
        src_node, src_slot = self.home[extent]
        self.free[src_node].add(src_slot)
        self.home[extent] = (dst, slot)
        self.moved.add(extent)

    def abort(self, extent):
        dst, slot, _ = self.staging.pop(extent)
        self.free[dst].add(slot)


def check_against_model(table, model, probes):
    es = model.es
    assert table.virtual_size == model.virtual_size
    assert table.extent_count == len(model.home)
    assert table.node_count == len(model.free)
    assert table.dump()["remapped"] == len(model.moved)

    # locate agrees with the model and globalize inverts it, at both ends
    # of every extent.
    for extent in model.home:
        for address in (extent * es, extent * es + es - 1):
            location = table.locate(address)
            assert (location.node, location.offset) == model.locate(address)
            assert table.globalize(location.node, location.offset) == address
            assert table.node_of(address) == location.node
    with pytest.raises(AddressError):
        table.locate(model.virtual_size)

    # Free and staging slots have no virtual address.
    unmapped = {(node, slot) for node, slots in model.free.items() for slot in slots}
    unmapped |= {(dst, slot) for dst, slot, _ in model.staging.values()}
    for node, slot in unmapped:
        assert table.try_globalize(node, slot * es) is None
        with pytest.raises(AddressError):
            table.globalize(node, slot * es + es - 1)
    for node, slots in model.free.items():
        assert table.free_slot_count(node) == len(slots)
        homed = sorted(e for e, (home, _) in model.home.items() if home == node)
        assert table.extents_on_node(node) == homed

    # Random ranges, plus one straddling each moved extent and both its
    # neighbours (where coalescing decisions actually change).
    ranges = []
    for a_sel, n_sel in probes:
        address = a_sel % model.virtual_size
        ranges.append((address, n_sel % (model.virtual_size - address + 1)))
    for extent in model.moved:
        address = max(0, (extent - 1) * es + 8)
        ranges.append((address, min(3 * es - 16, model.virtual_size - address)))
    for address, length in ranges:
        segments = table.split(address, length)
        # Covers the range exactly, in order...
        assert sum(n for _, n in segments) == length
        cursor = address
        for location, n in segments:
            assert (location.node, location.offset) == model.locate(cursor)
            cursor += n
        # ...maximally coalesced...
        for (first, n), (second, _) in zip(segments, segments[1:]):
            assert (first.node, first.offset + n) != (second.node, second.offset)
        # ...and is exactly the brute-force answer.
        assert oracle.as_pairs(segments) == model.split(address, length)

        # same_node_span is the leading same-node prefix of the split to
        # the end of the address space.
        tail = table.split(address, model.virtual_size - address)
        span = 0
        for location, n in tail:
            if location.node != tail[0][0].node:
                break
            span += n
        assert table.same_node_span(address) == span
        limited = table.same_node_span(address, limit=length)
        assert min(span, length) <= limited <= span


@st.composite
def layouts(draw):
    node_count = draw(st.integers(min_value=1, max_value=4))
    node_size = draw(st.sampled_from([16 << 10, 32 << 10]))
    if draw(st.booleans()):
        granularity = draw(st.sampled_from([1024, 4096]))
        layout = make_placement(node_count, node_size, interleaved=True, granularity=granularity)
        extent_size = draw(st.sampled_from([None, 512, 1024]))
    else:
        layout = make_placement(node_count, node_size)
        extent_size = draw(st.sampled_from([None, 1024, 4096, 8192]))
    return layout, extent_size


selectors = st.integers(min_value=0, max_value=1 << 16)
# Mostly the first few extents, so histories pile up on neighbours.
extents = st.one_of(st.integers(min_value=0, max_value=5), selectors)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("migrate"), extents, selectors, st.sampled_from(MigrationWritePolicy)),
        st.tuples(st.just("begin"), extents, selectors, st.sampled_from(MigrationWritePolicy)),
        st.tuples(st.just("advance"), selectors, st.sampled_from([8, 512, 1 << 20])),
        st.tuples(st.just("commit"), selectors),
        st.tuples(st.just("abort"), selectors),
        st.tuples(st.just("add_node"), st.booleans()),
    ),
    max_size=24,
)
probe_lists = st.lists(st.tuples(selectors, selectors), min_size=2, max_size=6)


def pick_destination(model, selector):
    """Mostly a node with a free slot (so histories really move extents),
    sometimes any node at all (so refusals are exercised too)."""
    roomy = [node for node, slots in sorted(model.free.items()) if slots]
    if roomy and selector % 4:
        return roomy[selector % len(roomy)]
    return selector % len(model.free)


@settings(max_examples=150, deadline=None)
@given(layouts(), st.integers(min_value=0, max_value=2), steps, probe_lists)
def test_table_matches_dict_oracle_under_any_history(layout_and_size, spares, history, probes):
    layout, extent_size = layout_and_size
    table = ExtentTable(layout, extent_size=extent_size)
    model = Model(layout, table.extent_size)
    for _ in range(spares):  # headroom nodes: somewhere for extents to go
        assert table.add_node()[0] == model.add_node(False)
    check_against_model(table, model, probes)

    for step in history:
        kind = step[0]
        if kind == "add_node":
            node, grown = table.add_node(grow_virtual=step[1])
            assert node == model.add_node(step[1])
            assert grown == (layout.node_size if step[1] else 0)
        elif kind in ("begin", "migrate"):
            extent = step[1] % len(model.home)
            dst = pick_destination(model, step[2])
            if model.begin_error(extent, dst):
                with pytest.raises(AllocationError):
                    table.begin_migration(extent, dst, step[3])
            else:
                state = table.begin_migration(extent, dst, step[3])
                model.begin(extent, dst)
                assert [state.dst_node, state.dst_slot, state.cursor] == model.staging[extent]
                assert (state.src_node, state.src_slot) == model.home[extent]
                if kind == "migrate":
                    table.advance_migration(extent, model.es)
                    table.commit_migration(extent)
                    model.commit(extent)
                    assert table.epoch_of(extent) > 1
        elif model.staging:
            in_flight = sorted(model.staging)
            extent = in_flight[step[1] % len(in_flight)]
            if kind == "advance":
                table.advance_migration(extent, step[2])
                model.advance(extent, step[2])
            elif kind == "abort":
                table.abort_migration(extent)
                model.abort(extent)
            elif model.staging[extent][2] < model.es:
                with pytest.raises(AllocationError):
                    table.commit_migration(extent)
            else:
                table.commit_migration(extent)
                model.commit(extent)
        assert table.migrating_extents == sorted(model.staging)
        check_against_model(table, model, probes)
