"""Unit + property tests for the address space and its initial layouts.

The placements are layout descriptors; translation is the extent table's,
so every expectation is asserted on ``ExtentTable(layout)``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.address import (
    PAGE_SIZE,
    InterleavedPlacement,
    Location,
    RangePlacement,
    page_of,
    same_page,
)
from repro.fabric.errors import AddressError
from repro.fabric.extent import ExtentTable

from . import layout_oracle as oracle

NODE_SIZE = 1 << 20


class TestLocation:
    """A location is the tuple ``(node, offset)`` with its two fields named."""

    def test_is_a_node_offset_tuple(self):
        location = Location((2, 96))
        node, offset = location
        assert (node, offset) == (location.node, location.offset) == (2, 96)
        assert location == (2, 96) and isinstance(location, tuple)
        assert hash(location) == hash((2, 96))
        assert {location: "seen"}[(2, 96)] == "seen"
        with pytest.raises(AttributeError):
            location.node = 3  # type: ignore[misc]
        with pytest.raises(AttributeError):
            location.extra = 1  # type: ignore[attr-defined]

    def test_locate_and_split_return_locations(self):
        table = ExtentTable(RangePlacement(node_count=2, node_size=NODE_SIZE))
        location = table.locate(NODE_SIZE + 40)
        assert type(location) is Location and location == (1, 40)
        segments = table.split(NODE_SIZE - 8, 16)
        assert [(type(at), at, length) for at, length in segments] == [
            (Location, (0, NODE_SIZE - 8), 8),
            (Location, (1, 0), 8),
        ]
        assert table.node_of(NODE_SIZE + 40) == 1
        with pytest.raises(AddressError):
            table.node_of(2 * NODE_SIZE)


class TestRangePlacement:
    def setup_method(self):
        self.placement = RangePlacement(node_count=4, node_size=NODE_SIZE)
        self.table = ExtentTable(self.placement)

    def test_total_size(self):
        assert self.placement.total_size == 4 * NODE_SIZE
        assert self.table.virtual_size == 4 * NODE_SIZE

    def test_is_one_stripe_per_node(self):
        assert self.placement.granularity == NODE_SIZE
        assert self.placement.supports_node_hints

    def test_locate_first_node(self):
        loc = self.table.locate(100)
        assert (loc.node, loc.offset) == (0, 100)

    def test_locate_boundary(self):
        loc = self.table.locate(NODE_SIZE)
        assert (loc.node, loc.offset) == (1, 0)

    def test_globalize_inverse(self):
        addr = 3 * NODE_SIZE + 17
        loc = self.table.locate(addr)
        assert self.table.globalize(loc.node, loc.offset) == addr

    def test_contiguous_extent(self):
        assert self.table.same_node_span(0) == NODE_SIZE
        assert self.table.same_node_span(NODE_SIZE - 8) == 8

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            self.table.locate(4 * NODE_SIZE)
        with pytest.raises(AddressError):
            self.table.check(-1, 8)

    def test_split_single_segment(self):
        segments = self.table.split(10, 100)
        assert len(segments) == 1
        assert segments[0][1] == 100

    def test_split_across_nodes(self):
        segments = self.table.split(NODE_SIZE - 10, 30)
        assert len(segments) == 2
        assert segments[0][1] == 10
        assert segments[1][1] == 20
        assert segments[0][0].node == 0
        assert segments[1][0].node == 1

    def test_globalize_validates(self):
        with pytest.raises(AddressError):
            self.table.globalize(9, 0)
        with pytest.raises(AddressError):
            self.table.globalize(0, NODE_SIZE)

    @given(st.integers(min_value=0, max_value=4 * NODE_SIZE - 1))
    def test_locate_globalize_roundtrip(self, addr):
        loc = self.table.locate(addr)
        assert (loc.node, loc.offset) == oracle.locate(self.placement, addr)
        assert self.table.globalize(loc.node, loc.offset) == addr


class TestInterleavedPlacement:
    def setup_method(self):
        self.placement = InterleavedPlacement(
            node_count=4, node_size=NODE_SIZE, granularity=4096
        )
        self.table = ExtentTable(self.placement)

    def test_round_robin_stripes(self):
        assert self.table.locate(0).node == 0
        assert self.table.locate(4096).node == 1
        assert self.table.locate(2 * 4096).node == 2
        assert self.table.locate(4 * 4096).node == 0

    def test_within_stripe_offset(self):
        loc = self.table.locate(4096 + 100)
        assert loc.node == 1
        assert loc.offset == 100

    def test_second_lap_offsets(self):
        loc = self.table.locate(4 * 4096 + 7)
        assert loc.node == 0
        assert loc.offset == 4096 + 7

    def test_contiguous_extent_is_stripe_remainder(self):
        assert self.table.same_node_span(0) == 4096
        assert self.table.same_node_span(4090) == 6

    def test_split_strides_nodes(self):
        segments = self.table.split(0, 3 * 4096)
        assert [loc.node for loc, _ in segments] == [0, 1, 2]

    def test_granularity_must_divide_node_size(self):
        with pytest.raises(ValueError):
            InterleavedPlacement(node_count=2, node_size=NODE_SIZE, granularity=4096 + 8)

    def test_granularity_word_multiple(self):
        with pytest.raises(ValueError):
            InterleavedPlacement(node_count=2, node_size=NODE_SIZE, granularity=13)

    def test_not_node_hintable(self):
        assert not self.placement.supports_node_hints
        assert self.placement.granularity == 4096

    @given(st.integers(min_value=0, max_value=4 * NODE_SIZE - 1))
    def test_locate_globalize_roundtrip(self, addr):
        loc = self.table.locate(addr)
        assert (loc.node, loc.offset) == oracle.locate(self.placement, addr)
        assert self.table.globalize(loc.node, loc.offset) == addr
        assert oracle.globalize(self.placement, loc.node, loc.offset) == addr

    @given(
        st.integers(min_value=0, max_value=4 * NODE_SIZE - 10_000),
        st.integers(min_value=1, max_value=9_999),
    )
    def test_split_covers_range_exactly(self, addr, length):
        segments = self.table.split(addr, length)
        assert sum(seg for _, seg in segments) == length
        # Each segment stays within one node's contiguous extent.
        cursor = addr
        for loc, seg in segments:
            assert self.table.locate(cursor) == loc
            assert seg <= self.table.same_node_span(cursor)
            cursor += seg
        # With >= 2 nodes no two stripes coalesce: one segment per stripe.
        assert oracle.as_pairs(segments) == oracle.split(self.placement, addr, length)


class TestSeed:
    """The one seed formula, against both closed forms it replaced."""

    @pytest.mark.parametrize(
        "layout",
        [
            RangePlacement(node_count=3, node_size=NODE_SIZE),
            InterleavedPlacement(node_count=3, node_size=NODE_SIZE, granularity=8192),
            InterleavedPlacement(node_count=1, node_size=NODE_SIZE, granularity=4096),
        ],
    )
    @pytest.mark.parametrize("extent_size", [2048, 4096])
    def test_seed_columns_match_closed_form(self, layout, extent_size):
        nodes, slots = layout.seed(extent_size)
        assert len(nodes) == len(slots) == layout.total_size // extent_size
        for extent in range(len(nodes)):
            node, offset = oracle.locate(layout, extent * extent_size)
            assert (nodes[extent], slots[extent] * extent_size) == (node, offset)

    def test_placements_only_describe(self):
        for name in ("locate", "globalize", "contiguous_extent", "split", "check"):
            assert not hasattr(RangePlacement, name)
            assert not hasattr(InterleavedPlacement, name)


class TestValidation:
    def test_node_count_positive(self):
        with pytest.raises(ValueError):
            RangePlacement(node_count=0, node_size=NODE_SIZE)

    def test_node_size_page_multiple(self):
        with pytest.raises(ValueError):
            RangePlacement(node_count=1, node_size=100)

    def test_negative_length_check(self):
        table = ExtentTable(RangePlacement(node_count=1, node_size=NODE_SIZE))
        with pytest.raises(AddressError):
            table.check(0, -1)
        with pytest.raises(AddressError):
            table.split(0, -1)


class TestPages:
    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE - 1) == 0
        assert page_of(PAGE_SIZE) == 1

    def test_same_page(self):
        assert same_page(0, PAGE_SIZE)
        assert not same_page(PAGE_SIZE - 8, 16)
        assert same_page(PAGE_SIZE - 8, 8)
        assert same_page(12345, 0)
