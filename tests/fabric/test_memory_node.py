"""Unit + property tests for a single memory node."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.errors import AddressError, AlignmentError, FabricError
from repro.fabric.memory_node import MemoryNode
from repro.fabric.wire import U64_MASK

SIZE = 1 << 16


@pytest.fixture
def node() -> MemoryNode:
    return MemoryNode(node_id=0, size=SIZE)


class TestReadWrite:
    def test_starts_zeroed(self, node):
        assert node.read(0, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self, node):
        node.write(100, b"hello")
        assert node.read(100, 5) == b"hello"

    def test_word_roundtrip(self, node):
        node.write_word(8, 12345)
        assert node.read_word(8) == 12345

    def test_out_of_bounds_read(self, node):
        with pytest.raises(AddressError):
            node.read(SIZE - 4, 8)

    def test_out_of_bounds_write(self, node):
        with pytest.raises(AddressError):
            node.write(SIZE, b"x")

    def test_negative_offset(self, node):
        with pytest.raises(AddressError):
            node.read(-1, 1)

    def test_unaligned_word_rejected(self, node):
        with pytest.raises(AlignmentError):
            node.read_word(3)
        with pytest.raises(AlignmentError):
            node.write_word(3, 1)

    @given(
        st.integers(min_value=0, max_value=SIZE - 256),
        st.binary(min_size=1, max_size=256),
    )
    def test_write_read_property(self, offset, data):
        node = MemoryNode(0, SIZE)
        node.write(offset, data)
        assert node.read(offset, len(data)) == data


class TestAtomics:
    def test_cas_success(self, node):
        node.write_word(0, 5)
        old, ok = node.compare_and_swap(0, 5, 9)
        assert (old, ok) == (5, True)
        assert node.read_word(0) == 9

    def test_cas_failure_leaves_value(self, node):
        node.write_word(0, 5)
        old, ok = node.compare_and_swap(0, 4, 9)
        assert (old, ok) == (5, False)
        assert node.read_word(0) == 5

    def test_fetch_add_returns_old(self, node):
        node.write_word(8, 10)
        assert node.fetch_add(8, 3) == 10
        assert node.read_word(8) == 13

    def test_fetch_add_wraps(self, node):
        node.write_word(8, U64_MASK)
        node.fetch_add(8, 1)
        assert node.read_word(8) == 0

    def test_fetch_add_negative(self, node):
        node.write_word(8, 5)
        node.fetch_add(8, -2)
        assert node.read_word(8) == 3

    def test_swap(self, node):
        node.write_word(16, 1)
        assert node.swap(16, 2) == 1
        assert node.read_word(16) == 2

    def test_atomics_require_alignment(self, node):
        with pytest.raises(AlignmentError):
            node.fetch_add(4, 1)


class TestWriteHook:
    def test_hook_fires_on_write(self, node):
        events = []
        node.set_write_hook(lambda *args: events.append(args))
        node.write(24, b"ab")
        assert events == [(0, 24, 2, b"ab")]

    def test_hook_fires_on_atomics(self, node):
        events = []
        node.set_write_hook(lambda *args: events.append(args))
        node.fetch_add(0, 1)
        node.swap(8, 2)
        node.compare_and_swap(16, 0, 1)
        assert len(events) == 3

    def test_hook_not_fired_on_failed_cas(self, node):
        events = []
        node.write_word(0, 7)
        node.set_write_hook(lambda *args: events.append(args))
        node.compare_and_swap(0, 1, 2)
        assert events == []

    def test_hook_not_fired_on_read(self, node):
        events = []
        node.set_write_hook(lambda *args: events.append(args))
        node.read(0, 8)
        assert events == []

    def test_hook_sees_new_bytes(self, node):
        captured = {}
        node.set_write_hook(
            lambda nid, off, length, data: captured.update(data=data)
        )
        node.write_word(0, 0xAB)
        assert captured["data"][0] == 0xAB


class TestStats:
    def test_counts(self, node):
        node.write(0, b"xy")
        node.read(0, 2)
        node.fetch_add(8, 1)
        assert node.stats.writes == 1
        assert node.stats.reads == 1
        assert node.stats.atomics == 1
        assert node.stats.bytes_written == 2
        assert node.stats.bytes_read == 2
        assert node.stats.total_ops() == 3

    def test_size_validation(self):
        with pytest.raises(ValueError):
            MemoryNode(0, 0)


# Each word op's guard at the offsets around both ends of a node, read off
# the node before its check went inline: the error type and message, or
# ``None`` where the op succeeds. ``size - 4`` is both out of range and
# unaligned, and the range check wins.
GUARD_SIZE = 4096
WORD_OPS = {
    "read_word": lambda node, offset: node.read_word(offset),
    "write_word": lambda node, offset: node.write_word(offset, 5),
    "compare_and_swap": lambda node, offset: node.compare_and_swap(offset, 0, 1),
    "fetch_add": lambda node, offset: node.fetch_add(offset, 1),
    "swap": lambda node, offset: node.swap(offset, 2),
}
GUARD = {
    -8: (AddressError, "address=0x-8 length=8: outside node 3"),
    -3: (AddressError, "address=0x-3 length=8: outside node 3"),
    0: None,
    GUARD_SIZE - 8: None,
    GUARD_SIZE - 4: (AddressError, "address=0xffc length=8: outside node 3"),
    GUARD_SIZE: (AddressError, "address=0x1000 length=8: outside node 3"),
    3: (AlignmentError, "word operation at unaligned offset 0x3"),
}


@pytest.mark.parametrize("offset", sorted(GUARD))
@pytest.mark.parametrize("op", sorted(WORD_OPS))
def test_word_op_guard(op, offset):
    node = MemoryNode(node_id=3, size=GUARD_SIZE)
    if GUARD[offset] is None:
        WORD_OPS[op](node, offset)
        assert node.stats.total_ops() == 1
        return
    error, message = GUARD[offset]
    with pytest.raises(FabricError) as raised:
        WORD_OPS[op](node, offset)
    assert (type(raised.value), str(raised.value)) == (error, message)
    assert node.stats.total_ops() == 0  # refused before it counted


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        pytest.skip("no /proc/self/statm on this platform")


class TestDemandZero:
    """A node's bytes take host memory only once written."""

    def test_a_large_node_costs_no_resident_memory(self):
        before = _resident_bytes()
        node = MemoryNode(node_id=0, size=256 << 20)
        assert _resident_bytes() - before < 16 << 20
        last = node.size - 8
        assert node.read_word(0) == 0 and node.read_word(last) == 0
        assert node.read(node.size // 2, 8192) == bytes(8192)
        node.corrupt_bit(node.size // 3, 5)  # a page nothing has touched
        assert node.read(node.size // 3, 1) == bytes([1 << 5])
        assert _resident_bytes() - before < 16 << 20

    def test_storage_is_exactly_the_node_size(self):
        node = MemoryNode(node_id=0, size=5000)  # not a page multiple
        assert len(bytes(node._data)) == 5000
        node.write(4992, b"tail-end")
        assert bytes(node._data)[-8:] == b"tail-end"
        with pytest.raises(AddressError):
            node.write(4993, b"tail-end")
