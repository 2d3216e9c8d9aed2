"""Unit tests for fabric routing and base operations."""

import pytest

from repro.fabric import (
    Fabric,
    IndirectionPolicy,
    InterleavedPlacement,
    RangePlacement,
)
from repro.fabric.errors import RemoteIndirectionError
from repro.fabric.wire import WORD, encode_u64

NODE_SIZE = 1 << 20


@pytest.fixture
def fabric():
    return Fabric(RangePlacement(node_count=2, node_size=NODE_SIZE))


@pytest.fixture
def striped():
    return Fabric(
        InterleavedPlacement(node_count=4, node_size=NODE_SIZE, granularity=4096)
    )


class TestRouting:
    def test_read_write_roundtrip(self, fabric):
        fabric.write(100, b"payload")
        assert fabric.read(100, 7).value == b"payload"

    def test_cross_node_write_splits(self, fabric):
        data = b"A" * 32
        boundary = NODE_SIZE - 16
        result = fabric.write(boundary, data)
        assert result.segments == 2
        assert fabric.read(boundary, 32).value == data
        # The bytes really live on both nodes.
        assert fabric.nodes[0].read(boundary, 16) == b"A" * 16
        assert fabric.nodes[1].read(0, 16) == b"A" * 16

    def test_striped_read_segments(self, striped):
        striped.write(0, b"B" * (3 * 4096))
        result = striped.read(0, 3 * 4096)
        assert result.segments == 3
        assert result.value == b"B" * (3 * 4096)

    def test_word_ops(self, fabric):
        fabric.write_word(8, 77)
        assert fabric.read_word(8) == 77

    def test_atomics_route_to_owning_node(self, fabric):
        addr = NODE_SIZE + 64  # node 1
        fabric.write_word(addr, 5)
        old = fabric.fetch_add(addr, 2)
        assert old == 5
        assert fabric.nodes[1].read_word(64) == 7

    def test_cas_and_swap(self, fabric):
        fabric.write_word(0, 1)
        assert fabric.compare_and_swap(0, 1, 2) == (1, True)
        assert fabric.compare_and_swap(0, 1, 3) == (2, False)
        assert fabric.swap(0, 9) == 2

    def test_node_of(self, fabric):
        assert fabric.node_of(0) == 0
        assert fabric.node_of(NODE_SIZE) == 1

    def test_nodes_follow_the_placement(self):
        f = Fabric(RangePlacement(node_count=3, node_size=NODE_SIZE))
        assert len(f.nodes) == 3
        assert f.total_size == 3 * NODE_SIZE


class TestNotifierWiring:
    def test_writes_reach_notifier(self, fabric):
        events = []

        class Spy:
            def on_write(self, address, length, data):
                events.append((address, length, data))

        fabric.set_notifier(Spy())
        fabric.write(NODE_SIZE + 8, b"zz")
        assert events == [(NODE_SIZE + 8, 2, b"zz")]

    def test_notifier_gets_global_addresses_from_striped_nodes(self, striped):
        events = []

        class Spy:
            def on_write(self, address, length, data):
                events.append(address)

        striped.set_notifier(Spy())
        addr = 5 * 4096 + 16  # node 1, second stripe
        striped.write_word(addr, 3)
        assert events == [addr]


class TestIndirectionPolicy:
    def test_forward_counts_hops(self):
        fabric = Fabric(
            RangePlacement(node_count=2, node_size=NODE_SIZE),
            indirection_policy=IndirectionPolicy.FORWARD,
        )
        pointer_home = 0  # node 0
        target = NODE_SIZE + 128  # node 1
        fabric.write_word(pointer_home, target)
        fabric.write(target, encode_u64(99))
        result = fabric.load0(pointer_home, WORD)
        assert result.forward_hops == 1
        assert result.pointer == target

    def test_local_indirection_has_no_hops(self, fabric):
        fabric.write_word(0, 256)
        fabric.write(256, encode_u64(5))
        assert fabric.load0(0, WORD).forward_hops == 0

    def test_error_policy_raises_with_pending(self):
        fabric = Fabric(
            RangePlacement(node_count=2, node_size=NODE_SIZE),
            indirection_policy=IndirectionPolicy.ERROR,
        )
        target = NODE_SIZE + 64
        fabric.write_word(0, target)
        with pytest.raises(RemoteIndirectionError) as excinfo:
            fabric.load0(0, WORD)
        pending = excinfo.value.pending
        assert pending.kind == "read"
        assert pending.target == target
        assert excinfo.value.home_node == 0
        assert excinfo.value.target_node == 1

    def test_error_policy_faai_commits_pointer_bump(self):
        fabric = Fabric(
            RangePlacement(node_count=2, node_size=NODE_SIZE),
            indirection_policy=IndirectionPolicy.ERROR,
        )
        target = NODE_SIZE + 64
        fabric.write_word(0, target)
        with pytest.raises(RemoteIndirectionError):
            fabric.faai(0, WORD, WORD)
        # Section 7.1: the home-node half already committed.
        assert fabric.read_word(0) == target + WORD
