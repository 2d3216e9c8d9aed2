"""Unit tests for the client NIC: accounting, batching, fences, and the
ERROR-policy indirection completion."""

import pytest

from repro import Cluster
from repro.fabric import IndirectionPolicy
from repro.fabric.wire import WORD, encode_u64

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


@pytest.fixture
def client(cluster):
    return cluster.client()


class TestAccounting:
    def test_every_base_op_is_one_far_access(self, cluster, client):
        a = cluster.allocator.alloc_words(4)
        client.write_u64(a, 1)
        client.read_u64(a)
        client.cas(a, 1, 2)
        client.faa(a, 1)
        client.swap(a, 5)
        client.read(a, 16)
        client.write(a, b"\x00" * 16)
        assert client.metrics.far_accesses == 7
        assert client.metrics.round_trips == 7

    def test_bytes_accounting(self, cluster, client):
        a = cluster.allocator.alloc(128)
        client.write(a, b"x" * 100)
        client.read(a, 30)
        assert client.metrics.bytes_written == 100
        assert client.metrics.bytes_read == 30

    def test_atomic_counter(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        client.faa(a, 1)
        client.cas(a, 0, 1)
        assert client.metrics.atomic_ops == 2

    def test_time_advances_per_op(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        model = client.cost_model
        client.read_u64(a)
        assert client.clock.now_ns == model.far_ns
        client.read_u64(a)
        assert client.clock.now_ns == 2 * model.far_ns

    def test_touch_local_is_cheap(self, cluster, client):
        client.touch_local(10)
        assert client.metrics.near_accesses == 10
        assert client.metrics.far_accesses == 0
        assert client.clock.now_ns == 10 * client.cost_model.near_ns

    def test_scatter_gather_is_one_far_access(self, cluster, client):
        a = cluster.allocator.alloc(64)
        client.wgather(a, [b"ab", b"cd"])
        client.rgather([(a, 2), (a + 2, 2)])
        client.rscatter(a, [2, 2])
        client.wscatter([(a, 2)], b"zz")
        assert client.metrics.far_accesses == 4

    @pytest.mark.parametrize("op", ["write", "wscatter", "write_phys", "wgather"])
    def test_a_write_keeps_no_reference_to_the_callers_buffer(self, cluster, client, op):
        """The client hands a caller's buffer down uncopied: the memory node
        copies what lands, so mutating the buffer afterwards changes nothing."""
        a = cluster.allocator.alloc(32)
        data = bytearray(b"x" * 32)
        head, tail = bytearray(b"x" * 8), bytearray(b"x" * 24)
        location = cluster.fabric.locate(a)
        args = {
            "write": (a, data),
            "wscatter": ([(a, 8), (a + 8, 24)], data),
            "write_phys": (location.node, location.offset, data),
            "wgather": (a, [head, tail]),
        }[op]
        getattr(client, op)(*args)
        for buffer in (data, head, tail):
            buffer[:] = b"y" * len(buffer)
        assert client.read(a, 32) == b"x" * 32

    @pytest.mark.parametrize("guarded", [False, True], ids=["bare", "guarded"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda c, a: c.read_u64(a, 5),
            lambda c, a: c.cas(a, 0, 1, 2),
            lambda c, a: c.read(a, 8, 9),
        ],
        ids=["read_u64", "cas", "read"],
    )
    def test_an_extra_argument_is_a_type_error(self, cluster, guarded, call):
        """An argument past an op's own takes the slot of the translation a
        guarded client appends: it is refused as a call error on any client."""
        client = cluster.client() if guarded else cluster.client(
            retry_policy=None, breaker_policy=None
        )
        a = cluster.allocator.alloc(16)
        with pytest.raises(TypeError):
            call(client, a)

    def test_charge_far_access(self, client):
        client.charge_far_access(nbytes_written=24)
        assert client.metrics.far_accesses == 1
        assert client.metrics.bytes_written == 24


class TestBatching:
    def test_batch_overlaps_latency(self, cluster, client):
        a = cluster.allocator.alloc_words(8)
        model = client.cost_model
        with client.batch():
            for i in range(4):
                client.write_u64(a + i * WORD, i)
        # 4 overlapped ops: max latency + 3 issue slots, not 4 full RTTs.
        expected = model.far_ns + 3 * model.issue_ns
        assert client.clock.now_ns == pytest.approx(expected)
        assert client.metrics.far_accesses == 4  # work is still counted

    def test_fence_inside_batch_orders(self, cluster, client):
        a = cluster.allocator.alloc_words(2)
        model = client.cost_model
        with client.batch():
            client.write_u64(a, 1)
            client.fence()
            client.write_u64(a + WORD, 2)
        # Two ordered groups of one op each.
        assert client.clock.now_ns == pytest.approx(2 * model.far_ns)

    def test_nested_batch_flattens(self, cluster, client):
        a = cluster.allocator.alloc_words(2)
        with client.batch():
            client.write_u64(a, 1)
            with client.batch():
                client.write_u64(a + WORD, 2)
        assert client.metrics.far_accesses == 2

    def test_empty_batch_costs_nothing(self, client):
        with client.batch():
            pass
        assert client.clock.now_ns == 0

    def test_fence_counted(self, client):
        client.fence()
        assert client.metrics.custom["fences"] == 1


class TestIndirectAccounting:
    def test_forwarded_indirection_counts_hops(self, cluster):
        client = cluster.client()
        pointer = cluster.allocator.alloc_words(1, hint=None)
        # Place the target on the other node.
        from repro.alloc import on_node

        target = cluster.allocator.alloc_words(1, on_node(1))
        assert cluster.fabric.node_of(target) == 1
        client.write_u64(pointer, target)
        client.write_u64(target, 55)
        snapshot = client.metrics.snapshot()
        assert client.load0_u64(pointer) == 55
        delta = client.metrics.delta(snapshot)
        assert delta.far_accesses == 1
        assert delta.indirection_forwards == 1
        assert delta.network_traversals == 3  # client->home->target->client

    def test_error_policy_auto_completion(self):
        cluster = Cluster(
            node_count=2,
            node_size=NODE_SIZE,
            indirection_policy=IndirectionPolicy.ERROR,
        )
        client = cluster.client()
        from repro.alloc import on_node

        pointer = cluster.allocator.alloc_words(1, on_node(0))
        target = cluster.allocator.alloc_words(1, on_node(1))
        client.write_u64(pointer, target)
        client.write_u64(target, 77)
        snapshot = client.metrics.snapshot()
        assert client.load0_u64(pointer) == 77
        delta = client.metrics.delta(snapshot)
        # Failed indirect attempt + direct completion = 2 round trips.
        assert delta.far_accesses == 2
        assert delta.round_trips == 2
        assert delta.indirection_errors == 1

    def test_error_completion_for_stores_and_adds(self):
        cluster = Cluster(
            node_count=2,
            node_size=NODE_SIZE,
            indirection_policy=IndirectionPolicy.ERROR,
        )
        client = cluster.client()
        from repro.alloc import on_node

        pointer = cluster.allocator.alloc_words(1, on_node(0))
        target = cluster.allocator.alloc_words(1, on_node(1))
        client.write_u64(pointer, target)
        client.store0(pointer, encode_u64(5))
        assert cluster.fabric.read_word(target) == 5
        client.add0(pointer, 3)
        assert cluster.fabric.read_word(target) == 8
        assert client.metrics.indirection_errors == 2


class TestWordConveniences:
    def test_load_store_u64_variants(self, cluster, client):
        base = cluster.allocator.alloc_words(8)
        pointer = cluster.allocator.alloc_words(1)
        client.write_u64(pointer, base)
        client.store0_u64(pointer, 9)
        assert client.load0_u64(pointer) == 9
        client.store2_u64(pointer, 2 * WORD, 11)
        assert client.load2_u64(pointer, 2 * WORD) == 11


class TestNotificationInbox:
    def test_deliver_and_poll(self, cluster):
        client = cluster.client()
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(client, a, WORD)
        other = cluster.client()
        other.write_u64(a, 1)
        other.write_u64(a, 2)
        assert client.pending_notifications() == 2
        first = client.poll_notifications(max_items=1)
        assert len(first) == 1
        rest = client.poll_notifications()
        assert len(rest) == 1
        assert client.metrics.notifications_received == 2

    def test_poll_costs_near_not_far(self, cluster):
        client = cluster.client()
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(client, a, WORD)
        far_before = client.metrics.far_accesses
        cluster.client().write_u64(a, 1)
        client.poll_notifications()
        assert client.metrics.far_accesses == far_before
        assert client.metrics.near_accesses >= 1
