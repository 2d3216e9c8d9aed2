"""Unit tests for the cost model and simulated clocks."""

import pytest

from repro import Cluster
from repro.fabric.latency import CostModel, SimClock


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_far_is_order_of_magnitude_slower_than_near(self):
        # Section 3.1: far O(1 us), near O(100 ns).
        assert self.model.far_ns / self.model.near_ns >= 5

    def test_small_payload_rides_inline(self):
        assert self.model.far_access_ns(8) == self.model.far_ns

    def test_large_payload_pays_bandwidth(self):
        one_kb = self.model.far_access_ns(1024)
        assert one_kb > self.model.far_ns
        assert one_kb == self.model.far_ns + (1024 - self.model.inline_bytes) * self.model.byte_ns

    def test_forward_hops_add_cost(self):
        direct = self.model.far_access_ns(8)
        forwarded = self.model.far_access_ns(8, forward_hops=1)
        assert forwarded == direct + self.model.forward_hop_ns
        # Forwarding must still be cheaper than a second full round trip
        # (the section 7.1 argument for forwarding over erroring).
        assert forwarded < 2 * direct

    def test_near_access_scales_linearly(self):
        # A cache walk is priced where it is charged: ``touch_local``.
        client = Cluster(node_count=1, node_size=1 << 20).client()
        client.touch_local(3)
        assert client.metrics.near_accesses == 3
        assert client.clock.now_ns == 3 * client.cost_model.near_ns
        client.touch_local(2)
        assert client.metrics.near_accesses == 5
        assert client.clock.now_ns == 5 * client.cost_model.near_ns

    def test_payload_ns_never_negative(self):
        # The payload term prices only bytes beyond the inline allowance.
        assert self.model.far_access_ns(0) == self.model.far_ns
        assert self.model.far_access_ns(self.model.inline_bytes) == self.model.far_ns
        assert self.model.far_access_ns(self.model.inline_bytes + 1) > self.model.far_ns


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.now_ns == 150

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_sync_to_only_moves_forward(self):
        clock = SimClock(now_ns=100)
        clock.sync_to(50)
        assert clock.now_ns == 100
        clock.sync_to(200)
        assert clock.now_ns == 200

    def test_reset(self):
        clock = SimClock(now_ns=99)
        clock.reset()
        assert clock.now_ns == 0.0
