"""Unit + property tests for subscription coarsening (section 7.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric.address import PAGE_SIZE, page_of
from repro.fabric.wire import WORD
from repro.notify.coarsening import merge_ranges, subscribe_coarsened

NODE_SIZE = 8 << 20


class TestMergeRanges:
    def test_adjacent_ranges_merge(self):
        assert merge_ranges([(0, 8), (8, 8)], max_gap=0) == [(0, 16)]

    def test_gap_within_threshold_merges(self):
        assert merge_ranges([(0, 8), (24, 8)], max_gap=16) == [(0, 32)]

    def test_gap_beyond_threshold_stays_split(self):
        assert merge_ranges([(0, 8), (64, 8)], max_gap=8) == [(0, 8), (64, 8)]

    def test_never_merges_across_pages(self):
        ranges = [(PAGE_SIZE - 8, 8), (PAGE_SIZE, 8)]
        assert merge_ranges(ranges, max_gap=PAGE_SIZE) == ranges

    def test_overlapping_ranges_collapse(self):
        assert merge_ranges([(0, 16), (8, 16)], max_gap=0) == [(0, 24)]

    def test_unsorted_input(self):
        assert merge_ranges([(32, 8), (0, 8), (8, 8)], max_gap=0) == [(0, 16), (32, 8)]

    def test_unaligned_input_normalised(self):
        merged = merge_ranges([(4, 4)], max_gap=0)
        assert merged == [(0, 8)]

    def test_empty(self):
        assert merge_ranges([], max_gap=8) == []

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            merge_ranges([(0, 8)], max_gap=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=PAGE_SIZE // WORD - 2),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=256),
    )
    def test_merge_invariants(self, word_ranges, max_gap):
        # Keep everything within one page so the no-page-crossing rule is
        # exercised separately.
        ranges = [
            (w * WORD, min(n * WORD, PAGE_SIZE - w * WORD)) for w, n in word_ranges
        ]
        merged = merge_ranges(ranges, max_gap=max_gap)
        # Sorted, non-overlapping, and gaps larger than max_gap.
        for (a, la), (b, _) in zip(merged, merged[1:]):
            assert a + la <= b
            if page_of(a) == page_of(b):
                assert b - (a + la) > max_gap
        # Coverage: every original range is inside some merged range.
        for addr, length in ranges:
            assert any(
                m_addr <= addr and addr + length <= m_addr + m_len
                for m_addr, m_len in merged
            )
        # Never more merged ranges than inputs.
        assert len(merged) <= len(ranges)


class TestCoarsenedSubscriber:
    @pytest.fixture
    def cluster(self):
        return Cluster(node_count=1, node_size=NODE_SIZE)

    def test_saves_hardware_subscriptions(self, cluster):
        client = cluster.client()
        base = cluster.allocator.alloc(PAGE_SIZE, None)
        # 8 fine ranges, close together: should coarsen to far fewer subs.
        fine = [(base + i * 64, WORD) for i in range(8)]
        filt, subs = subscribe_coarsened(
            cluster.notifications, client, fine, max_gap=128
        )
        assert len(subs) < len(fine)
        assert filt.stats.coarse_subscriptions == len(subs) < filt.stats.fine_ranges

    def test_true_positive_passes_through(self, cluster):
        client = cluster.client()
        writer = cluster.client()
        base = cluster.allocator.alloc(1024, None)
        fine = [(base, WORD), (base + 64, WORD)]
        filt, _ = subscribe_coarsened(cluster.notifications, client, fine, max_gap=128)
        writer.write_u64(base + 64, 1)
        ns = client.poll_notifications()
        assert len(ns) == 1
        assert not ns[0].is_false_positive
        assert filt.stats.true_positives == 1

    def test_false_positive_is_tagged(self, cluster):
        client = cluster.client()
        writer = cluster.client()
        base = cluster.allocator.alloc(1024, None)
        fine = [(base, WORD), (base + 128, WORD)]
        filt, _ = subscribe_coarsened(cluster.notifications, client, fine, max_gap=256)
        writer.write_u64(base + 64, 1)  # inside the coarse range, outside fine
        ns = client.poll_notifications()
        assert len(ns) == 1
        assert ns[0].is_false_positive
        assert filt.stats.false_positives == 1
        assert filt.stats.false_positive_rate() == 1.0

    def test_write_outside_coarse_range_silent(self, cluster):
        client = cluster.client()
        writer = cluster.client()
        base = cluster.allocator.alloc(4096)
        fine = [(base, WORD)]
        subscribe_coarsened(cluster.notifications, client, fine, max_gap=0)
        writer.write_u64(base + 512, 1)
        assert client.pending_notifications() == 0
