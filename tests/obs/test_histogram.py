"""Unit tests for the shared latency histograms (repro.obs.histogram)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import HistogramSet, LatencyHistogram


def _reference_percentile(samples, fraction):
    """The nearest-rank definition the benchmarks used before the shared
    histogram existed — recorded EXPERIMENTS.md numbers depend on it."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.p50 == hist.p90 == hist.p99 == 0.0
        assert hist.max_ns == hist.mean_ns == 0.0
        assert hist.buckets() == []
        assert hist.render() == "(no samples)"

    def test_negative_sample_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1.0)

    def test_percentiles_match_legacy_definition(self):
        samples = [100, 1000, 1050, 2000, 950, 100, 100, 4000, 150, 1000]
        hist = LatencyHistogram(samples)
        for fraction in (0.0, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert hist.percentile(fraction) == _reference_percentile(
                samples, fraction
            )

    def test_percentile_fraction_range(self):
        hist = LatencyHistogram([1.0])
        with pytest.raises(ValueError):
            hist.percentile(-0.1)
        with pytest.raises(ValueError):
            hist.percentile(1.1)

    def test_log2_buckets_split_near_and_far_tiers(self):
        # The paper's O(100 ns) near tier and O(1 us) far tier land in
        # distinct log2 buckets: [64, 128) vs [512, 1024).
        hist = LatencyHistogram([100, 100, 1000, 0])
        assert hist.buckets() == [
            (0.0, 1.0, 1),
            (64.0, 128.0, 2),
            (512.0, 1024.0, 1),
        ]

    def test_bucket_edges_are_half_open(self):
        hist = LatencyHistogram([64, 127, 128])
        assert hist.buckets() == [(64.0, 128.0, 2), (128.0, 256.0, 1)]

    def test_merge(self):
        a = LatencyHistogram([100, 200])
        b = LatencyHistogram([1000])
        a.merge(b)
        assert a.count == 3
        assert a.total_ns == 1300
        assert a.max_ns == 1000
        assert b.count == 1  # source unchanged

    def test_summary_keys(self):
        summary = LatencyHistogram([100, 1000]).summary()
        assert set(summary) == {
            "count",
            "p50_ns",
            "p90_ns",
            "p99_ns",
            "max_ns",
            "mean_ns",
        }
        assert summary["count"] == 2
        assert summary["mean_ns"] == 550

    def test_render_shows_buckets_and_percentile_line(self):
        text = LatencyHistogram([100, 100, 1000]).render()
        assert "[" in text and "#" in text
        assert "n=3" in text and "p50=" in text and "max=" in text

    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentile_properties(self, samples):
        hist = LatencyHistogram(samples)
        assert hist.count == len(samples)
        assert hist.total_ns == sum(samples)
        # Nearest rank: every percentile is an actual sample, ordered.
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.percentile(fraction) in samples
        assert hist.p50 <= hist.p90 <= hist.p99 <= hist.max_ns
        assert hist.percentile(0.0) == min(samples)
        assert hist.percentile(1.0) == max(samples)
        # Buckets partition the samples.
        assert sum(count for _, _, count in hist.buckets()) == len(samples)

    @given(
        st.lists(st.integers(0, 10**6), max_size=50),
        st.lists(st.integers(0, 10**6), max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_union(self, left, right):
        merged = LatencyHistogram(left)
        merged.merge(LatencyHistogram(right))
        union = LatencyHistogram(left + right)
        assert merged.count == union.count
        assert merged.total_ns == union.total_ns
        for fraction in (0.5, 0.9, 0.99):
            assert merged.percentile(fraction) == union.percentile(fraction)


class TestHistogramSet:
    def test_record_and_get(self):
        hists = HistogramSet()
        hists.record("read", 1000)
        hists.record("read", 1050)
        hists.record("write", 1000)
        assert len(hists) == 2
        assert "read" in hists and "missing" not in hists
        assert hists.get("read").count == 2
        assert hists.get("missing").count == 0  # empty, never raises

    def test_labels_sorted(self):
        hists = HistogramSet()
        for label in ("b", "a", "c"):
            hists.record(label, 1)
        assert hists.labels() == ["a", "b", "c"]
        assert [label for label, _ in hists.items()] == ["a", "b", "c"]

    def test_render_one_row_per_label(self):
        hists = HistogramSet()
        hists.record("read", 1000)
        hists.record("write", 2000)
        text = hists.render()
        assert "read" in text and "write" in text
        assert "p50 ns" in text and "p99 ns" in text
