"""Latency histograms over the simulated clock.

The paper's cost argument lives on a two-tier latency hierarchy — near
accesses are O(100 ns), far accesses O(1 us) (section 3.1) — so latency
distributions here are log-bucketed: each power-of-two bucket is one
"tier", and the O(100 ns)/O(1 us) split falls on the [64, 128) ns vs
[512, 1024)+ ns buckets. Because the simulator is deterministic and the
sample counts are small, the histogram also keeps the exact samples:
percentiles (p50/p90/p99) are computed from the sorted samples, not
interpolated from bucket edges, so benchmark assertions stay exact.

The percentile definition is nearest-rank on the sorted samples
(``sorted[min(n - 1, floor(f * n))]``) — the same definition the
benchmarks used before this module existed, so recorded EXPERIMENTS.md
numbers are unchanged.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def _format_ns(value: float) -> str:
    """Human-readable simulated duration."""
    if value >= 1e9:
        return f"{value / 1e9:.2f}s"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f}us"
    return f"{value:.0f}ns"


class LatencyHistogram:
    """Log-bucketed latency histogram with exact percentiles.

    Values are simulated nanoseconds (any non-negative number works).
    ``record`` is O(1); percentile queries sort lazily and cache.
    """

    __slots__ = ("_samples", "_sorted", "total_ns")

    def __init__(self, values: Optional[Iterable[float]] = None) -> None:
        self._samples: list[float] = []
        self._sorted = True
        self.total_ns = 0.0
        if values is not None:
            self.record_many(list(values))

    # -- recording -------------------------------------------------------

    def record(self, value_ns: float) -> None:
        """Add one sample."""
        self.record_many((value_ns,))

    def record_many(self, values: Sequence[float]) -> None:
        """Add ``values`` in order (``total_ns`` is a float sum, so the
        samples are added one by one, not pre-summed). Nothing is recorded
        if any sample is negative."""
        samples = self._samples
        total, in_order = self.total_ns, self._sorted
        last = samples[-1] if samples else 0.0
        for value in values:
            if value < 0:
                raise ValueError("latency samples must be non-negative")
            if value < last:
                in_order = False
            last = value
            total += value
        samples.extend(values)
        self.total_ns, self._sorted = total, in_order

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        self.record_many(other._samples)

    # -- queries ---------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def max_ns(self) -> float:
        return max(self._samples) if self._samples else 0.0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / len(self._samples) if self._samples else 0.0

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def samples(self) -> tuple[float, ...]:
        """The recorded samples in sorted order (a defensive copy)."""
        return tuple(self._ensure_sorted())

    def count_above(self, threshold_ns: float) -> int:
        """How many samples exceed ``threshold_ns`` (strictly). The SLO
        monitor's latency objectives count these as bad events."""
        samples = self._ensure_sorted()
        lo, hi = 0, len(samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if samples[mid] <= threshold_ns:
                lo = mid + 1
            else:
                hi = mid
        return len(samples) - lo

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile (``0 <= fraction <= 1``)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        samples = self._ensure_sorted()
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(fraction * len(samples)))
        return samples[index]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def buckets(self) -> list[tuple[float, float, int]]:
        """Non-empty log₂ buckets as ``(low_ns, high_ns, count)``.

        Bucket b covers ``[2^(b-1), 2^b)`` ns; values < 1 ns land in
        ``[0, 1)``. The paper's O(100 ns) near tier fills the [64, 128)
        bucket, the O(1 us) far tier [512, 1024) and up.
        """
        counts: dict[int, int] = {}
        for value in self._samples:
            b = int(value).bit_length()
            counts[b] = counts.get(b, 0) + 1
        out = []
        for b in sorted(counts):
            low = 0.0 if b == 0 else float(1 << (b - 1))
            out.append((low, float(1 << b), counts[b]))
        return out

    def summary(self) -> dict[str, float]:
        """The headline numbers as a flat dict (for JSONL export)."""
        return {
            "count": self.count,
            "p50_ns": self.p50,
            "p90_ns": self.p90,
            "p99_ns": self.p99,
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
        }

    def render(self, width: int = 40) -> str:
        """ASCII bucket bars plus the percentile line."""
        if not self._samples:
            return "(no samples)"
        rows = self.buckets()
        peak = max(count for _, _, count in rows)
        lines = []
        for low, high, count in rows:
            bar = "#" * max(1, round(width * count / peak))
            lines.append(
                f"[{_format_ns(low):>9}, {_format_ns(high):>9})  {bar} {count}"
            )
        lines.append(
            f"n={self.count} p50={_format_ns(self.p50)} p90={_format_ns(self.p90)} "
            f"p99={_format_ns(self.p99)} max={_format_ns(self.max_ns)}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(n={self.count}, p50={self.p50:.0f}ns, "
            f"p99={self.p99:.0f}ns, max={self.max_ns:.0f}ns)"
        )


class HistogramSet:
    """A keyed family of latency histograms (per op-label, per node, ...)."""

    def __init__(self) -> None:
        self._hists: dict[str, LatencyHistogram] = {}

    def record(self, label: str, value_ns: float) -> None:
        hist = self._hists.get(label)
        if hist is None:
            hist = self._hists[label] = LatencyHistogram()
        hist.record(value_ns)

    def get(self, label: str) -> LatencyHistogram:
        """The histogram for ``label`` (empty if never recorded)."""
        return self._hists.get(label, LatencyHistogram())

    def labels(self) -> list[str]:
        return sorted(self._hists)

    def items(self) -> list[tuple[str, LatencyHistogram]]:
        return sorted(self._hists.items())

    def __len__(self) -> int:
        return len(self._hists)

    def __contains__(self, label: str) -> bool:
        return label in self._hists

    def render(self) -> str:
        """A fixed-width percentile table, one row per label."""
        header = (
            f"{'label':<28} {'count':>7} {'p50 ns':>10} {'p90 ns':>10} "
            f"{'p99 ns':>10} {'max ns':>10}"
        )
        lines = [header, "-" * len(header)]
        for label, hist in self.items():
            lines.append(
                f"{label:<28} {hist.count:>7} {hist.p50:>10.0f} {hist.p90:>10.0f} "
                f"{hist.p99:>10.0f} {hist.max_ns:>10.0f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"HistogramSet(labels={self.labels()})"
