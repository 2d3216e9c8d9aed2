"""The monitoring producer (paper section 6).

One far access per sample (the histogram ``add2``), plus two per window
rotation. Contrast with the naive producer in :mod:`.naive`, which also
spends one access per sample but forces every consumer to spend one per
sample too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ...fabric.client import Client
from .windows import WindowedHistogramRing


@dataclass
class MetricProducer:
    """Feeds metric samples into a windowed histogram ring."""

    ring: WindowedHistogramRing
    client: Client
    _in_window: int = field(default=0, repr=False)

    def record(self, sample_bin: int) -> None:
        """Record one sample: one far access."""
        self.ring.histogram.record(self.client, int(sample_bin))
        self._in_window += 1

    def close_window(self) -> None:
        """Rotate to a fresh window (two far accesses; notifies consumers)."""
        self.ring.advance(self.client)
        self._in_window = 0

    def run(self, samples: Iterable[int], *, samples_per_window: int | None = None) -> None:
        """Record a sample stream, rotating every ``samples_per_window``."""
        for sample in samples:
            self.record(int(sample))
            if (
                samples_per_window is not None
                and self._in_window >= samples_per_window
            ):
                self.close_window()
