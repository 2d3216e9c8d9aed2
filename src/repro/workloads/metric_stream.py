"""Synthetic metric sample streams for the section 6 monitoring case study.

The paper's monitoring workload is "a sampled metric (e.g., CPU
utilization)" where "the samples are often in the normal range" and only
occasionally cross alarm thresholds. :class:`MetricStream` generates
exactly that shape: a Gaussian base signal with a controllable probability
of excursions into the alarm tail, so benchmarks can sweep how rare the
alarming samples are (the paper's ``m << N``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricStream:
    """A seeded generator of integer samples in ``[0, bins)``.

    Attributes:
        bins: histogram resolution (samples are bin indices).
        mean: centre of the normal operating range, in bins.
        std: spread of the normal range.
        spike_probability: chance a sample is drawn from the alarm tail.
        spike_low: lower edge of the tail range (defaults to 90% of bins).
        seed: RNG seed.
    """

    bins: int = 100
    mean: float = 40.0
    std: float = 8.0
    spike_probability: float = 0.01
    spike_low: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bins <= 1:
            raise ValueError("bins must exceed 1")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike_probability must be in [0, 1]")

    @property
    def tail_start(self) -> int:
        """First bin of the alarm tail."""
        if self.spike_low is not None:
            return self.spike_low
        return int(self.bins * 0.9)

    def samples(self, count: int) -> np.ndarray:
        """Draw ``count`` samples (bin indices)."""
        rng = np.random.default_rng(self.seed)
        base = rng.normal(self.mean, self.std, size=count)
        base = np.clip(np.rint(base), 0, self.bins - 1).astype(np.int64)
        spikes = rng.random(count) < self.spike_probability
        tail = rng.integers(self.tail_start, self.bins, size=count)
        base[spikes] = tail[spikes]
        return base
