"""Far-memory histograms (the section 6 monitoring representation).

"Rather than storing samples, far memory keeps a vector with a histogram
of the samples. The producer treats a sample as an offset into the vector,
and increments the location using one far memory access with indexed
indirect addressing."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...alloc import FarAllocator, PlacementHint
from ...core.vector import FarVector
from ...fabric.client import Client


@dataclass(frozen=True)
class FarHistogram:
    """A histogram of ``bins`` counters behind one far base pointer."""

    vector: FarVector

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        bins: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarHistogram":
        """Allocate a zeroed histogram."""
        return cls(vector=FarVector.create(allocator, bins, hint=hint))

    @property
    def bins(self) -> int:
        """Number of histogram buckets."""
        return self.vector.length

    def record(self, client: Client, sample_bin: int) -> None:
        """Count one sample: exactly one far access (``add2`` through the
        base pointer — the producer's entire per-sample cost)."""
        self.vector.add(client, sample_bin, 1)

    def read_range(
        self, client: Client, low: int, high: int, base: Optional[int] = None
    ) -> np.ndarray:
        """Read bins ``[low, high)`` — the consumer's optional copy "for
        further aggregation" (one far access with a known base)."""
        return self.vector.read_range(client, low, high - low, base=base)
