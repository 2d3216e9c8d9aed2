"""Multi-window histogram rings (paper section 6).

"To track multiple windows, we can use a collection of histogram vectors
implemented as a circular buffer, with a base pointer to the current
vector. After a window ends, the producer switches the base pointer in far
memory and the client is notified."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...alloc import FarAllocator, PlacementHint
from ...fabric.client import Client
from ...fabric.wire import WORD
from .histogram import FarHistogram


@dataclass
class WindowedHistogramRing:
    """A circular buffer of histogram storage regions behind one base
    pointer. The histogram's :class:`~repro.core.vector.FarVector`
    descriptor *is* the switchable base pointer."""

    histogram: FarHistogram
    storages: list[int]
    current: int = 0
    _bins: int = field(default=0, repr=False)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        bins: int,
        window_count: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "WindowedHistogramRing":
        """Allocate ``window_count`` histogram regions; window 0 is live."""
        if window_count < 2:
            raise ValueError("a ring needs at least two windows")
        histogram = FarHistogram.create(allocator, bins, hint=hint)
        # fmlint: disable=FM003 (setup introspection)
        first = allocator.fabric.read_word(histogram.vector.descriptor)
        storages = [first]
        for _ in range(window_count - 1):
            region = allocator.alloc(bins * WORD, hint)
            allocator.provision(region, b"\x00" * bins * WORD)
            storages.append(region)
        return cls(histogram=histogram, storages=storages, _bins=bins)

    @property
    def bins(self) -> int:
        """Histogram resolution."""
        return self._bins

    def advance(self, client: Client) -> int:
        """End the current window: zero the oldest region and atomically
        swing the base pointer to it (two far accesses for the producer,
        once per window). Subscribers of the descriptor are notified by
        the pointer switch itself. Returns the new storage base."""
        next_index = (self.current + 1) % len(self.storages)
        region = self.storages[next_index]
        client.write(region, b"\x00" * self._bins * WORD)
        client.fence()  # the fresh window must be zeroed before it goes live
        self.histogram.vector.swap_base(client, region)
        self.current = next_index
        return region

    def previous_storages(self, count: int) -> list[int]:
        """Storage addresses of the most recent ``count`` completed
        windows, newest first (for multi-window correlation)."""
        if count >= len(self.storages):
            raise ValueError("cannot look back past the ring depth")
        out = []
        index = self.current
        for _ in range(count):
            index = (index - 1) % len(self.storages)
            out.append(self.storages[index])
        return out

    def read_window(self, client: Client, storage: int) -> np.ndarray:
        """Bulk-read one window's counts (one far access)."""
        raw = client.read(storage, self._bins * WORD)
        return np.frombuffer(raw, dtype="<u8").copy()
