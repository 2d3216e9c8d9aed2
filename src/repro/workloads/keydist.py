"""Key distributions for map benchmarks.

All generators are seeded and deterministic; they emit numpy arrays of
u64 keys, suitable for HT-tree / hash-table / B-tree workloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class KeyDistribution(ABC):
    """A reproducible stream of keys in ``[0, keyspace)``."""

    def __init__(self, keyspace: int, seed: int = 0) -> None:
        if keyspace <= 0:
            raise ValueError("keyspace must be positive")
        self.keyspace = keyspace
        self.rng = np.random.default_rng(seed)

    @abstractmethod
    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys."""

    def sample_unique(self, count: int) -> np.ndarray:
        """Draw ``count`` distinct keys (for bulk loading)."""
        if count > self.keyspace:
            raise ValueError("cannot draw more unique keys than the keyspace")
        seen: set[int] = set()
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            batch = self.sample(count - filled)
            for key in batch:
                k = int(key)
                if k not in seen:
                    seen.add(k)
                    out[filled] = k
                    filled += 1
                    if filled == count:
                        break
        return out


class Uniform(KeyDistribution):
    """Uniformly random keys."""

    def sample(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.keyspace, size=count, dtype=np.uint64)


class Sequential(KeyDistribution):
    """Monotonically increasing keys, wrapping at the keyspace."""

    def __init__(self, keyspace: int, seed: int = 0, start: int = 0) -> None:
        super().__init__(keyspace, seed)
        self._next = start % keyspace

    def sample(self, count: int) -> np.ndarray:
        out = (np.arange(count, dtype=np.uint64) + self._next) % self.keyspace
        self._next = int((self._next + count) % self.keyspace)
        return out


class Zipf(KeyDistribution):
    """Zipfian keys (rank r drawn with probability proportional to r^-s),
    bounded to the keyspace and shuffled so hot keys are not clustered
    numerically."""

    def __init__(self, keyspace: int, seed: int = 0, s: float = 1.1) -> None:
        super().__init__(keyspace, seed)
        if s <= 1.0:
            raise ValueError("zipf exponent must exceed 1")
        self.s = s
        # A fixed random permutation maps ranks to key values.
        self._perm_seed = seed ^ 0x5EED

    def _rank_to_key(self, ranks: np.ndarray) -> np.ndarray:
        # splitmix-style mixing gives a cheap stable permutation.
        z = (ranks.astype(np.uint64) + np.uint64(self._perm_seed)) * np.uint64(
            0x9E3779B97F4A7C15
        )
        z ^= z >> np.uint64(31)
        return z % np.uint64(self.keyspace)

    def sample(self, count: int) -> np.ndarray:
        ranks = self.rng.zipf(self.s, size=count)
        ranks = np.minimum(ranks, self.keyspace) - 1
        return self._rank_to_key(ranks.astype(np.uint64))

