"""The naive monitoring design (paper section 6).

"In a naive implementation, the producer writes the metric samples to far
memory, and consumers read the data for analysis. Each sample is written
once and read by all consumers, resulting in (k + 1)N far memory transfers
for N samples and k consumers."

The producer appends each sample to a far log — the sample word and the
published count go out in one ``wscatter``, so the producer side is
exactly N far accesses. Each consumer polls the count and reads every new
sample: k * N far accesses of sample traffic (plus the polling reads,
which only make the naive design look better-case than the formula).
Alarm detection happens client-side, per consumer, by inspecting every
sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...alloc import FarAllocator, PlacementHint
from ...fabric.client import Client
from ...fabric.errors import AddressError, FabricError
from ...fabric.wire import WORD, Layout, pack_words
from .consumer import DEFAULT_LEVELS, Alarm, AlarmLevel

HEADER = Layout("count")  # then log[capacity], one sample word each

@dataclass
class NaiveMonitor:
    """A shared far-memory sample log: count word + sample array."""

    count_addr: int
    log_base: int
    capacity: int

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        capacity: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "NaiveMonitor":
        """Allocate a log able to hold ``capacity`` samples."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        base = allocator.alloc(HEADER.size + capacity * WORD, hint)
        allocator.provision(base, 0)
        return cls(count_addr=base, log_base=base + HEADER.size, capacity=capacity)


@dataclass
class NaiveProducer:
    """Appends samples to the log: one far access per sample."""

    monitor: NaiveMonitor
    client: Client
    produced: int = 0

    def record(self, sample_bin: int) -> None:
        """Write the sample and the new count in one scatter."""
        if self.produced >= self.monitor.capacity:
            raise AddressError(self.monitor.log_base, 0, "naive log full")
        self.client.wscatter(
            [
                (self.monitor.log_base + self.produced * WORD, WORD),
                (self.monitor.count_addr, WORD),
            ],
            pack_words((sample_bin, self.produced + 1)),
        )
        self.produced += 1

    def run(self, samples) -> None:
        """Record a whole sample stream."""
        for sample in samples:
            self.record(int(sample))


@dataclass
class NaiveConsumer:
    """Reads every sample and detects alarms client-side."""

    monitor: NaiveMonitor
    client: Client
    levels: tuple[AlarmLevel, ...] = DEFAULT_LEVELS
    cursor: int = 0
    alarms: list[Alarm] = field(default_factory=list)
    _events: dict[str, int] = field(default_factory=dict)
    _raised: set[str] = field(default_factory=set)

    def poll(self) -> list[Alarm]:
        """Read the published count, then each new sample (one far access
        per sample — the ``k * N`` term of the naive formula).

        The sample reads are independent once the count is known, so they
        are posted as one phase (overlap bounded by the client's QP
        depth): the naive design's access *count* is unchanged — the
        formula is about transfers, and overlap cannot hide the k * N
        work — it just stops paying serial latency on top. A failed read
        is raised when the inspection reaches it, so ``cursor`` stops at
        that sample and the next poll reads it again.
        """
        available = self.client.read_u64(self.monitor.count_addr)
        samples = self.client.phase(
            "read_u64",
            [(self.monitor.log_base + i * WORD,) for i in range(self.cursor, available)],
            capture=True,
        )
        new_alarms: list[Alarm] = []
        for sample in samples:
            if isinstance(sample, FabricError):
                raise sample
            self.cursor += 1
            new_alarms.extend(self._inspect(sample))
        return new_alarms

    def _inspect(self, sample: int) -> list[Alarm]:
        raised: list[Alarm] = []
        for level in self.levels:
            if level.low_bin <= sample < level.high_bin:
                self._events[level.name] = self._events.get(level.name, 0) + 1
                if (
                    level.name not in self._raised
                    and self._events[level.name] >= level.min_events
                ):
                    self._raised.add(level.name)
                    alarm = Alarm(
                        level=level.name, window=0, events=self._events[level.name]
                    )
                    self.alarms.append(alarm)
                    raised.append(alarm)
        return raised
