"""Alarm consumers (paper section 6).

"Each consumer uses notifications to get changes in the histogram vector
at offsets corresponding to the alarm ranges. Since the samples are often
in the normal range, notifications are rare, reducing far memory transfers
from N to m < N. ... Different consumers can be notified of different
thresholds and take different actions."

A consumer subscribes ``notify0`` to the bins of its alarm ranges in the
*live* window, plus ``notify0`` on the histogram's base pointer so it can
re-subscribe when the producer rotates windows. An alarm level fires when
its bins have accumulated at least ``min_events`` notifications within the
current window (the paper's "for a certain duration within a time
window").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...fabric.client import Client
from ...fabric.wire import WORD, decode_u64, unpack_words
from ...notify.manager import NotificationManager
from ...notify.subscription import Subscription
from .windows import WindowedHistogramRing


@dataclass(frozen=True)
class AlarmLevel:
    """One severity band: bins ``[low_bin, high_bin)`` of the histogram."""

    name: str
    low_bin: int
    high_bin: int
    min_events: int = 1

    def __post_init__(self) -> None:
        if self.low_bin < 0 or self.high_bin <= self.low_bin:
            raise ValueError(f"invalid alarm range for {self.name!r}")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")


@dataclass(frozen=True)
class Alarm:
    """A raised alarm."""

    level: str
    window: int
    events: int
    counts: Optional[tuple[int, ...]] = None


DEFAULT_LEVELS = (
    AlarmLevel("warning", 90, 95),
    AlarmLevel("critical", 95, 99),
    AlarmLevel("failure", 99, 100),
)


@dataclass
class AlarmConsumer:
    """One monitoring consumer watching a windowed histogram ring."""

    ring: WindowedHistogramRing
    manager: NotificationManager
    client: Client
    levels: tuple[AlarmLevel, ...] = DEFAULT_LEVELS
    copy_counts: bool = False
    _base: int = 0
    _window: int = 0
    _base_sub: Optional[Subscription] = None
    _level_subs: dict[int, str] = field(default_factory=dict)
    _subs: list[Subscription] = field(default_factory=list)
    _events: dict[str, int] = field(default_factory=dict)
    _raised: set[str] = field(default_factory=set)
    alarms: list[Alarm] = field(default_factory=list)

    def start(self) -> None:
        """Subscribe to the live window's alarm bins and the base pointer."""
        vector = self.ring.histogram.vector
        self._base = vector.base(self.client)  # one far access, once
        self._base_sub = vector.subscribe_base(self.manager, self.client)
        self._subscribe_levels()

    def _subscribe_levels(self) -> None:
        vector = self.ring.histogram.vector
        for level in self.levels:
            subs = vector.subscribe_range(
                self.manager,
                self.client,
                self._base,
                level.low_bin,
                level.high_bin - level.low_bin,
            )
            for sub in subs:
                self._level_subs[sub.sub_id] = level.name
                self._subs.append(sub)
            self._events.setdefault(level.name, 0)

    def _unsubscribe_levels(self) -> None:
        for sub in self._subs:
            self.manager.unsubscribe(sub)
        self._subs.clear()
        self._level_subs.clear()

    def _on_window_switch(self, new_base: int) -> list[Alarm]:
        self._unsubscribe_levels()
        self._base = new_base
        self._window += 1
        self._events = {level.name: 0 for level in self.levels}
        self._raised.clear()
        self._subscribe_levels()
        return self._catch_up()

    def _catch_up(self) -> list[Alarm]:
        """Read the new window's alarm-range counts once (one gather):
        samples recorded between the base switch and our re-subscription
        produced no notifications, so they must be counted here."""
        iovec = [
            (
                self._base + level.low_bin * WORD,
                (level.high_bin - level.low_bin) * WORD,
            )
            for level in self.levels
        ]
        raw = self.client.rgather(iovec)
        cursor = 0
        alarms: list[Alarm] = []
        for level in self.levels:
            span = (level.high_bin - level.low_bin) * WORD
            total = sum(unpack_words(raw[cursor : cursor + span]))
            cursor += span
            if total:
                alarm = self._bump(level, total)
                if alarm is not None:
                    alarms.append(alarm)
        return alarms

    def _bump(self, level: AlarmLevel, events: int) -> Optional[Alarm]:
        """Accumulate events for a level; returns a new alarm if the
        duration threshold was just crossed."""
        self._events[level.name] = self._events.get(level.name, 0) + events
        if (
            level.name in self._raised
            or self._events[level.name] < level.min_events
        ):
            return None
        self._raised.add(level.name)
        counts = None
        if self.copy_counts:
            values = self.ring.histogram.read_range(
                self.client, level.low_bin, level.high_bin, base=self._base
            )
            counts = tuple(int(v) for v in values)
        alarm = Alarm(
            level=level.name,
            window=self._window,
            events=self._events[level.name],
            counts=counts,
        )
        self.alarms.append(alarm)
        return alarm

    def poll(self) -> list[Alarm]:
        """Drain notifications; returns alarms newly raised by this poll.

        Costs zero far accesses unless ``copy_counts`` is set (then one
        ``rgather`` per newly raised alarm, the paper's "optionally copy
        ... the histogram values in the prescribed range").
        """
        new_alarms: list[Alarm] = []
        for n in self.client.poll_notifications():
            if self._base_sub is not None and n.sub_id == self._base_sub.sub_id:
                # The producer rotated windows: chase the new base pointer.
                new_base = (
                    decode_u64(n.data)
                    if n.data is not None
                    else self.client.read_u64(self.ring.histogram.vector.descriptor)
                )
                new_alarms.extend(self._on_window_switch(new_base))
                continue
            level_name = self._level_subs.get(n.sub_id)
            if level_name is None:
                self.client.deliver(n)  # not ours
                continue
            level = next(lv for lv in self.levels if lv.name == level_name)
            alarm = self._bump(level, n.coalesced_count)
            if alarm is not None:
                new_alarms.append(alarm)
        return new_alarms

    def correlate_windows(self, lookback: int) -> list[int]:
        """Sum alarm-tail counts over the last ``lookback`` completed
        windows (one far access per window) — the paper's multi-window
        correlation use."""
        tail_low = min(level.low_bin for level in self.levels)
        # One read per window, all independent: one phase (overlap
        # bounded by the client's QP depth; same per-window access count).
        tail_bytes = (self.ring.bins - tail_low) * WORD
        reads = [
            (storage + tail_low * WORD, tail_bytes)
            for storage in self.ring.previous_storages(lookback)
        ]
        return [sum(unpack_words(data)) for data in self.client.phase("read", reads)]

    def stop(self) -> None:
        """Drop every subscription."""
        self._unsubscribe_levels()
        if self._base_sub is not None:
            self.manager.unsubscribe(self._base_sub)
            self._base_sub = None
