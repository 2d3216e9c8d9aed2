"""Subscription coarsening (section 7.2, "Number of subscriptions").

"To scale, we can increase the spatial granularity of the hardware
subscriptions (e.g., two subscriptions on nearby ranges become one
subscription on an encompassing range). An update would trigger a
notification for the encompassing range, leading to potential false
positives for the original subscriptions, which the subscriber would need
to check."

:func:`merge_ranges` performs the merge; :class:`CoarsenedSubscriber`
registers the coarse ranges with the manager and, on delivery, checks each
notification against the original fine ranges — forwarding it tagged as a
false positive when it matches none. The false-positive rate is the price
of fewer hardware subscriptions, and experiment E9 sweeps that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..fabric.address import PAGE_SIZE, page_of
from ..fabric.wire import align_down, align_up, WORD
from .manager import NotificationManager
from .subscription import Notification, NotificationSink, Subscription

Range = tuple[int, int]
"""A watched range: (address, length)."""


def merge_ranges(ranges: Sequence[Range], max_gap: int = 0) -> list[Range]:
    """Merge word-aligned ranges whose gap is at most ``max_gap`` bytes.

    Merged ranges never cross page boundaries (the hardware constraint of
    section 4.3 still applies to the encompassing subscription), so two
    ranges on different pages are never merged.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be non-negative")
    normalized = sorted(
        (align_down(addr, WORD), align_up(addr + length, WORD) - align_down(addr, WORD))
        for addr, length in ranges
        if length > 0
    )
    merged: list[Range] = []
    for addr, length in normalized:
        if merged:
            prev_addr, prev_len = merged[-1]
            gap = addr - (prev_addr + prev_len)
            if gap <= max_gap and page_of(addr + length - 1) == page_of(prev_addr):
                end = max(prev_addr + prev_len, addr + length)
                merged[-1] = (prev_addr, end - prev_addr)
                continue
        merged.append((addr, length))
    return merged


@dataclass
class CoarseningStats:
    """Effect of coarsening on subscription count and traffic quality."""

    fine_ranges: int = 0
    coarse_subscriptions: int = 0
    notifications_checked: int = 0
    true_positives: int = 0
    false_positives: int = 0

    def false_positive_rate(self) -> float:
        """Fraction of delivered notifications that matched no fine range."""
        if self.notifications_checked == 0:
            return 0.0
        return self.false_positives / self.notifications_checked


@dataclass
class CoarsenedSubscriber:
    """Filter layer between coarse hardware subscriptions and a client.

    Receives notifications for the encompassing ranges, checks them against
    the fine ranges the application actually asked for, and forwards to
    the downstream sink with ``is_false_positive`` set appropriately.
    (The paper's software layer that "would need to check".)
    """

    downstream: NotificationSink
    fine_ranges: list[Range] = field(default_factory=list)
    stats: CoarseningStats = field(default_factory=CoarseningStats)

    def matches_fine(self, address: int, length: int) -> bool:
        """True if the changed region intersects any original fine range."""
        end = address + max(length, 1)
        return any(
            address < fa + fl and fa < end for fa, fl in self.fine_ranges
        )

    def deliver(self, notification: Notification) -> None:
        """Check against fine ranges, tag, and forward downstream."""
        self.stats.notifications_checked += 1
        if self.matches_fine(notification.address, notification.length):
            self.stats.true_positives += 1
        else:
            notification.is_false_positive = True
            self.stats.false_positives += 1
        self.downstream.deliver(notification)


def subscribe_coarsened(
    manager: NotificationManager,
    downstream: NotificationSink,
    ranges: Sequence[Range],
    *,
    max_gap: int = PAGE_SIZE,
) -> tuple[CoarsenedSubscriber, list[Subscription]]:
    """Register coarsened ``notify0`` subscriptions covering ``ranges``.

    Returns the filtering subscriber (which forwards to ``downstream``)
    and the hardware subscriptions actually installed. The caller can
    compare ``len(ranges)`` with ``len(subscriptions)`` for the
    section 7.2 state saving, and inspect the filter's stats for the
    false-positive cost.
    """
    filt = CoarsenedSubscriber(downstream=downstream, fine_ranges=list(ranges))
    coarse = merge_ranges(ranges, max_gap=max_gap)
    subs = [manager.notify0(filt, addr, length) for addr, length in coarse]
    filt.stats.fine_ranges = len(ranges)
    filt.stats.coarse_subscriptions = len(subs)
    return filt, subs
