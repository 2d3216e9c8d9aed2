"""The notification manager: memory-side matching of subscriptions.

The manager is the simulator's stand-in for the hardware described in
section 4.3: memory nodes "record [subscriptions] in page table entries"
and, on every mutation, check whether a registered range was touched. It
implements the fabric's ``Notifier`` protocol and arms the nodes' write
hooks while it holds a subscription, so it then sees every write and
atomic in the system, and pushes matching notifications through a
:class:`~repro.notify.delivery.DeliveryEngine` to the subscribers.

Installing a subscription is itself one far access (the client must reach
the memory node to register interest); delivered notifications cost the
subscriber nothing in far accesses — that asymmetry is the entire point of
the primitive ("know that a location has changed without continuously
reading that location").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fabric.address import page_of
from ..fabric.fabric import Fabric
from ..fabric.wire import U64, WORD, Layout
from .delivery import DeliveryEngine, DeliveryPolicy
from .subscription import Notification, NotificationSink, NotifyKind, Subscription

DESCRIPTOR = Layout("address length value")
"""What a subscriber sends to register: charged as one far write, never stored."""


@dataclass
class ManagerStats:
    """Matching statistics (hardware-side view of notification load)."""

    matches: int = 0
    notifye_checks: int = 0
    notifye_hits: int = 0


class NotificationManager:
    """Registers subscriptions and matches them against fabric writes."""

    def __init__(self, fabric: Fabric, policy: Optional[DeliveryPolicy] = None) -> None:
        self.fabric = fabric
        self.engine = DeliveryEngine(policy)
        self.stats = ManagerStats()
        self._by_page: dict[int, list[Subscription]] = {}
        self._next_id = 1
        self._seq = 0
        fabric.set_notifier(self)
        fabric.arm_write_hooks(False)  # armed by the first subscription

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    @property
    def hardware_subscriptions(self) -> int:
        """Active subscriptions held in (simulated) memory-node state —
        the quantity section 7.2 says must be kept small."""
        return sum(len(subs) for subs in self._by_page.values())

    def subscribe(
        self,
        subscriber: NotificationSink,
        kind: NotifyKind,
        address: int,
        length: int = WORD,
        value: Optional[int] = None,
        user_data: object = None,
    ) -> Subscription:
        """Register a subscription; validates the section 4.3 alignment and
        page constraints. Charges the subscriber one far access if it is a
        client (brokers and test sinks are not charged)."""
        self.fabric.check(address, length)
        sub = Subscription(
            sub_id=self._next_id,
            subscriber=subscriber,
            kind=kind,
            address=address,
            length=length,
            value=value,
            user_data=user_data,
        )
        self._next_id += 1
        if not self._by_page:
            self.fabric.arm_write_hooks(True)
        self._by_page.setdefault(page_of(address), []).append(sub)
        charge = getattr(subscriber, "charge_far_access", None)
        if charge is not None:
            charge(nbytes_written=DESCRIPTOR.size)
        return sub

    def notify0(
        self, subscriber: NotificationSink, address: int, length: int = WORD
    ) -> Subscription:
        """``notify0(ad, l)``: signal any change in the range."""
        return self.subscribe(subscriber, NotifyKind.NOTIFY0, address, length)

    def notifye(
        self, subscriber: NotificationSink, address: int, value: int
    ) -> Subscription:
        """``notifye(ad, v, l)``: signal when the word becomes equal to v."""
        return self.subscribe(subscriber, NotifyKind.NOTIFYE, address, WORD, value)

    def notify0d(
        self, subscriber: NotificationSink, address: int, length: int = WORD
    ) -> Subscription:
        """``notify0d(ad, l)``: signal change and carry the changed data."""
        return self.subscribe(subscriber, NotifyKind.NOTIFY0D, address, length)

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription and its delivery state."""
        sub.active = False
        page = page_of(sub.address)
        subs = self._by_page.get(page, [])
        if sub in subs:
            subs.remove(sub)
            if not subs:
                del self._by_page[page]
                if not self._by_page:
                    self.fabric.arm_write_hooks(False)
        self.engine.forget(sub)

    def tick(self) -> None:
        """Advance one delivery refill period (section 7.2 spike handling)."""
        self.engine.tick()

    # ------------------------------------------------------------------
    # Fabric Notifier protocol
    # ------------------------------------------------------------------

    def on_write(self, address: int, length: int, new_bytes: bytes) -> None:
        """Match one mutation against the page-indexed subscriptions."""
        first_page = page_of(address)
        last_page = page_of(address + max(length, 1) - 1)
        for page in range(first_page, last_page + 1):
            subs = self._by_page.get(page)
            if not subs:
                continue
            for sub in list(subs):
                if not sub.overlaps(address, length):
                    continue
                self._match(sub, address, length, new_bytes)

    def _match(
        self, sub: Subscription, address: int, length: int, new_bytes: bytes
    ) -> None:
        clip_start = max(address, sub.address)
        clip_end = min(address + length, sub.end)
        if sub.kind is NotifyKind.NOTIFYE:
            self.stats.notifye_checks += 1
            word = self._current_word(sub.address, address, new_bytes)
            if word != sub.value:
                return
            self.stats.notifye_hits += 1
            notification = Notification(
                sub_id=sub.sub_id,
                kind=sub.kind,
                address=sub.address,
                length=WORD,
                seq=self._next_seq(),
                matched_value=word,
                user_data=sub.user_data,
            )
        else:
            data = None
            if sub.kind is NotifyKind.NOTIFY0D:
                offset = clip_start - address
                data = new_bytes[offset : offset + (clip_end - clip_start)]
            notification = Notification(
                sub_id=sub.sub_id,
                kind=sub.kind,
                address=clip_start,
                length=clip_end - clip_start,
                seq=self._next_seq(),
                data=data,
                user_data=sub.user_data,
            )
        self.stats.matches += 1
        self.engine.offer(sub, notification)

    def _current_word(self, watch_address: int, write_address: int, new_bytes: bytes) -> int:
        """Value of the watched word after the write, read memory-side."""
        offset = watch_address - write_address
        if 0 <= offset and offset + WORD <= len(new_bytes):
            return U64.unpack_from(new_bytes, offset)[0]
        return self.fabric.read_word(watch_address)  # fmlint: disable=FM003 (memory-node-side read)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq
