"""Publish-subscribe brokers for notification fan-out (section 7.2).

"To scale, we use a software-hardware co-design: the subscribers of the
hardware primitives are compute nodes, and a software layer on each
compute node routes notifications to individual processes. We can also use
a publish-subscribe architecture: the hardware subscribers are dedicated
software brokers (10–100s of them), which then route notifications to the
subscribers over the network."

A :class:`Broker` is one such dedicated software subscriber: it holds the
*hardware* subscription, and any number of end subscribers (processes)
attach to it per topic. The memory node sees one subscriber per broker; the
broker pays the per-process fan-out in ordinary network messages.

:class:`BrokerNetwork` spreads topics across a fixed set of brokers by
hash, which is how experiment E9 shows hardware subscriber count staying
flat while process count grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..fabric.wire import WORD
from .manager import NotificationManager
from .subscription import Notification, NotificationSink, NotifyKind, Subscription


@dataclass
class BrokerStats:
    """Traffic through one broker."""

    messages_in: int = 0
    messages_out: int = 0
    topics: int = 0


class Broker:
    """A dedicated software subscriber that re-routes notifications.

    The broker registers itself as the hardware subscriber for each topic
    (a far-memory range) and forwards incoming notifications to every
    attached end subscriber. Each forwarded copy is a fresh
    :class:`Notification` so downstream mutation (e.g. false-positive
    tagging) cannot leak between subscribers.
    """

    def __init__(self, manager: NotificationManager, name: str = "broker") -> None:
        self.manager = manager
        self.name = name
        self.stats = BrokerStats()
        self._topics: dict[int, list[NotificationSink]] = {}
        self._subs: dict[tuple[int, int, NotifyKind], Subscription] = {}

    def attach(
        self,
        subscriber: NotificationSink,
        address: int,
        length: int = WORD,
        kind: NotifyKind = NotifyKind.NOTIFY0,
        value: Optional[int] = None,
    ) -> Subscription:
        """Attach an end subscriber to a topic, installing the hardware
        subscription on first use (one per topic, not per subscriber)."""
        key = (address, length, kind)
        sub = self._subs.get(key)
        if sub is None:
            sub = self.manager.subscribe(self, kind, address, length, value)
            self._subs[key] = sub
            self._topics[sub.sub_id] = []
            self.stats.topics += 1
        self._topics[sub.sub_id].append(subscriber)
        return sub

    def detach(self, subscriber: NotificationSink, sub: Subscription) -> None:
        """Detach one end subscriber; drops the hardware subscription when
        the topic empties."""
        sinks = self._topics.get(sub.sub_id)
        if sinks is None:
            return
        if subscriber in sinks:
            sinks.remove(subscriber)
        if not sinks:
            del self._topics[sub.sub_id]
            self._subs = {k: v for k, v in self._subs.items() if v.sub_id != sub.sub_id}
            self.manager.unsubscribe(sub)
            self.stats.topics -= 1

    def deliver(self, notification: Notification) -> None:
        """Hardware-side delivery: fan out to the topic's subscribers."""
        self.stats.messages_in += 1
        for sink in self._topics.get(notification.sub_id, []):
            copy = Notification(
                sub_id=notification.sub_id,
                kind=notification.kind,
                address=notification.address,
                length=notification.length,
                seq=notification.seq,
                data=notification.data,
                matched_value=notification.matched_value,
                coalesced_count=notification.coalesced_count,
                lost_count=notification.lost_count,
                is_loss_warning=notification.is_loss_warning,
                user_data=notification.user_data,
            )
            sink.deliver(copy)
            self.stats.messages_out += 1

    def __repr__(self) -> str:
        return f"Broker({self.name!r}, topics={self.stats.topics})"


@dataclass
class BrokerNetwork:
    """A fixed pool of brokers with hash-based topic placement.

    This is the paper's "10–100s" of dedicated brokers: hardware
    subscriber count is bounded by ``len(brokers)`` no matter how many
    processes subscribe.
    """

    brokers: list[Broker] = field(default_factory=list)

    @classmethod
    def create(cls, manager: NotificationManager, broker_count: int) -> "BrokerNetwork":
        """Build ``broker_count`` brokers over one manager."""
        if broker_count <= 0:
            raise ValueError("broker_count must be positive")
        return cls(
            brokers=[Broker(manager, name=f"broker-{i}") for i in range(broker_count)]
        )

    def broker_for(self, address: int) -> Broker:
        """The broker responsible for a topic address (stable hashing)."""
        return self.brokers[hash(address) % len(self.brokers)]

    def attach(
        self,
        subscriber: NotificationSink,
        address: int,
        length: int = WORD,
        kind: NotifyKind = NotifyKind.NOTIFY0,
        value: Optional[int] = None,
    ) -> tuple[Broker, Subscription]:
        """Attach a process to a topic via its responsible broker."""
        broker = self.broker_for(address)
        return broker, broker.attach(subscriber, address, length, kind, value)

    def total_messages_out(self) -> int:
        """All process-bound messages sent by the broker tier."""
        return sum(b.stats.messages_out for b in self.brokers)
