"""Best-effort notification delivery policies.

Section 7.2 ("Network traffic"): "we can coalesce many notifications to
the same subscription (i.e., temporal batching). During traffic spikes, we
can drop notifications for entire periods (e.g., seconds), replacing them
with a warning that notifications were lost."

Section 4.3: "Because we want notifications to be scalable, they may be
delivered in a best-effort fashion (e.g., with delay or unreliably)."

:class:`DeliveryEngine` implements all three degradations, each
independently configurable and all deterministic (the random drop uses a
seeded generator) so that tests and benchmarks are reproducible:

* **Coalescing** — deliver at most one notification per
  ``coalesce_every`` triggering events on a subscription; the delivered
  message carries ``coalesced_count``.
* **Random loss** — each candidate delivery is dropped with
  ``drop_probability`` (models congestion loss / unreliable transport).
* **Token-bucket spike suppression** — each subscription holds a bucket
  of ``bucket_capacity`` delivery tokens refilled by ``bucket_refill``
  per :meth:`DeliveryEngine.tick`. When the bucket runs dry the engine
  drops whole periods and, once tokens return, sends a single
  loss-warning notification carrying the number of lost events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .subscription import Notification, Subscription


@dataclass(frozen=True)
class DeliveryPolicy:
    """Knobs for best-effort delivery. The default is fully reliable."""

    coalesce_every: int = 1
    drop_probability: float = 0.0
    bucket_capacity: int | None = None
    bucket_refill: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.coalesce_every < 1:
            raise ValueError("coalesce_every must be >= 1")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if self.bucket_capacity is not None and self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be >= 1 when set")

    @property
    def reliable(self) -> bool:
        """True when no degradation is configured."""
        return (
            self.coalesce_every == 1
            and self.drop_probability == 0.0
            and self.bucket_capacity is None
        )


RELIABLE = DeliveryPolicy()
"""Deliver every notification (the default for unit tests)."""


@dataclass
class DeliveryStats:
    """What happened to the notifications offered to the engine."""

    offered: int = 0
    delivered: int = 0
    coalesced_away: int = 0
    dropped_random: int = 0
    dropped_bucket: int = 0
    loss_warnings: int = 0


@dataclass
class _SubState:
    """Per-subscription delivery state."""

    since_delivery: int = 0
    tokens: int = 0
    lost_events: int = 0


class DeliveryEngine:
    """Applies a :class:`DeliveryPolicy` between matcher and subscribers."""

    def __init__(self, policy: DeliveryPolicy | None = None) -> None:
        self.policy = policy or RELIABLE
        self.stats = DeliveryStats()
        self._rng = random.Random(self.policy.seed)
        self._state: dict[int, _SubState] = {}

    def _state_of(self, sub: Subscription) -> _SubState:
        state = self._state.get(sub.sub_id)
        if state is None:
            capacity = self.policy.bucket_capacity
            state = _SubState(tokens=capacity if capacity is not None else 0)
            self._state[sub.sub_id] = state
        return state

    def _trace(
        self,
        sub: Subscription,
        outcome: str,
        coalesced: int = 1,
        loss_warning: bool = False,
    ) -> None:
        # Observability only: report the delivery outcome to the
        # subscriber's tracer, when the subscriber is a traced client.
        tracer = getattr(sub.subscriber, "tracer", None)
        if tracer is not None:
            # Optional keys are left out when they carry nothing.
            extra: dict = {}
            if coalesced > 1:
                extra["coalesced"] = coalesced
            if loss_warning:
                extra["loss_warning"] = True
            tracer.emit(
                sub.subscriber,
                "notify",
                outcome=outcome,
                sub_id=sub.sub_id,
                watch_addr=sub.address,
                **extra,
            )

    def offer(self, sub: Subscription, notification: Notification) -> bool:
        """Run one matching event through the policy.

        Returns True if a notification (possibly a coalesced
        representative) was pushed to the subscriber.
        """
        self.stats.offered += 1
        state = self._state_of(sub)
        policy = self.policy

        # Temporal batching: suppress all but every Nth event.
        state.since_delivery += 1
        if state.since_delivery < policy.coalesce_every:
            self.stats.coalesced_away += 1
            self._trace(sub, "coalesced")
            return False
        notification.coalesced_count = state.since_delivery
        state.since_delivery = 0

        # Congestion loss.
        if policy.drop_probability > 0.0 and self._rng.random() < policy.drop_probability:
            self.stats.dropped_random += 1
            state.lost_events += notification.coalesced_count
            self._trace(sub, "dropped_random", notification.coalesced_count)
            return False

        # Spike suppression: no tokens means the whole period is dropped.
        if policy.bucket_capacity is not None:
            if state.tokens <= 0:
                self.stats.dropped_bucket += 1
                state.lost_events += notification.coalesced_count
                self._trace(sub, "dropped_bucket", notification.coalesced_count)
                return False
            state.tokens -= 1

        # Tokens available again after a loss period: warn first (section
        # 7.2: "replacing them with a warning that notifications were lost").
        if state.lost_events > 0:
            notification.is_loss_warning = True
            notification.lost_count = state.lost_events
            state.lost_events = 0
            self.stats.loss_warnings += 1

        sub.subscriber.deliver(notification)
        self.stats.delivered += 1
        self._trace(
            sub,
            "delivered",
            notification.coalesced_count,
            notification.is_loss_warning,
        )
        return True

    def tick(self) -> None:
        """Advance one refill period: add ``bucket_refill`` tokens to every
        subscription's bucket, capped at capacity."""
        capacity = self.policy.bucket_capacity
        if capacity is None:
            return
        for state in self._state.values():
            state.tokens = min(capacity, state.tokens + self.policy.bucket_refill)

    def forget(self, sub: Subscription) -> None:
        """Discard per-subscription state (on unsubscribe)."""
        self._state.pop(sub.sub_id, None)
