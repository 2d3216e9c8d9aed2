"""Far barriers (paper section 5.1).

"Barriers use a far memory decreasing counter initialized to the number of
participants. As each participant reaches the barrier, it uses an atomic
decrement operation to update the barrier value. Equality notifications
against 0 (notifye) indicate when all participants complete the barrier."

Arrival costs one far access (the atomic decrement). Participants that are
not last arm ``notifye(barrier, 0)`` and learn of completion without any
further far accesses. The barrier is reusable via generations: the last
arriver re-initialises the counter for the next round *after* the zero
value has fired the notifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.errors import FabricError
from ..fabric.wire import WORD
from ..notify.manager import NotificationManager
from ..notify.subscription import Subscription


class BarrierError(FabricError):
    """Misuse of a far barrier (too many arrivals, etc.)."""


@dataclass
class ArrivalTicket:
    """What :meth:`FarBarrier.arrive` hands back to a participant."""

    is_last: bool
    subscription: Optional[Subscription] = None
    generation: int = 0


@dataclass
class FarBarrier:
    """A decreasing-counter barrier in far memory."""

    address: int
    participants: int
    manager: NotificationManager
    generation: int = 0
    _arrived_this_gen: int = field(default=0, repr=False)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        participants: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarBarrier":
        """Allocate a barrier for ``participants`` parties."""
        if participants <= 0:
            raise ValueError("participants must be positive")
        address = allocator.alloc(WORD, hint)
        allocator.provision(address, participants)
        return cls(address=address, participants=participants, manager=manager)

    def arrive(self, client: Client, *, subscribe: bool = True) -> ArrivalTicket:
        """Reach the barrier: one atomic decrement (one far access).

        The last arriver gets ``is_last=True`` and owes a :meth:`reset`
        before the barrier's next use. Earlier arrivers get a ``notifye``
        subscription that fires when the counter hits zero (unless
        ``subscribe=False`` — e.g. when waiting through a shared broker).
        """
        old = client.faa(self.address, -1)
        if old == 0 or old > self.participants:
            raise BarrierError(
                f"barrier over-arrival: counter was {old} with "
                f"{self.participants} participants"
            )
        self._arrived_this_gen += 1
        if old == 1:
            ticket = ArrivalTicket(is_last=True, generation=self.generation)
            self._arrived_this_gen = 0
            return ticket
        sub = (
            self.manager.notifye(client, self.address, 0) if subscribe else None
        )
        return ArrivalTicket(is_last=False, subscription=sub, generation=self.generation)

    def wait_done(self, client: Client, ticket: ArrivalTicket) -> bool:
        """Check whether the completion notification has arrived.

        Drains the client inbox; returns True once the barrier's zero
        notification for this generation is seen (and drops the
        subscription). Notifications belonging to other subscriptions are
        returned to the inbox.
        """
        if ticket.is_last:
            return True
        assert ticket.subscription is not None
        done = False
        for n in client.poll_notifications():
            if n.sub_id == ticket.subscription.sub_id:
                done = True
            else:
                client.deliver(n)
        if done:
            self.manager.unsubscribe(ticket.subscription)
        return done

    def poll(self, client: Client) -> int:
        """Read the counter directly (one far access) — the expensive
        probing that notifications exist to avoid; kept for comparison
        benchmarks."""
        return client.read_u64(self.address)

    def reset(self, client: Client) -> None:
        """Re-arm for the next generation (last arriver's duty; one far
        access). Must happen after the zero has been observed."""
        client.write_u64(self.address, self.participants)
        self.generation += 1
