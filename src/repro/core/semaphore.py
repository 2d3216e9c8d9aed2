"""Far counting semaphores.

A fetch-add counter with the optimistic undo pattern: acquire decrements
and, on observing no permits in the returned old value, increments back
and arms a ``notify0`` on the counter (a release notification is the
retry signal — equality won't do, because any positive value means a
permit may be available). One far access for an uncontended acquire or
release, matching the section 5.1 cost discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..core.mutex import MutexError
from ..fabric.client import Client
from ..fabric.wire import WORD, to_signed
from ..notify.manager import NotificationManager
from ..notify.subscription import Subscription


@dataclass
class SemaphoreStats:
    """Permit-flow accounting."""

    acquires: int = 0
    releases: int = 0
    blocked: int = 0


@dataclass
class FarSemaphore:
    """A far-memory counting semaphore."""

    address: int
    manager: NotificationManager
    permits: int
    stats: SemaphoreStats = field(default_factory=SemaphoreStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        permits: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarSemaphore":
        """Allocate a semaphore holding ``permits`` permits."""
        if permits <= 0:
            raise ValueError("permits must be positive")
        address = allocator.alloc(WORD, hint)
        allocator.provision(address, permits)
        return cls(address=address, manager=manager, permits=permits)

    def try_acquire(self, client: Client) -> bool:
        """Take a permit: one FAA; one more to undo when none are free."""
        old = to_signed(client.faa(self.address, -1))
        if old <= 0:
            client.faa(self.address, 1)  # back out
            self.stats.blocked += 1
            return False
        self.stats.acquires += 1
        return True

    def acquire_or_wait(self, client: Client) -> Optional[Subscription]:
        """Try once; on failure arm a ``notify0`` on the counter so the
        next release triggers a retry. None means acquired immediately."""
        if self.try_acquire(client):
            return None
        return self.manager.notify0(client, self.address, WORD)

    def retry(self, client: Client, sub: Subscription) -> bool:
        """Retry after a counter-change notification; drops the
        subscription on success."""
        if self.try_acquire(client):
            self.manager.unsubscribe(sub)
            return True
        return False

    def release(self, client: Client) -> None:
        """Return a permit: one FAA (fires waiters' notifications)."""
        old = to_signed(client.faa(self.address, 1))
        if old >= self.permits:
            client.faa(self.address, -1)
            raise MutexError("release would exceed the permit count")
        self.stats.releases += 1

    def available(self, client: Client) -> int:
        """Free permits right now (one far access; may be transiently
        negative while blocked acquirers are mid-undo)."""
        return max(0, to_signed(client.read_u64(self.address)))
