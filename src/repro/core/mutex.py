"""Far mutexes (paper section 5.1).

"Mutexes use a far memory location initialized to 0. Clients acquire the
mutex using a compare-and-swap (CAS). If the CAS fails, equality
notifications against 0 (notifye) indicate when the mutex is free."

The simulator is cooperative (clients are driven by the harness), so
acquisition is split into an immediate attempt (:meth:`try_acquire`) and a
notification-armed retry (:meth:`acquire_or_wait` / :meth:`retry_on_free`):
instead of spinning on far memory — which would cost one far access per
probe — a blocked client arms ``notifye(lock, 0)`` once and retries only
when the release notification arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..analysis.budget import far_budget
from ..fabric.client import Client
from ..fabric.errors import FabricError
from ..fabric.wire import WORD
from ..notify.manager import NotificationManager
from ..notify.subscription import Subscription

UNLOCKED = 0
"""Far word value when the mutex is free."""


class MutexError(FabricError):
    """Misuse of a far mutex (releasing a lock you do not hold, etc.)."""


@dataclass
class MutexStats:
    """Contention accounting for one mutex descriptor."""

    acquires: int = 0
    cas_failures: int = 0
    notify_waits: int = 0
    releases: int = 0


@dataclass
class FarMutex:
    """A far-memory mutex word plus its notification manager."""

    address: int
    manager: NotificationManager
    stats: MutexStats = field(default_factory=MutexStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarMutex":
        """Allocate an unlocked mutex."""
        address = allocator.alloc(WORD, hint)
        allocator.provision(address, UNLOCKED)
        return cls(address=address, manager=manager)

    @staticmethod
    def _owner_token(client: Client) -> int:
        # Nonzero, distinct per client, so ownership is checkable.
        return client.client_id + 1

    @far_budget(1, ceiling=1, claim="C2")
    def try_acquire(self, client: Client) -> bool:
        """One CAS attempt (one far access); True on success."""
        _, ok = client.cas(self.address, UNLOCKED, self._owner_token(client))
        if ok:
            self.stats.acquires += 1
        else:
            self.stats.cas_failures += 1
        return ok

    @far_budget(1, ceiling=2, claim="C2")
    def acquire_or_wait(self, client: Client) -> Optional[Subscription]:
        """Try once; on failure arm ``notifye(lock, 0)`` and return the
        subscription (the caller retries via :meth:`retry_on_free` when its
        notification arrives). Returns None when acquired immediately.

        Ceiling 2: the contended path pays the CAS plus the subscription
        descriptor write (the subscriber here *is* the acting client)."""
        if self.try_acquire(client):
            return None
        self.stats.notify_waits += 1
        return self.manager.notifye(client, self.address, UNLOCKED)

    @far_budget(1, ceiling=1, claim="C2")
    def retry_on_free(self, client: Client, sub: Subscription) -> bool:
        """Called after a free notification: try the CAS again.

        On success the subscription is dropped. On failure (someone else
        won the race) the subscription stays armed for the next release.
        """
        if self.try_acquire(client):
            self.manager.unsubscribe(sub)
            return True
        return False

    @far_budget(1, ceiling=1)
    def holder(self, client: Client) -> Optional[int]:
        """Client id of the current holder (one far access), or None."""
        word = client.read_u64(self.address)
        return None if word == UNLOCKED else word - 1

    @far_budget(1, ceiling=1, claim="C2")
    def release(self, client: Client) -> None:
        """Write 0 (one far access); fires the waiters' ``notifye(0)``.

        Raises :class:`MutexError` if this client does not hold the lock
        (checked with a CAS so the check and the release are one access).
        """
        old, ok = client.cas(self.address, self._owner_token(client), UNLOCKED)
        if not ok:
            raise MutexError(
                f"{client.name} released a mutex held by "
                f"{'nobody' if old == UNLOCKED else f'client {old - 1}'}"
            )
        self.stats.releases += 1
