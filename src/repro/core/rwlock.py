"""Far reader-writer locks.

Built from the same two ingredients as the section 5.1 mutex — fabric
atomics for the state transitions, ``notifye`` for wakeups — but with a
packed state word so every transition stays a single far access:

* bit 0: writer held
* bits 1..63: reader count (each reader adds ``READER_UNIT`` = 2)

Readers acquire with a fetch-add (+2) and *undo* with a fetch-add (-2)
when they observe the writer bit in the returned old value — the same
optimistic pattern as the queue's empty detection. Writers acquire with a
CAS from 0. Both sides wait via ``notifye(state, 0)``: zero is the only
state in which anyone blocked can make progress, so one subscription
value serves readers and writers alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..core.mutex import MutexError
from ..fabric.client import Client
from ..fabric.wire import WORD
from ..notify.manager import NotificationManager
from ..notify.subscription import Subscription

WRITER_BIT = 1
READER_UNIT = 2


@dataclass
class RWLockStats:
    """Contention accounting."""

    read_acquires: int = 0
    write_acquires: int = 0
    read_blocked: int = 0
    write_blocked: int = 0
    releases: int = 0


@dataclass
class FarRWLock:
    """A far-memory reader-writer lock (writer-exclusive, reader-shared)."""

    address: int
    manager: NotificationManager
    stats: RWLockStats = field(default_factory=RWLockStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarRWLock":
        """Allocate an unheld lock."""
        address = allocator.alloc(WORD, hint)
        allocator.provision(address, 0)
        return cls(address=address, manager=manager)

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------

    def try_acquire_read(self, client: Client) -> bool:
        """Optimistic reader entry: one FAA; one more to undo if a writer
        holds the lock."""
        old = client.faa(self.address, READER_UNIT)
        if old & WRITER_BIT:
            client.faa(self.address, -READER_UNIT)  # back out
            self.stats.read_blocked += 1
            return False
        self.stats.read_acquires += 1
        return True

    def release_read(self, client: Client) -> None:
        """Reader exit: one FAA. The last reader's release leaves state 0,
        which fires blocked writers' notifications."""
        old = client.faa(self.address, -READER_UNIT)
        if old < READER_UNIT or old & WRITER_BIT:
            raise MutexError("release_read without a held read lock")
        self.stats.releases += 1

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------

    def try_acquire_write(self, client: Client) -> bool:
        """Writer entry: one CAS from the all-clear state."""
        _, ok = client.cas(self.address, 0, WRITER_BIT)
        if ok:
            self.stats.write_acquires += 1
        else:
            self.stats.write_blocked += 1
        return ok

    def release_write(self, client: Client) -> None:
        """Writer exit: CAS back to 0 (fires everyone's ``notifye(0)``)."""
        _, ok = client.cas(self.address, WRITER_BIT, 0)
        if not ok:
            raise MutexError("release_write without the write lock")
        self.stats.releases += 1

    # ------------------------------------------------------------------
    # Blocking via notifications
    # ------------------------------------------------------------------

    def subscribe_free(self, client: Client) -> Subscription:
        """Arm ``notifye(state, 0)``: fires when the lock is fully free —
        the retry point for blocked readers and writers alike."""
        return self.manager.notifye(client, self.address, 0)

    def readers(self, client: Client) -> int:
        """Current reader count (one far access)."""
        return client.read_u64(self.address) // READER_UNIT
