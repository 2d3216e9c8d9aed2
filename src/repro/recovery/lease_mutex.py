"""Lease-based far mutexes: locks that survive client crashes.

Section 2's availability argument — "failure of a processor does not
render far memory unavailable" — cuts both ways: the memory survives, but
so does every lock word a dead client left acquired. The plain
:class:`~repro.core.mutex.FarMutex` would deadlock forever. The standard
far-memory fix (used by FaRM and descendants) is a *lease*: ownership
expires unless the holder keeps renewing it, and any client may take over
an expired lock with a CAS.

Time in the simulator is per-client, so leases are denominated in a
shared **epoch counter in far memory** that the deployment advances
(e.g. one tick per coordination period). The lock is three words::

    +0   owner token (0 = free)
    +8   lease expiry epoch
    +16  epoch counter        (may be shared among many locks via `create`'s
                               ``epoch_addr``)

Acquisition gathers all three words in one far access, so the
healthy-path cost stays at: try = 1 gather + 1 CAS + 1 lease write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..core.mutex import MutexError
from ..fabric.client import Client
from ..fabric.errors import FarTimeoutError
from ..fabric.wire import WORD, Layout

LOCK = Layout("owner expiry epoch")  # a shared epoch counter lives elsewhere: two words
UNLOCKED = 0


@dataclass
class LeaseStats:
    """Lock-lifecycle accounting, including crash recoveries.

    ``attempts`` counts every :meth:`LeasedFarMutex.try_acquire` call
    (successful or not) and ``timeouts`` the attempts abandoned because
    the fabric kept timing out past the client's retry budget — together
    they let recovery benchmarks report takeover *attempts*, not just the
    takeovers that eventually succeeded.
    """

    attempts: int = 0
    acquires: int = 0
    renewals: int = 0
    releases: int = 0
    contended: int = 0
    takeovers: int = 0
    timeouts: int = 0


@dataclass
class LeasedFarMutex:
    """A crash-recoverable mutex with epoch-denominated leases."""

    address: int
    epoch_addr: int
    ttl_epochs: int
    stats: LeaseStats = field(default_factory=LeaseStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        ttl_epochs: int = 2,
        epoch_addr: Optional[int] = None,
        hint: Optional[PlacementHint] = None,
    ) -> "LeasedFarMutex":
        """Allocate an unlocked leased mutex.

        Pass ``epoch_addr`` to share one epoch counter across many locks
        (the normal deployment); otherwise a private counter is allocated.
        """
        if ttl_epochs < 1:
            raise ValueError("ttl_epochs must be >= 1")
        size = LOCK.offset["epoch"] if epoch_addr is not None else LOCK.size
        address = allocator.alloc(size, hint)
        allocator.provision(address, b"\x00" * size)
        if epoch_addr is None:
            epoch_addr = address + LOCK.offset["epoch"]
        return cls(address=address, epoch_addr=epoch_addr, ttl_epochs=ttl_epochs)

    @staticmethod
    def advance_epoch(client: Client, epoch_addr: int) -> int:
        """Tick the shared epoch (one far access); returns the new epoch."""
        return client.faa(epoch_addr, 1) + 1

    def tick(self, client: Client) -> int:
        """Advance this mutex's epoch counter."""
        return self.advance_epoch(client, self.epoch_addr)

    @staticmethod
    def _token(client: Client) -> int:
        return client.client_id + 1

    def _snapshot(self, client: Client) -> tuple[int, int, int]:
        """(owner, lease_expiry, epoch) in one gather (one far access)."""
        expiry_addr = self.address + LOCK.offset["expiry"]
        raw = client.rgather(
            [(self.address, WORD), (expiry_addr, WORD), (self.epoch_addr, WORD)]
        )
        return LOCK.unpack(raw)

    def try_acquire(self, client: Client) -> bool:
        """One acquisition attempt: gather, CAS, lease write (3 far
        accesses on success). Expired ownership is taken over in the same
        flow, charged to ``stats.takeovers``.

        Transient-fault tolerant: when the fabric keeps timing out past
        the client's retry budget the attempt reports failure
        (``stats.timeouts``) instead of raising, so acquisition loops —
        including crash takeovers racing a flaky window — just try again.
        If the timeout lands *after* the ownership CAS committed, the
        client best-effort undoes the CAS; if even the undo is lost, the
        situation is identical to acquiring and instantly crashing, which
        the lease machinery already recovers via expiry + takeover.
        """
        self.stats.attempts += 1
        token = self._token(client)
        cas_committed = False
        took_over = False
        try:
            owner, lease, epoch = self._snapshot(client)
            if owner == UNLOCKED:
                _, ok = client.cas(self.address, UNLOCKED, token)
                if not ok:
                    self.stats.contended += 1
                    return False
            elif lease < epoch:
                # The holder's lease expired (crashed or stalled): take over.
                _, ok = client.cas(self.address, owner, token)
                if not ok:
                    self.stats.contended += 1
                    return False
                took_over = True
            else:
                self.stats.contended += 1
                return False
            cas_committed = True
            client.write_u64(self.address + LOCK.offset["expiry"], epoch + self.ttl_epochs)
        except FarTimeoutError:
            self.stats.timeouts += 1
            if cas_committed:
                try:  # undo the half-finished acquisition if the fabric allows
                    client.cas(self.address, token, UNLOCKED)
                except FarTimeoutError:  # fmlint: disable=FM004 (lease expiry recovers)
                    pass  # equivalent to crashing while holding: lease expiry recovers
            return False
        if took_over:
            self.stats.takeovers += 1
        self.stats.acquires += 1
        return True

    def renew(self, client: Client) -> None:
        """Extend the lease (the holder's heartbeat; 2 far accesses)."""
        owner = client.read_u64(self.address)
        if owner != self._token(client):
            raise MutexError(f"{client.name} renewed a lease it does not hold")
        epoch = client.read_u64(self.epoch_addr)
        client.write_u64(self.address + LOCK.offset["expiry"], epoch + self.ttl_epochs)
        self.stats.renewals += 1

    def release(self, client: Client) -> None:
        """Release (one CAS); raises if this client no longer owns the
        lock — which can legitimately happen after a lease expiry and
        takeover, so holders must treat it as fencing."""
        _, ok = client.cas(self.address, self._token(client), UNLOCKED)
        if not ok:
            raise MutexError(
                f"{client.name} lost the lock before releasing (lease expired?)"
            )
        self.stats.releases += 1

    def holder(self, client: Client) -> Optional[int]:
        """Client id of the current owner, or None (one far access)."""
        owner = client.read_u64(self.address)
        return None if owner == UNLOCKED else owner - 1
