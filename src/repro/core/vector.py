"""Far vectors (paper section 5.1).

"Vectors take advantage of indirect addressing (e.g., load1 and store1)
for indexing into the vector using a base pointer. If desired, client
caches can be updated using notifications."

The vector keeps its *base pointer in far memory* (one word) and its
elements in a separate far region. Clients index elements through the
base pointer with the ``load2``/``store2``/``add2`` primitives — one far
access per element operation, **without caching the base**. Because the
base is a level of indirection, it can be atomically switched to a
different storage region, which is exactly how the section 6 monitoring
case study rotates histogram windows ("the producer switches the base
pointer in far memory and the client is notified").

:class:`CachedFarVector` adds the optional notification-maintained client
cache: reads become near accesses; ``notify0``/``notify0d`` subscriptions
keep the cache fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.errors import AddressError
from ..fabric.wire import WORD
from ..notify.manager import NotificationManager
from ..notify.subscription import Notification, NotifyKind, Subscription


@dataclass(frozen=True)
class FarVector:
    """A fixed-length vector of 64-bit words in far memory.

    Attributes:
        descriptor: far address of the base-pointer word.
        length: element count (fixed; the storage region it points at may
            be swapped, but must have this length).
    """

    descriptor: int
    length: int

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        length: int,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarVector":
        """Allocate descriptor + storage; elements start at zero."""
        if length <= 0:
            raise ValueError("vector length must be positive")
        descriptor = allocator.alloc(WORD, hint)
        storage = allocator.alloc(length * WORD, hint)
        allocator.provision(descriptor, storage)
        return cls(descriptor=descriptor, length=length)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise AddressError(index, 0, f"vector index out of range [0, {self.length})")

    # ------------------------------------------------------------------
    # One-far-access element operations (via indirect addressing)
    # ------------------------------------------------------------------

    def get(self, client: Client, index: int) -> int:
        """Read element ``index``: one far access (``load2``)."""
        self._check_index(index)
        return client.load2_u64(self.descriptor, index * WORD)

    def set(self, client: Client, index: int, value: int) -> None:
        """Write element ``index``: one far access (``store2``)."""
        self._check_index(index)
        client.store2_u64(self.descriptor, index * WORD, value)

    def add(self, client: Client, index: int, delta: int) -> int:
        """Atomically add to element ``index``: one far access (``add2``).

        Returns the element's previous value.
        """
        self._check_index(index)
        return int(client.add2(self.descriptor, delta, index * WORD).value)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def base(self, client: Client) -> int:
        """Read the current storage base pointer (one far access)."""
        return client.read_u64(self.descriptor)

    def read_all(self, client: Client, base: Optional[int] = None) -> np.ndarray:
        """Read the whole vector.

        With a known ``base`` (cached by the caller) this is one far
        access; otherwise it is two (base read + bulk read).
        """
        if base is None:
            base = self.base(client)
        raw = client.read(base, self.length * WORD)
        return np.frombuffer(raw, dtype="<u8").copy()

    def read_range(
        self, client: Client, start: int, count: int, base: Optional[int] = None
    ) -> np.ndarray:
        """Read ``count`` elements from ``start`` (1-2 far accesses)."""
        if count < 0 or start < 0 or start + count > self.length:
            raise AddressError(start, count, "vector range out of bounds")
        if base is None:
            base = self.base(client)
        raw = client.read(base + start * WORD, count * WORD)
        return np.frombuffer(raw, dtype="<u8").copy()

    # ------------------------------------------------------------------
    # Base switching (circular buffers of vectors, section 6)
    # ------------------------------------------------------------------

    def swap_base(self, client: Client, new_storage: int) -> int:
        """Atomically point the vector at a different storage region.

        Returns the previous base. Subscribers watching the descriptor
        (``notify0``) learn about the switch without polling.
        """
        return client.swap(self.descriptor, new_storage)

    # ------------------------------------------------------------------
    # Notification subscriptions
    # ------------------------------------------------------------------

    def subscribe_base(
        self, manager: NotificationManager, client: Client, *, with_data: bool = True
    ) -> Subscription:
        """Learn when the base pointer switches. With ``with_data`` (the
        default) the notification carries the new base (``notify0d``), so
        chasing a window rotation costs zero far accesses."""
        if with_data:
            return manager.notify0d(client, self.descriptor, WORD)
        return manager.notify0(client, self.descriptor, WORD)

    def subscribe_range(
        self,
        manager: NotificationManager,
        client: Client,
        base: int,
        start: int,
        count: int,
        *,
        with_data: bool = False,
    ) -> list[Subscription]:
        """Subscribe to changes of elements ``[start, start+count)``.

        ``base`` must be the storage base (read it once via :meth:`base`).
        Ranges are split at page boundaries to satisfy the section 4.3
        hardware constraint; the returned list has one subscription per
        page touched. ``with_data=True`` uses ``notify0d``.
        """
        if count <= 0 or start < 0 or start + count > self.length:
            raise AddressError(start, count, "vector range out of bounds")
        kind = NotifyKind.NOTIFY0D if with_data else NotifyKind.NOTIFY0
        subs: list[Subscription] = []
        address = base + start * WORD
        remaining = count * WORD
        from ..fabric.address import PAGE_SIZE

        while remaining > 0:
            room = PAGE_SIZE - (address % PAGE_SIZE)
            chunk = min(room, remaining)
            subs.append(manager.subscribe(client, kind, address, chunk))
            address += chunk
            remaining -= chunk
        return subs


@dataclass
class CachedFarVector:
    """A client-side cache over a :class:`FarVector`, kept fresh by
    notifications (section 5.1's optional cache).

    One client owns one cache. Reads are near accesses; incoming
    ``notify0d`` notifications update the cached words in place, while
    plain ``notify0`` notifications (or loss warnings) invalidate the
    affected words, forcing a far re-read on next access.
    """

    vector: FarVector
    client: Client
    manager: NotificationManager
    base: int = 0
    _cache: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype="<u8"))
    _valid: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    subscriptions: list[Subscription] = field(default_factory=list)

    @classmethod
    def attach(
        cls,
        vector: FarVector,
        client: Client,
        manager: NotificationManager,
    ) -> "CachedFarVector":
        """Populate the cache (2 far accesses) and subscribe for updates
        that carry the new words (``notify0d``)."""
        base = vector.base(client)
        cache = vector.read_all(client, base=base)
        cached = cls(
            vector=vector,
            client=client,
            manager=manager,
            base=base,
            _cache=cache,
            _valid=np.ones(vector.length, dtype=bool),
        )
        cached.subscriptions = vector.subscribe_range(
            manager, client, base, 0, vector.length, with_data=True
        )
        return cached

    def _apply(self, notification: Notification) -> None:
        start = (notification.address - self.base) // WORD
        count = max(1, notification.length // WORD)
        if start < 0 or start >= self.vector.length:
            return
        end = min(start + count, self.vector.length)
        if (
            notification.kind is NotifyKind.NOTIFY0D
            and notification.data is not None
            and not notification.is_loss_warning
            and notification.coalesced_count == 1
        ):
            words = np.frombuffer(notification.data, dtype="<u8")
            self._cache[start : start + len(words)] = words
            self._valid[start : start + len(words)] = True
        else:
            # Coalesced or data-less: we only know *something* changed.
            self._valid[start:end] = False

    def pump(self) -> int:
        """Drain pending notifications into the cache; returns how many."""
        notifications = self.client.poll_notifications()
        mine = {s.sub_id for s in self.subscriptions}
        for n in notifications:
            if n.sub_id in mine:
                if n.is_loss_warning:
                    # Unknown updates were dropped: trust nothing.
                    self._valid[:] = False
                self._apply(n)
            else:
                # Not ours: give it back to the inbox owner.
                self.client.deliver(n)
        return len(notifications)

    def get(self, index: int) -> int:
        """Read through the cache: near access on hit, one far access on
        an invalidated word."""
        self.vector._check_index(index)
        self.pump()
        if self._valid[index]:
            self.client.touch_local()
            return int(self._cache[index])
        value = self.client.read_u64(self.base + index * WORD)
        self._cache[index] = value
        self._valid[index] = True
        return value

    def close(self) -> None:
        """Drop all subscriptions."""
        for sub in self.subscriptions:
            self.manager.unsubscribe(sub)
        self.subscriptions.clear()
