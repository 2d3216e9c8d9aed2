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
pointer in far memory and the client is notified"). The notification-kept
client cache is :class:`~repro.core.refreshable_vector.RefreshableVector`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.errors import AddressError
from ..fabric.wire import WORD
from ..notify.manager import NotificationManager
from ..notify.subscription import NotifyKind, Subscription


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

