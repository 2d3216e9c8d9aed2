"""FaRM-style Hopscotch hash table (paper section 8).

"FaRM uses Hopscotch hashing, where multiple colliding key-value pairs are
inlined in neighboring buckets, allowing clients to read multiple related
items at once. ... FaRM consumes additional bandwidth to transfer items
that will not be used."

Every key lives within a *neighborhood* of ``H`` consecutive slots
starting at its home bucket. A lookup is one wide far read of the whole
neighborhood — a single far access, but ``H * 16`` bytes of it, most of
which is wasted (the paper's bandwidth critique, measured in experiment
E4 via ``bytes_read``). Inserts displace items hopscotch-style to open a
slot inside the neighborhood.

Far-memory layout: ``slots[slot_count]``, each slot 16 bytes::

    +0   key     (EMPTY_KEY when free)
    +8   value
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..core.ht_tree import hash_u64
from ..fabric.client import Client
from ..fabric.errors import FabricError
from ..fabric.wire import U64_MASK, WORD, Layout, decode_u64

SLOT = Layout("key value")
EMPTY_KEY = U64_MASK
EMPTY_SLOT = SLOT.pack(EMPTY_KEY, 0)
"""Reserved key marking a free slot."""


class HopscotchFull(FabricError):
    """No displacement sequence could open a neighborhood slot."""


@dataclass
class HopscotchStats:
    """Event counts (bandwidth shows up in client metrics bytes_read)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    probes: int = 0
    displacements: int = 0
    resizes: int = 0
    resize_bytes_moved: int = 0


class HopscotchHashMap:
    """An inline (open-addressed) hash table with neighborhood reads."""

    def __init__(
        self,
        allocator: FarAllocator,
        base: int,
        slot_count: int,
        neighborhood: int,
    ) -> None:
        self.allocator = allocator
        self.base = base
        self.slot_count = slot_count
        self.neighborhood = neighborhood
        self.stats = HopscotchStats()
        self._item_count = 0

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        slot_count: int = 2048,
        neighborhood: int = 8,
        hint: Optional[PlacementHint] = None,
    ) -> "HopscotchHashMap":
        """Allocate an empty table (every slot marked free)."""
        if slot_count <= 0 or neighborhood <= 0 or neighborhood > slot_count:
            raise ValueError("invalid slot_count / neighborhood")
        base = allocator.alloc(slot_count * SLOT.size, hint)
        allocator.provision(base, EMPTY_SLOT * slot_count)
        return cls(allocator, base, slot_count, neighborhood)

    def _home(self, key: int) -> int:
        return hash_u64(key) % self.slot_count

    def _slot_address(self, index: int) -> int:
        return self.base + (index % self.slot_count) * SLOT.size

    def _read_neighborhood(self, client: Client, home: int) -> list[tuple[int, int]]:
        """One wide far read of H slots (wrapping handled with a gather)."""
        h = self.neighborhood
        if home + h <= self.slot_count:
            raw = client.read(self._slot_address(home), h * SLOT.size)
        else:
            first = self.slot_count - home
            raw = client.rgather(
                [
                    (self._slot_address(home), first * SLOT.size),
                    (self.base, (h - first) * SLOT.size),
                ]
            )
        return list(SLOT.iter_unpack(raw))

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: exactly one far access (the wide neighborhood
        read), at the cost of ``neighborhood * 16`` bytes on the wire."""
        self.stats.lookups += 1
        home = self._home(key)
        for k, v in self._read_neighborhood(client, home):
            if k == key:
                self.stats.hits += 1
                return v
        self.stats.misses += 1
        return None

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert/update. Update: neighborhood read + slot write (2 far
        accesses). Insert: + probing for a free slot and hopscotch
        displacement when the free slot is outside the neighborhood."""
        if key == EMPTY_KEY:
            raise ValueError("key reserved as the free-slot sentinel")
        home = self._home(key)
        slots = self._read_neighborhood(client, home)
        for offset, (k, _) in enumerate(slots):
            if k == key:
                client.write_u64(self._slot_address(home + offset) + SLOT.offset["value"], value)
                self.stats.updates += 1
                return
        try:
            free = self._find_free(client, home, slots)
            free = self._displace_into_neighborhood(client, home, free)
        except HopscotchFull:
            # FaRM-style recovery: double the table and retry — "resizing
            # hash tables is disruptive when they are large" (section 5.2),
            # and the cost is charged to the inserting client.
            self._resize(client)
            self.put(client, key, value)
            return
        client.write(self._slot_address(free), SLOT.pack(key, value))
        self.stats.inserts += 1
        self._item_count += 1

    def _resize(self, client: Client) -> None:
        """Double the table: one bulk read of every slot, a fresh
        allocation, and one bulk write — disruptive by design."""
        old_bytes = self.slot_count * SLOT.size
        raw = client.read(self.base, old_bytes)
        live = [(k, v) for k, v in SLOT.iter_unpack(raw) if k != EMPTY_KEY]
        old_count = self.slot_count
        new_count = old_count * 2
        while True:
            self.slot_count = new_count  # _home must use the new geometry
            image = self._rebuild_image(live, new_count)
            if image is not None:
                break
            new_count *= 2  # a cluster still exceeded the neighborhood
        new_base = self.allocator.alloc(new_count * SLOT.size)
        client.write(new_base, b"".join(SLOT.pack(k, v) for k, v in image))
        self.base = new_base
        self.stats.resizes += 1
        self.stats.resize_bytes_moved += old_bytes + new_count * SLOT.size

    def _rebuild_image(
        self, live: list[tuple[int, int]], new_count: int
    ) -> list[tuple[int, int]] | None:
        """Place every live pair within its neighborhood in a fresh image;
        None when some cluster cannot fit (caller doubles again)."""
        image: list[tuple[int, int]] = [(EMPTY_KEY, 0)] * new_count
        for k, v in live:
            home = self._home(k)
            for offset in range(self.neighborhood):
                index = (home + offset) % new_count
                if image[index][0] == EMPTY_KEY:
                    image[index] = (k, v)
                    break
            else:
                return None
        return image

    def _find_free(
        self, client: Client, home: int, neighborhood: list[tuple[int, int]]
    ) -> int:
        """Absolute index of the nearest free slot at or after ``home``."""
        for offset, (k, _) in enumerate(neighborhood):
            if k == EMPTY_KEY:
                return (home + offset) % self.slot_count
        index = home + self.neighborhood
        for _ in range(self.slot_count):
            self.stats.probes += 1
            k = decode_u64(client.read(self._slot_address(index), WORD))
            if k == EMPTY_KEY:
                return index % self.slot_count
            index += 1
        raise HopscotchFull("no free slot in the table")

    def _distance(self, home: int, index: int) -> int:
        return (index - home) % self.slot_count

    def _displace_into_neighborhood(self, client: Client, home: int, free: int) -> int:
        """Hopscotch displacement: move the free slot backwards until it is
        within ``neighborhood`` of ``home``. Each move is a read + two
        writes of far memory."""
        while self._distance(home, free) >= self.neighborhood:
            moved = False
            # Candidates are the H-1 slots before the free one; the
            # earliest movable one is preferred (classic hopscotch).
            for back in range(self.neighborhood - 1, 0, -1):
                candidate = (free - back) % self.slot_count
                raw = client.read(self._slot_address(candidate), SLOT.size)
                k, _ = SLOT.unpack(raw)
                if k == EMPTY_KEY:
                    continue
                cand_home = self._home(k)
                # The candidate can move to `free` only if `free` is still
                # inside the candidate's own neighborhood.
                if self._distance(cand_home, free) < self.neighborhood:
                    client.write(self._slot_address(free), raw)
                    client.write(self._slot_address(candidate), EMPTY_SLOT)
                    self.stats.displacements += 1
                    free = candidate
                    moved = True
                    break
            if not moved:
                raise HopscotchFull(
                    "displacement failed: neighborhood cannot be opened"
                )
        return free

    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key``: neighborhood read + slot clear (2 far accesses)."""
        home = self._home(key)
        slots = self._read_neighborhood(client, home)
        for offset, (k, _) in enumerate(slots):
            if k == key:
                client.write(self._slot_address(home + offset), EMPTY_SLOT)
                self.stats.deletes += 1
                self._item_count -= 1
                return True
        return False

    def __len__(self) -> int:
        return self._item_count
