"""A far-memory naming registry.

Far memory data structures are shared by construction, but sharing needs
a rendezvous: a client that did not create a structure must be able to
find its descriptor. The registry is itself a far-memory structure — an
open-addressed table of ``(name hash, kind, descriptor-blob pointer)``
entries claimed with CAS — so any client can register or look up by name
with a handful of far accesses and no coordinator.

Layout::

    +0    capacity (word)
    +8    entries[capacity] x 3 words: name_hash | kind | blob_ptr

``name_hash`` 0 means free, 1 is a tombstone (probe chains continue past
it; registration may reuse it). An entry becomes visible atomically: the
hash word is CAS-claimed first, the kind/pointer pair is scattered after,
and lookups treat a claimed-but-kindless entry as not-yet-registered.

Descriptor codecs for the section 5 structures are provided
(``register_counter`` / ``lookup_queue`` / ...); arbitrary structures can
use the raw ``register`` / ``lookup`` with their own blob encoding. An
attached structure is a fresh local view: far-memory contents are shared,
per-object statistics and caches start empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.errors import FabricError
from ..fabric.wire import U64_MASK, WORD, Layout, pack_words
from .blob import BLOB, pack_blob
from .counter import FarCounter
from .queue import FarQueue

HEADER = Layout("capacity")  # then entries[capacity]
ENTRY = Layout("name_hash kind blob")
COUNTER_PAYLOAD = Layout("address")
QUEUE_PAYLOAD = Layout("base capacity max_clients clear_batch slack_slots use_fsaai")
FREE = 0
TOMBSTONE = 1

KIND_RAW = 1
KIND_COUNTER = 2
KIND_QUEUE = 4


class RegistryError(FabricError):
    """Name conflicts, capacity exhaustion, or kind mismatches."""


def name_hash(name: str) -> int:
    """FNV-1a (64-bit) of the UTF-8 name, remapped off the sentinels."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & U64_MASK
    if h in (FREE, TOMBSTONE):
        h += 2
    return h


@dataclass
class RegistryStats:
    """Probe-depth and lifecycle accounting."""

    registrations: int = 0
    lookups: int = 0
    probes: int = 0
    unregistrations: int = 0


@dataclass
class FarRegistry:
    """The shared name table."""

    base: int
    capacity: int
    allocator: FarAllocator
    stats: RegistryStats = field(default_factory=RegistryStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        capacity: int = 64,
        hint: Optional[PlacementHint] = None,
    ) -> "FarRegistry":
        """Allocate an empty registry."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        size = HEADER.size + capacity * ENTRY.size
        base = allocator.alloc(size, hint)
        allocator.provision(base, b"\x00" * size)
        allocator.provision(base, capacity)
        return cls(base=base, capacity=capacity, allocator=allocator)

    @classmethod
    def attach(cls, allocator: FarAllocator, base: int, client: Client) -> "FarRegistry":
        """Adopt a registry by its base address (one far access)."""
        capacity = client.read_u64(base)
        return cls(base=base, capacity=capacity, allocator=allocator)

    def _entry_addr(self, slot: int) -> int:
        return self.base + HEADER.size + (slot % self.capacity) * ENTRY.size

    # ------------------------------------------------------------------
    # Raw interface
    # ------------------------------------------------------------------

    def register(self, client: Client, name: str, kind: int, payload: bytes) -> None:
        """Publish ``payload`` under ``name``.

        Blob write + per-probe entry read + claim CAS + descriptor
        scatter. Raises on duplicate names or a full table.
        """
        if kind <= 0:
            raise RegistryError("kind must be positive")
        blob = self.allocator.alloc(BLOB.size + max(len(payload), 1))
        client.write(blob, pack_blob(payload))
        client.fence()
        h = name_hash(name)
        while True:
            # Scan the whole probe chain before claiming: a tombstone
            # early in the chain does not prove the name is absent — it
            # may live in a later slot (registered past a since-deleted
            # entry). Remember the first reusable slot, keep reading
            # until FREE (end of chain) or the name itself.
            claim: Optional[tuple[int, int]] = None  # (entry addr, old value)
            for i in range(self.capacity):
                self.stats.probes += 1
                entry = self._entry_addr(h + i)
                current = client.read_u64(entry)
                if current == h:
                    self.allocator.free(blob)
                    raise RegistryError(f"name {name!r} already registered")
                if current in (FREE, TOMBSTONE) and claim is None:
                    claim = (entry, current)
                if current == FREE:
                    break  # chain ends here; no duplicate beyond
            if claim is None:
                self.allocator.free(blob)
                raise RegistryError("registry full")
            entry, current = claim
            _, ok = client.cas(entry, current, h)
            if not ok:
                continue  # lost the slot to a concurrent registrant; rescan
            client.wscatter(
                [(entry + ENTRY.offset["kind"], WORD), (entry + ENTRY.offset["blob"], WORD)],
                pack_words((kind, blob)),
            )
            self.stats.registrations += 1
            return

    def lookup(self, client: Client, name: str) -> Optional[tuple[int, bytes]]:
        """Resolve ``name`` to ``(kind, payload)``; None when absent.

        One far access per probe slot plus the blob read.
        """
        self.stats.lookups += 1
        h = name_hash(name)
        for i in range(self.capacity):
            self.stats.probes += 1
            entry = self._entry_addr(h + i)
            current, kind, blob = ENTRY.unpack(client.read(entry, ENTRY.size))
            if current == FREE:
                return None
            if current != h:
                continue  # tombstone or another name: keep probing
            if kind == 0:
                return None  # registration in flight
            length = client.read_u64(blob)
            payload = client.read(blob + BLOB.size, length) if length else b""
            return kind, payload
        return None

    def unregister(self, client: Client, name: str) -> bool:
        """Remove ``name`` (tombstoning its slot); True if it existed."""
        h = name_hash(name)
        for i in range(self.capacity):
            entry = self._entry_addr(h + i)
            current = client.read_u64(entry)
            if current == FREE:
                return False
            if current != h:
                continue
            # Hide the descriptor first, then tombstone the hash.
            client.write_u64(entry + ENTRY.offset["kind"], 0)
            client.fence()
            client.write_u64(entry, TOMBSTONE)
            self.stats.unregistrations += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Typed conveniences for the section 5 structures
    # ------------------------------------------------------------------

    def _expect(self, client: Client, name: str, kind: int) -> Optional[bytes]:
        found = self.lookup(client, name)
        if found is None:
            return None
        actual, payload = found
        if actual != kind:
            raise RegistryError(
                f"{name!r} is registered with kind {actual}, expected {kind}"
            )
        return payload

    def register_counter(self, client: Client, name: str, counter: FarCounter) -> None:
        """Publish a far counter."""
        self.register(client, name, KIND_COUNTER, COUNTER_PAYLOAD.pack(counter.address))

    def lookup_counter(self, client: Client, name: str) -> Optional[FarCounter]:
        """Attach to a published counter."""
        payload = self._expect(client, name, KIND_COUNTER)
        if payload is None:
            return None
        return FarCounter(*COUNTER_PAYLOAD.unpack(payload))

    def register_queue(self, client: Client, name: str, queue: FarQueue) -> None:
        """Publish a far queue (layout parameters travel in the blob)."""
        payload = QUEUE_PAYLOAD.pack(
            queue.head_addr,  # the queue's base: head is its first word
            queue.capacity,
            queue.max_clients,
            queue.clear_batch,
            queue.slack_slots,
            1 if queue.use_fsaai else 0,
        )
        self.register(client, name, KIND_QUEUE, payload)

    def lookup_queue(self, client: Client, name: str) -> Optional[FarQueue]:
        """Attach to a published queue."""
        payload = self._expect(client, name, KIND_QUEUE)
        if payload is None:
            return None
        base, capacity, max_clients, clear_batch, slack_slots, use_fsaai = (
            QUEUE_PAYLOAD.unpack(payload)
        )
        return FarQueue(
            self.allocator,
            base,
            capacity,
            max_clients,
            clear_batch=clear_batch,
            slack_slots=slack_slots,
            use_fsaai=bool(use_fsaai),
        )
