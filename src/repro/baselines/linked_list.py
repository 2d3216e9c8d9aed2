"""Far-memory linked list — the O(n) strawman of section 1.

"For instance, linked lists take O(n) far accesses."

A singly linked list with a far head pointer; every traversal hop is one
far read. Push-front is lock-free via a bucket-style CAS. Kept as the
degenerate baseline for experiment E4's far-access scaling plot.

Record layout (24 bytes): ``key | value | next``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.wire import WORD, Layout

RECORD = Layout("key value next")


@dataclass
class LinkedListStats:
    """Traversal accounting."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    hops: int = 0
    pushes: int = 0
    cas_retries: int = 0


class FarLinkedList:
    """A far-memory key-value list with O(n) lookups."""

    def __init__(self, allocator: FarAllocator, head: int) -> None:
        self.allocator = allocator
        self.head = head
        self.stats = LinkedListStats()
        self._item_count = 0

    @classmethod
    def create(
        cls, allocator: FarAllocator, *, hint: Optional[PlacementHint] = None
    ) -> "FarLinkedList":
        """Allocate an empty list (null head)."""
        head = allocator.alloc(WORD, hint)
        allocator.provision(head, 0)
        return cls(allocator, head)

    def push_front(self, client: Client, key: int, value: int) -> None:
        """Prepend a record: record write + head CAS (two far accesses)."""
        record = self.allocator.alloc(RECORD.size, PlacementHint(near=self.head))
        old_head = client.read_u64(self.head)
        client.write(record, RECORD.pack(key, value, old_head))
        client.fence()
        while True:
            observed, ok = client.cas(self.head, old_head, record)
            if ok:
                break
            self.stats.cas_retries += 1
            old_head = observed
            client.write_u64(record + RECORD.offset["next"], old_head)
        self.stats.pushes += 1
        self._item_count += 1

    def get(self, client: Client, key: int) -> Optional[int]:
        """Linear scan: one far read per record — O(n) far accesses."""
        self.stats.lookups += 1
        addr = client.read_u64(self.head)
        while addr != 0:
            stored_key, value, addr = RECORD.unpack(client.read(addr, RECORD.size))
            self.stats.hops += 1
            if stored_key == key:
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return None

    def items(self, client: Client) -> Iterator[tuple[int, int]]:
        """Iterate (key, value) pairs, one far read per record."""
        addr = client.read_u64(self.head)
        while addr != 0:
            key, value, addr = RECORD.unpack(client.read(addr, RECORD.size))
            yield key, value

    def __len__(self) -> int:
        return self._item_count
