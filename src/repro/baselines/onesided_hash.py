"""The traditional one-sided hash table — the strawman of section 1.

This is the structure prior work [24, 25, 35] used to argue that one-sided
access "appears to have diminished value": a chained hash table accessed
with plain one-sided reads/writes/CAS, designed as if far memory were
local. Without indirect addressing, every lookup is at least **two** far
accesses (read the bucket pointer, then read the item it points to), plus
one more per collision-chain hop — which is precisely why it loses to an
RPC server that answers in one round trip (experiment E2).

Far-memory layout::

    buckets[bucket_count]          (word: pointer to first item, or 0)

Item record (24 bytes)::

    +0   key
    +8   value
    +16  next
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..core.ht_tree import hash_u64
from ..fabric.client import Client
from ..fabric.wire import WORD, Layout

NODE = Layout("key value next")


@dataclass
class OneSidedHashStats:
    """Event counts for the strawman (far accesses are in client metrics)."""

    lookups: int = 0
    updates: int = 0
    chain_hops: int = 0
    cas_retries: int = 0


class OneSidedHashMap:
    """A chained hash table over plain one-sided far accesses."""

    def __init__(self, allocator: FarAllocator, base: int, bucket_count: int) -> None:
        self.allocator = allocator
        self.base = base
        self.bucket_count = bucket_count
        self.stats = OneSidedHashStats()
        self._item_count = 0

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        bucket_count: int = 1024,
        hint: Optional[PlacementHint] = None,
    ) -> "OneSidedHashMap":
        """Allocate an empty table (all buckets null)."""
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        base = allocator.alloc(bucket_count * WORD, hint)
        allocator.provision(base, b"\x00" * bucket_count * WORD)
        return cls(allocator, base, bucket_count)

    def _bucket_address(self, key: int) -> int:
        return self.base + (hash_u64(key) % self.bucket_count) * WORD

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: bucket read + one read per chain record, so a
        minimum of two far accesses on a hit."""
        self.stats.lookups += 1
        addr = client.read_u64(self._bucket_address(key))  # far access 1
        while addr != 0:
            k, v, nxt = NODE.unpack(client.read(addr, NODE.size))  # +1 each
            if k == key:
                return v
            self.stats.chain_hops += 1
            addr = nxt
        return None

    def find_address(self, client: Client, key: int) -> Optional[int]:
        """Like :meth:`get` but returns the item's far address (used by the
        DrTM+H-style address-caching wrapper)."""
        addr = client.read_u64(self._bucket_address(key))
        while addr != 0:
            k, _, nxt = NODE.unpack(client.read(addr, NODE.size))
            if k == key:
                return addr
            self.stats.chain_hops += 1
            addr = nxt
        return None

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert/update: bucket read, chain walk, then either an in-place
        value write (update) or record write + bucket CAS (insert)."""
        bucket = self._bucket_address(key)
        head = client.read_u64(bucket)
        addr = head
        while addr != 0:
            k, _, nxt = NODE.unpack(client.read(addr, NODE.size))
            if k == key:
                client.write_u64(addr + NODE.offset["value"], value)
                self.stats.updates += 1
                return
            self.stats.chain_hops += 1
            addr = nxt
        record = self.allocator.alloc(NODE.size, PlacementHint(near=self.base))
        next_ptr = head
        client.write(record, NODE.pack(key, value, next_ptr))
        client.fence()
        while True:
            old, ok = client.cas(bucket, next_ptr, record)
            if ok:
                break
            self.stats.cas_retries += 1
            next_ptr = old
            client.write_u64(record + NODE.offset["next"], next_ptr)
        self._item_count += 1

    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key``: chain walk plus a CAS (head) or write (interior),
        then a tombstone write so dangling pointers (e.g. stale client
        address caches) cannot validate against the dead record."""
        bucket = self._bucket_address(key)
        head = client.read_u64(bucket)
        if head == 0:
            return False
        k, _, nxt = NODE.unpack(client.read(head, NODE.size))
        if k == key:
            _, ok = client.cas(bucket, head, nxt)
            if not ok:
                self.stats.cas_retries += 1
                return self.delete(client, key)
            self._tombstone(client, head)
            self._item_count -= 1
            return True
        prev = head
        addr = nxt
        while addr != 0:
            self.stats.chain_hops += 1
            k, _, nxt = NODE.unpack(client.read(addr, NODE.size))
            if k == key:
                client.write_u64(prev + NODE.offset["next"], nxt)
                self._tombstone(client, addr)
                self._item_count -= 1
                return True
            prev = addr
            addr = nxt
        return False

    @staticmethod
    def _tombstone(client: Client, record: int) -> None:
        """Poison the dead record's key word (one far write)."""
        client.write_u64(record, (1 << 64) - 1)

    def __len__(self) -> int:
        return self._item_count
