"""DrTM+H-style client address caching (paper section 8).

"DrTM+H caches hash table entry addresses on the client for later reuse
... DrTM+H keeps significant metadata on clients."

This wraps the traditional chained one-sided hash table: the first lookup
of a key pays the full multi-access chain walk, then remembers the item's
far address. Repeat lookups go straight to the record — one far access —
but the client-side metadata grows with the number of distinct keys
touched (:meth:`metadata_bytes`), which is the drawback the paper calls
out (contrast with the HT-tree, whose client state is one tree node per
*hash table*, not per item).

A cached address is validated by the key stored in the record itself: if
the record was deleted or reused, the key mismatch triggers invalidation
and a full re-lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fabric.client import Client
from ..fabric.wire import WORD, decode_u64
from .onesided_hash import NODE, OneSidedHashMap

CACHE_ENTRY_BYTES = 24
"""Approximate client-memory cost of one cached (key -> address) entry."""


@dataclass
class AddrCacheStats:
    """Cache effectiveness accounting."""

    lookups: int = 0
    cache_hits: int = 0
    invalidations: int = 0


class AddressCachingHashMap:
    """A per-client address cache over :class:`OneSidedHashMap`."""

    def __init__(self, table: OneSidedHashMap) -> None:
        self.table = table
        self.stats = AddrCacheStats()
        self._caches: dict[int, dict[int, int]] = {}

    def _cache(self, client: Client) -> dict[int, int]:
        return self._caches.setdefault(client.client_id, {})

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: one far access after the address is cached."""
        self.stats.lookups += 1
        cache = self._cache(client)
        addr = cache.get(key)
        if addr is not None:
            stored_key, value, _ = NODE.unpack(client.read(addr, NODE.size))
            if stored_key == key:
                self.stats.cache_hits += 1
                return value
            # Record moved or deleted under us: drop and re-walk.
            self.stats.invalidations += 1
            del cache[key]
        found = self.table.find_address(client, key)
        if found is None:
            return None
        cache[key] = found
        return decode_u64(client.read(found + NODE.offset["value"], WORD))

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert/update through a cached address when possible (one far
        access for a cached update), else via the underlying table."""
        cache = self._cache(client)
        addr = cache.get(key)
        if addr is not None:
            stored_key, _, _ = NODE.unpack(client.read(addr, NODE.size))
            if stored_key == key:
                client.write_u64(addr + NODE.offset["value"], value)
                self.table.stats.updates += 1
                return
            self.stats.invalidations += 1
            del cache[key]
        self.table.put(client, key, value)
        # Cache the freshly written record's address for later reuse.
        found = self.table.find_address(client, key)
        if found is not None:
            cache[key] = found

    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key`` and forget its cached address everywhere locally."""
        self._cache(client).pop(key, None)
        return self.table.delete(client, key)

    def metadata_bytes(self, client: Client) -> int:
        """Client-side metadata footprint — the DrTM+H drawback (grows with
        distinct keys touched, unlike the HT-tree's per-table cache)."""
        return len(self._cache(client)) * CACHE_ENTRY_BYTES

    def __len__(self) -> int:
        return len(self.table)
