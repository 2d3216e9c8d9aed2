"""Far-memory skip list — the O(log n) strawman of section 1.

"balanced trees and skip lists take O(log n)" far accesses per operation.

A classic skip list whose every node visit is one far read. The tower
height is drawn from a seeded geometric distribution so tests are
deterministic. Single-writer (like the B-tree baseline); lookups are
wait-free against a quiescent list.

Node layout (variable, ``3 + level`` words)::

    +0   key
    +8   value
    +16  level
    +24  next[level]
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.wire import WORD, Layout, pack_words, unpack_words

MAX_LEVEL = 24
NODE = Layout("key value level")  # then tower[level], one next pointer per level


@dataclass
class SkipListStats:
    """Traversal accounting."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    node_reads: int = 0
    inserts: int = 0
    updates: int = 0


class FarSkipList:
    """A far-memory skip list with O(log n) far reads per lookup."""

    def __init__(self, allocator: FarAllocator, head: int, *, seed: int = 0) -> None:
        self.allocator = allocator
        # The head is a full-height tower of next pointers (no key/value).
        self.head = head
        self.stats = SkipListStats()
        self._rng = random.Random(seed)
        self._level = 1
        self._item_count = 0

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        seed: int = 0,
        hint: Optional[PlacementHint] = None,
    ) -> "FarSkipList":
        """Allocate an empty list (head tower of null pointers)."""
        head = allocator.alloc(MAX_LEVEL * WORD, hint)
        allocator.provision(head, b"\x00" * MAX_LEVEL * WORD)
        return cls(allocator, head, seed=seed)

    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self._rng.random() < 0.5:
            level += 1
        return level

    def _read_node(self, client: Client, address: int) -> tuple[int, int, int, list[int]]:
        """Read a node's fixed header, then its tower (one far access via
        a two-part gather, since the tower length is in the header)."""
        key, value, level = NODE.unpack(client.read(address, NODE.size))
        self.stats.node_reads += 1
        raw_tower = client.read(address + NODE.size, level * WORD)
        return key, value, level, list(unpack_words(raw_tower))

    def _head_tower(self, client: Client) -> list[int]:
        return list(unpack_words(client.read(self.head, MAX_LEVEL * WORD)))

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: O(log n) far reads (each node visit is two
        dependent reads: header then tower)."""
        self.stats.lookups += 1
        tower = self._head_tower(client)
        current_nexts = tower
        for level in range(self._level - 1, -1, -1):
            while current_nexts[level] != 0:
                k, v, _, nexts = self._read_node(client, current_nexts[level])
                if k < key:
                    current_nexts = nexts
                elif k == key:
                    self.stats.hits += 1
                    return v
                else:
                    break
        self.stats.misses += 1
        return None

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert or update ``key``: the search pass plus one write per
        affected tower level."""
        update_addrs: list[int] = [0] * MAX_LEVEL  # 0 means "the head tower"
        tower = self._head_tower(client)
        current_addr = 0
        current_nexts = tower
        for level in range(self._level - 1, -1, -1):
            while current_nexts[level] != 0:
                k, _, _, nexts = self._read_node(client, current_nexts[level])
                if k < key:
                    current_addr = current_nexts[level]
                    current_nexts = nexts
                else:
                    break
            update_addrs[level] = current_addr

        # Exact-match check at level 0.
        if current_nexts[0] != 0:
            k, _, lvl, _ = self._read_node(client, current_nexts[0])
            if k == key:
                client.write_u64(current_nexts[0] + NODE.offset["value"], value)
                self.stats.updates += 1
                return

        new_level = self._random_level()
        if new_level > self._level:
            for level in range(self._level, new_level):
                update_addrs[level] = 0
            self._level = new_level

        node = self.allocator.alloc(
            NODE.size + new_level * WORD, PlacementHint(near=self.head)
        )
        # Link the new node: read each predecessor's pointer, point the new
        # node at it, then swing the predecessor (bottom level last would
        # be the lock-free order; single-writer keeps this simple).
        new_nexts: list[int] = []
        for level in range(new_level):
            pred = update_addrs[level]
            slot = (
                self.head + level * WORD
                if pred == 0
                else pred + NODE.size + level * WORD
            )
            new_nexts.append(client.read_u64(slot))
        client.write(node, NODE.pack(key, value, new_level) + pack_words(new_nexts))
        client.fence()
        for level in range(new_level):
            pred = update_addrs[level]
            slot = (
                self.head + level * WORD
                if pred == 0
                else pred + NODE.size + level * WORD
            )
            # fmlint: disable=FM001 (bottom-up link order is load-bearing)
            client.write_u64(slot, node)
        self.stats.inserts += 1
        self._item_count += 1

    def __len__(self) -> int:
        return self._item_count
