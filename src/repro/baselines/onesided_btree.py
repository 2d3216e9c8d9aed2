"""B-tree over one-sided far accesses (paper sections 1, 5.2, 8).

"With trees, traversals take O(log n) far accesses; this cost can be
avoided by caching most levels of the tree at the client, but that
requires a large cache with O(n) items."

A classic CLRS B-tree (keys and values in every node, preemptive top-down
splitting on insert) where every node visit is one far read and every node
mutation one far write. ``cache_levels=k`` caches the top ``k`` levels at
the client, trading lookup far accesses (depth - k) for client memory that
grows geometrically with ``k`` — the exact trade-off the HT-tree is
designed to escape, measured in experiment E4.

Node layout (``max_keys`` = 2t - 1 must be odd)::

    +0                      header: count | (is_leaf << 32)
    +8                      keys[max_keys]
    +8 + max_keys*8         values[max_keys]
    +8 + 2*max_keys*8       children[max_keys + 1]
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..fabric.client import Client
from ..fabric.wire import WORD, pack_words, unpack_words


@dataclass
class _BNode:
    """A decoded B-tree node."""

    is_leaf: bool
    keys: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)


@dataclass
class BTreeStats:
    """Traversal accounting for the baseline."""

    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    node_reads: int = 0
    node_writes: int = 0
    splits: int = 0
    cache_hits: int = 0


class OneSidedBTree:
    """A far-memory B-tree accessed with plain one-sided reads/writes.

    Single-writer: concurrent inserts from several clients require
    external coordination (e.g. a :class:`~repro.core.mutex.FarMutex`);
    concurrent lookups are safe against a quiescent tree. Cached levels
    are per-client and are kept coherent only with that client's own
    writes — a deliberate mirror of the prior-work designs the paper
    critiques.
    """

    def __init__(
        self,
        allocator: FarAllocator,
        descriptor: int,
        max_keys: int,
        cache_levels: int,
    ) -> None:
        if max_keys < 3 or max_keys % 2 == 0:
            raise ValueError("max_keys must be an odd integer >= 3")
        self.allocator = allocator
        self.descriptor = descriptor
        self.max_keys = max_keys
        self.min_degree = (max_keys + 1) // 2
        self.cache_levels = cache_levels
        self.node_bytes = WORD + 2 * max_keys * WORD + (max_keys + 1) * WORD
        self.stats = BTreeStats()
        self._height = 1
        self._item_count = 0
        self._caches: dict[int, dict[int, _BNode]] = {}

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        max_keys: int = 7,
        cache_levels: int = 0,
        hint: Optional[PlacementHint] = None,
    ) -> "OneSidedBTree":
        """Allocate an empty tree (a single empty leaf as root)."""
        descriptor = allocator.alloc(WORD, hint)
        tree = cls(allocator, descriptor, max_keys, cache_levels)
        root = tree._alloc_node()
        tree._write_raw(root, _BNode(is_leaf=True))
        allocator.provision(descriptor, root)
        return tree

    # ------------------------------------------------------------------
    # Node serialization
    # ------------------------------------------------------------------

    def _alloc_node(self) -> int:
        return self.allocator.alloc(self.node_bytes)

    def _encode(self, node: _BNode) -> bytes:
        count = len(node.keys)
        header = count | (1 << 32 if node.is_leaf else 0)
        keys = node.keys + [0] * (self.max_keys - count)
        values = node.values + [0] * (self.max_keys - count)
        kids = node.children + [0] * (self.max_keys + 1 - len(node.children))
        return pack_words([header, *keys, *values, *kids])

    def _decode(self, raw: bytes) -> _BNode:
        words = list(unpack_words(raw))
        header = words[0]
        count = header & 0xFFFFFFFF
        is_leaf = bool(header >> 32)
        keys = words[1 : 1 + count]
        values = words[1 + self.max_keys : 1 + self.max_keys + count]
        kid_base = 1 + 2 * self.max_keys
        children = [] if is_leaf else words[kid_base : kid_base + count + 1]
        return _BNode(is_leaf=is_leaf, keys=keys, values=values, children=children)

    def _write_raw(self, address: int, node: _BNode) -> None:
        self.allocator.provision(address, self._encode(node))

    # ------------------------------------------------------------------
    # Charged node I/O with level caching
    # ------------------------------------------------------------------

    def _cache(self, client: Client) -> dict[int, _BNode]:
        return self._caches.setdefault(client.client_id, {})

    def _read_node(self, client: Client, address: int, depth: int) -> _BNode:
        if depth < self.cache_levels:
            cached = self._cache(client).get(address)
            if cached is not None:
                self.stats.cache_hits += 1
                client.touch_local()
                return cached
        raw = client.read(address, self.node_bytes)
        self.stats.node_reads += 1
        node = self._decode(raw)
        if depth < self.cache_levels:
            self._cache(client)[address] = node
        return node

    def _write_node(self, client: Client, address: int, node: _BNode) -> None:
        client.write(address, self._encode(node))
        self.stats.node_writes += 1
        cache = self._cache(client)
        if address in cache:
            cache[address] = node

    def cache_bytes(self, client: Client) -> int:
        """Client cache footprint (grows geometrically with cache_levels)."""
        return len(self._cache(client)) * self.node_bytes

    def invalidate_cache(self, client: Client) -> None:
        """Drop this client's cached levels (e.g. after another writer)."""
        self._cache(client).clear()

    def root(self, client: Client) -> int:
        """Read the root pointer (one far access)."""
        return client.read_u64(self.descriptor)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: (height - cached levels) far reads, plus the
        root-pointer read."""
        self.stats.lookups += 1
        address = self.root(client)
        depth = 0
        while True:
            node = self._read_node(client, address, depth)
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return node.values[index]
            if node.is_leaf:
                return None
            address = node.children[index]
            depth += 1

    # ------------------------------------------------------------------
    # Insert (top-down preemptive splitting)
    # ------------------------------------------------------------------

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert or update ``key`` (O(height) far reads, O(1) writes)."""
        root_addr = self.root(client)
        root = self._read_node(client, root_addr, 0)
        if len(root.keys) == self.max_keys:
            new_root_addr = self._alloc_node()
            new_root = _BNode(is_leaf=False, children=[root_addr])
            self._split_child(client, new_root_addr, new_root, 0, root_addr, root)
            client.write_u64(self.descriptor, new_root_addr)
            self._height += 1
            self._caches.clear()  # depths shifted; cached levels are stale
            root_addr, root = new_root_addr, new_root
        self._insert_nonfull(client, root_addr, root, key, value, depth=0)

    def _split_child(
        self,
        client: Client,
        parent_addr: int,
        parent: _BNode,
        index: int,
        child_addr: int,
        child: _BNode,
    ) -> None:
        """Split a full child; writes the new sibling, the shrunken child,
        and the parent (three far writes)."""
        t = self.min_degree
        sibling = _BNode(
            is_leaf=child.is_leaf,
            keys=child.keys[t:],
            values=child.values[t:],
            children=[] if child.is_leaf else child.children[t:],
        )
        median_key = child.keys[t - 1]
        median_value = child.values[t - 1]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.is_leaf:
            child.children = child.children[:t]
        sibling_addr = self._alloc_node()
        parent.keys.insert(index, median_key)
        parent.values.insert(index, median_value)
        parent.children.insert(index + 1, sibling_addr)
        self._write_node(client, sibling_addr, sibling)
        self._write_node(client, child_addr, child)
        self._write_node(client, parent_addr, parent)
        self.stats.splits += 1

    def _insert_nonfull(
        self,
        client: Client,
        address: int,
        node: _BNode,
        key: int,
        value: int,
        depth: int,
    ) -> None:
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value
            self._write_node(client, address, node)
            self.stats.updates += 1
            return
        if node.is_leaf:
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._write_node(client, address, node)
            self.stats.inserts += 1
            self._item_count += 1
            return
        child_addr = node.children[index]
        child = self._read_node(client, child_addr, depth + 1)
        if len(child.keys) == self.max_keys:
            self._split_child(client, address, node, index, child_addr, child)
            if key > node.keys[index]:
                child_addr = node.children[index + 1]
                child = self._read_node(client, child_addr, depth + 1)
            elif key == node.keys[index]:
                node.values[index] = value
                self._write_node(client, address, node)
                self.stats.updates += 1
                return
        self._insert_nonfull(client, child_addr, child, key, value, depth + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Levels in the tree (1 = a lone leaf)."""
        return self._height

    def __len__(self) -> int:
        return self._item_count
