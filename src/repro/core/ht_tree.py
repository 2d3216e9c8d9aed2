"""The HT-tree map (paper section 5.2).

"We propose a new data structure, the HT-tree, which is a tree where each
leaf node stores base pointers of hash tables. Clients cache the entire
tree, but not the hash tables. To find a key, a client traverses the tree
in its cache to obtain a hash table base pointer, applies the hash
function to calculate the bucket number, and then finally accesses the
bucket in far memory, using indirect addressing to follow the pointer in
the bucket. When a hash table has enough collisions, it is split and added
to the tree, without affecting the other hash tables."

Far-memory layout
-----------------

Tree header (fixed address, 3 words)::

    +0   tree version
    +8   leaf count
    +16  pointer to the serialized leaves array

Leaves array (``leaf_count`` entries x 32 bytes, sorted by key range)::

    +0   inclusive upper bound of the leaf's key range
    +8   hash table base pointer
    +16  hash table version
    +24  bucket count

Hash table::

    +0   table version
    +8   split lock
    +16  buckets[bucket_count]   (word: pointer to first item record, or 0)

Item record (32 bytes)::

    +0   version (the owning table's version, at insert time)
    +8   key
    +16  value
    +24  next item record (or 0)

Far-access costs (the section 5.2 claims)
-----------------------------------------

* **Lookup** — tree traversal is near-memory (client cache); the bucket
  access is one ``load0`` that dereferences the bucket pointer and returns
  the whole 32-byte item record: **one far access** when the chain length
  is one. Collision chains add one read per extra hop; splits keep chains
  short. An empty bucket also costs exactly one far access (``load0`` of
  the null pointer reads the reserved zero page, whose version word 0
  means "no item").
* **Store** — updating an existing head-of-chain item is **two far
  accesses**: the ``load0`` version check plus the in-place value write.
  Inserting a brand-new item adds one more (writing the 32-byte record)
  before the bucket CAS — the paper's "two" counts the version check and
  the CAS; we report both shapes separately in EXPERIMENTS.md.
* **Stale caches** — versions make staleness detectable without extra
  accesses on the fast path: when a table is split, every old bucket is
  pointed at a tombstone record whose version word is ``MOVED``; a client
  holding the stale tree sees the tombstone in its (single) bucket access,
  refreshes its cached tree (two far accesses: header + leaves array), and
  retries. Alternatively ``cache_mode="notify"`` subscribes ``notify0`` on
  the tree header so caches are invalidated eagerly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint, spread
from ..alloc.epoch import EpochReclaimer
from ..analysis.budget import far_budget
from ..fabric.client import Client
from ..fabric.errors import StaleCacheError
from ..fabric.wire import (
    U64_MASK,
    WORD,
    Layout,
    decode_u64,  # noqa: F401  (benchmarks/wallclock/tests/test_spans.py pins this binding)
    pack_words,
    unpack_words,
)
from ..notify.manager import NotificationManager
from ..notify.subscription import Subscription

HEADER = Layout("version leaf_count leaves")
LEAF = Layout("upper table version buckets")
TABLE = Layout("version split_lock")  # then buckets[bucket_count], one word each
ITEM = Layout("version key value next")
MOVED = U64_MASK
"""Tombstone version: this table's contents moved in a split."""


def hash_u64(key: int) -> int:
    """SplitMix64 finalizer: a fast, well-mixed stable hash for u64 keys."""
    z = (key + 0x9E3779B97F4A7C15) & U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64_MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class _Leaf:
    """One cached leaf: a key range mapped to a far hash table."""

    upper: int  # inclusive upper bound of the key range
    table: int  # far base address of the hash table
    version: int
    buckets: int

    def bucket_address(self, key: int) -> int:
        """Far address of the bucket word for ``key``."""
        index = hash_u64(key) % self.buckets
        return self.table + TABLE.size + index * WORD


@dataclass
class _Item:
    """A decoded 32-byte item record."""

    version: int
    key: int
    value: int
    next: int

    def encode(self) -> bytes:
        return ITEM.pack(self.version, self.key, self.value, self.next)


@dataclass
class _TreeCache:
    """A client's cached copy of the entire tree (section 5.2: "Clients
    cache the entire tree, but not the hash tables")."""

    version: int = -1
    region: int = 0
    uppers: list[int] = field(default_factory=list)
    leaves: list[_Leaf] = field(default_factory=list)
    valid: bool = False
    subscription: Optional[Subscription] = None

    def find_leaf(self, client: Client, key: int) -> _Leaf:
        """The leaf whose range holds ``key``; the walk of the cached tree
        is charged to ``client`` as near accesses."""
        client.touch_local(max(1, len(self.uppers).bit_length()))
        return self.leaves[bisect_left(self.uppers, key)]

    def size_bytes(self) -> int:
        """Client cache footprint — the section 5.2 scaling argument."""
        return len(self.leaves) * LEAF.size


@dataclass
class HTTreeStats:
    """Structure-level event counts (far accesses live in client metrics)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    chain_hops: int = 0
    stale_refreshes: int = 0
    cache_loads: int = 0
    cas_retries: int = 0
    splits: int = 0
    split_items_moved: int = 0
    notify_invalidations: int = 0
    scans: int = 0


class HTTree:
    """A far-memory ordered map: a client-cached range tree over far hash
    tables. Keys and values are 64-bit words (store far pointers for
    larger values)."""

    def __init__(
        self,
        allocator: FarAllocator,
        manager: NotificationManager,
        header: int,
        *,
        bucket_count: int,
        max_chain: int,
        cache_mode: str,
        reclaimer: "EpochReclaimer | None" = None,
    ) -> None:
        if cache_mode not in ("version", "notify"):
            raise ValueError("cache_mode must be 'version' or 'notify'")
        self.allocator = allocator
        self.manager = manager
        self.header = header
        self.bucket_count = bucket_count
        self.max_chain = max_chain
        self.cache_mode = cache_mode
        self.reclaimer = reclaimer
        self.stats = HTTreeStats()
        self._caches: dict[int, _TreeCache] = {}
        self._item_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        *,
        bucket_count: int = 1024,
        max_chain: int = 4,
        initial_leaves: int = 1,
        cache_mode: str = "version",
        hint: Optional[PlacementHint] = None,
        reclaimer: "EpochReclaimer | None" = None,
    ) -> "HTTree":
        """Allocate an empty HT-tree with ``initial_leaves`` key-range
        partitions, each backed by one hash table of ``bucket_count``
        buckets."""
        if bucket_count <= 0 or initial_leaves <= 0 or max_chain < 1:
            raise ValueError("bucket_count, initial_leaves, max_chain must be positive")
        header = allocator.alloc(HEADER.size, hint)
        tree = cls(
            allocator,
            manager,
            header,
            bucket_count=bucket_count,
            max_chain=max_chain,
            cache_mode=cache_mode,
            reclaimer=reclaimer,
        )
        leaves = []
        step = (U64_MASK // initial_leaves) + 1
        for i in range(initial_leaves):
            upper = U64_MASK if i == initial_leaves - 1 else (i + 1) * step - 1
            table = tree._create_table(version=1)
            leaves.append(_Leaf(upper=upper, table=table, version=1, buckets=bucket_count))
        tree._publish_tree(version=1, leaves=leaves)
        return tree

    @staticmethod
    def _table_hint() -> PlacementHint:
        # Section 7.1: independent hash tables spread across memory nodes
        # for parallelism; each table's buckets+chains stay co-located.
        return spread()

    def _create_table(self, version: int) -> int:
        # Also reached from _split -> _build_table with a live client, whose
        # metered write covers the bucket array only: the header and an
        # empty half's zeroes go uncharged (ROADMAP, Known defects).
        size = TABLE.size + self.bucket_count * WORD
        table = self.allocator.alloc(size, self._table_hint())
        self.allocator.provision(table, b"\x00" * size)
        self.allocator.provision(table, version)
        return table

    def _publish_tree(self, version: int, leaves: list[_Leaf]) -> None:
        """Serialize the leaves array and flip the header (``create()``
        only; a split publishes through its client)."""
        blob = self._encode_leaves(leaves)
        region = self.allocator.alloc(max(len(blob), WORD))
        self.allocator.provision(region, blob)
        self.allocator.provision(self.header, HEADER.pack(version, len(leaves), region))

    @staticmethod
    def _encode_leaves(leaves: list[_Leaf]) -> bytes:
        return b"".join(
            LEAF.pack(leaf.upper, leaf.table, leaf.version, leaf.buckets) for leaf in leaves
        )

    # ------------------------------------------------------------------
    # Client tree cache
    # ------------------------------------------------------------------

    def _cache(self, client: Client) -> _TreeCache:
        cache = self._caches.get(client.client_id)
        if cache is None:
            cache = _TreeCache()
            self._caches[client.client_id] = cache
            if self.cache_mode == "notify":
                cache.subscription = self.manager.notify0(client, self.header, WORD)
        if self.cache_mode == "notify":
            self._pump_invalidations(client, cache)
        if not cache.valid:
            self._load_cache(client, cache)
        return cache

    def _pump_invalidations(self, client: Client, cache: _TreeCache) -> None:
        if cache.subscription is None:
            return
        for n in client.poll_notifications():
            if n.sub_id == cache.subscription.sub_id:
                cache.valid = False
                self.stats.notify_invalidations += 1
            else:
                client.deliver(n)

    def _load_cache(self, client: Client, cache: _TreeCache) -> None:
        """Refresh the whole cached tree: two far accesses (header, leaves)."""
        version, count, region = HEADER.unpack(client.read(self.header, HEADER.size))
        raw = client.read(region, count * LEAF.size)
        leaves = [_Leaf(*words) for words in LEAF.iter_unpack(raw)]
        cache.version = version
        cache.region = region
        cache.leaves = leaves
        cache.uppers = [leaf.upper for leaf in leaves]
        cache.valid = True
        self.stats.cache_loads += 1

    def _stale_refresh(self, client: Client) -> None:
        self.stats.stale_refreshes += 1
        cache = self._caches[client.client_id]
        cache.valid = False
        self._load_cache(client, cache)

    @far_budget(0, ceiling=2, claim="C4")
    def cache_bytes(self, client: Client) -> int:
        """This client's tree-cache footprint in bytes (claim C4).
        Free with a warm cache; a cold cache loads the root (read +
        version check)."""
        return self._cache(client).size_bytes()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @far_budget(1, claim="C4", span="httree.get key")
    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: one far access on the fast path (fresh cache,
        chain length <= 1). Returns the value or None."""
        self._check_key(key)
        self.stats.lookups += 1
        return self._get(client, key, 0)

    def _get(self, client: Client, key: int, depth: int) -> Optional[int]:
        # A stale-cache retry recurses here, inside the caller's one span.
        if depth > 4:
            raise StaleCacheError("HT-tree cache failed to converge after refreshes")
        leaf = self._cache(client).find_leaf(client, key)
        raw = client.load0(leaf.bucket_address(key), ITEM.size).value
        item = _Item(*ITEM.unpack(raw))
        if item.version == 0:
            self.stats.misses += 1
            return None
        if item.version == MOVED or item.version != leaf.version:
            self._stale_refresh(client)
            return self._get(client, key, depth + 1)
        while True:
            if item.key == key:
                self.stats.hits += 1
                return item.value
            if item.next == 0:
                self.stats.misses += 1
                return None
            self.stats.chain_hops += 1
            item = _Item(*ITEM.unpack(client.read(item.next, ITEM.size)))

    @far_budget(1, per_item=True, claim="C4", span="httree.multiget n")
    def multiget(
        self, client: Client, keys: "list[int]"
    ) -> "list[Optional[int]]":
        """Pipelined lookup of many independent keys.

        Every key costs exactly what a sequential :meth:`get` costs — one
        bucket ``load0`` on the fast path, plus one read per collision-chain
        hop — but the accesses are posted as unsignaled submissions, so up
        to the client's QP depth of them overlap in one doorbell window
        (claim C4's one-far-access-per-lookup count is preserved
        bit-for-bit; only wall-clock changes). Chains are chased
        level-by-level so each hop round overlaps across keys too. Stale
        keys trigger one cache refresh per round, then retry together.
        Returns values aligned with ``keys`` (None for misses).
        """
        for key in keys:
            self._check_key(key)
        self.stats.lookups += len(keys)
        values: "list[Optional[int]]" = [None] * len(keys)
        pending = list(range(len(keys)))
        for _round in range(5):
            found, stale = self._probe_round(client, keys, pending)
            for pos, _leaf, _head, _addr, item, _chain_len in found:
                if item is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
                    values[pos] = item.value
            if not stale:
                return values
            self._stale_refresh(client)
            pending = stale
        raise StaleCacheError("HT-tree cache failed to converge after refreshes")

    def _probe_round(
        self, client: Client, keys: "list[int]", pending: "list[int]"
    ) -> tuple[list, list]:
        """One pipelined round over ``keys[pos]`` for each ``pos`` in
        ``pending``: the bucket ``load0``s posted in one window, then the
        chains chased level by level, one window per level.

        Returns ``(found, stale)``. ``found`` has one entry per resolved key,
        in resolution order — ``(pos, leaf, head, addr, item, chain_len)``:
        the record at ``addr`` holding the key, or ``item`` None when the
        ``chain_len`` records from ``head`` lack it. ``stale`` lists the
        positions whose bucket showed a stale cache.
        """
        cache = self._cache(client)
        probes = []
        for pos in pending:
            leaf = cache.find_leaf(client, keys[pos])
            bucket = leaf.bucket_address(keys[pos])
            probes.append((pos, leaf, client.submit("load0", bucket, ITEM.size, signaled=False)))
        stale: list[int] = []
        walks: list[tuple] = []  # (pos, leaf, head, addr, record at addr or None, chain_len)
        for pos, leaf, future in probes:
            result = future.result()
            item = _Item(*ITEM.unpack(result.value))
            if item.version == MOVED or item.version not in (0, leaf.version):
                stale.append(pos)
            else:
                probe = item if item.version != 0 else None
                walks.append((pos, leaf, result.pointer, result.pointer, probe, 0))
        # An empty bucket resolves at the first level, with the chains that
        # end there: multistore allocates its new records in this order.
        found: list[tuple] = []
        while walks:
            hops = []
            for pos, leaf, head, addr, probe, chain_len in walks:
                if probe is not None:
                    chain_len += 1
                    if probe.key != keys[pos]:
                        if probe.next != 0:
                            self.stats.chain_hops += 1
                            hop = client.submit("read", probe.next, ITEM.size, signaled=False)
                            hops.append((pos, leaf, head, probe.next, hop, chain_len))
                            continue
                        probe = None  # the chain ends without the key
                found.append((pos, leaf, head, addr, probe, chain_len))
            walks = [
                (pos, leaf, head, addr, _Item(*ITEM.unpack(hop.result())), chain_len)
                for pos, leaf, head, addr, hop, chain_len in hops
            ]
        return found, stale

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------

    @far_budget(2, claim="C4", span="httree.put key")
    def put(self, client: Client, key: int, value: int) -> None:
        """Insert or update ``key``: two far accesses to update an existing
        head-of-chain item; three to insert a new item (version-check read,
        record write, bucket CAS)."""
        return self._put(client, key, value, 0)

    def _put(self, client: Client, key: int, value: int, depth: int) -> None:
        self._check_key(key)
        if depth > 4:
            raise StaleCacheError("HT-tree cache failed to converge after refreshes")
        leaf = self._cache(client).find_leaf(client, key)
        bucket_addr = leaf.bucket_address(key)

        # Access 1: version check — read the bucket's head item (and the
        # bucket pointer itself, carried in the load0 response).
        result = client.load0(bucket_addr, ITEM.size)
        head_ptr = result.pointer
        item = _Item(*ITEM.unpack(result.value))

        if item.version == MOVED or (item.version not in (0, leaf.version)):
            self._stale_refresh(client)
            return self._put(client, key, value, depth + 1)

        # Walk the chain looking for an existing key (each hop: one read).
        chain_len = 0
        addr = head_ptr
        probe = item if item.version != 0 else None
        while probe is not None:
            chain_len += 1
            if probe.key == key:
                # Access 2: in-place value update.
                client.write_u64(addr + ITEM.offset["value"], value)
                self.stats.updates += 1
                return
            if probe.next == 0:
                break
            self.stats.chain_hops += 1
            addr = probe.next
            probe = _Item(*ITEM.unpack(client.read(addr, ITEM.size)))

        # New key: write the record, then CAS it in as the new chain head.
        record, new_item = self._new_record(leaf, key, value, head_ptr)
        client.write(record, new_item.encode())  # access 2
        client.fence()  # the record must be visible before the CAS lands
        while True:
            old, ok = client.cas(bucket_addr, new_item.next, record)  # access 3
            if ok:
                break
            # A concurrent insert won: re-link behind the new head.
            self.stats.cas_retries += 1
            new_item.next = old
            client.write_u64(record + ITEM.offset["next"], new_item.next)
        self.stats.inserts += 1
        self._item_count += 1

        if chain_len + 1 > self.max_chain:
            self._split(client, leaf)

    @far_budget(2, per_item=True, claim="C4", span="httree.multistore n")
    def multistore(
        self, client: Client, pairs: "list[tuple[int, int]]"
    ) -> None:
        """Pipelined insert/update of many independent ``(key, value)``
        pairs.

        Per-key far-access shapes match sequential :meth:`put` exactly
        when the keys hit distinct buckets (version-check ``load0``, chain
        hops, then either the in-place value write or record write + CAS);
        the pipeline only overlaps them, phase by phase. All new records
        share a single fence before their CASes. Two pairs contending for
        the same bucket resolve through the same CAS-retry path two
        concurrent clients would. Splits are deferred to the end and run
        sequentially.
        """
        keys = [key for key, _ in pairs]
        for key in keys:
            self._check_key(key)
        pending = list(range(len(pairs)))
        oversize: dict[int, _Leaf] = {}
        for _round in range(5):
            found, stale = self._probe_round(client, keys, pending)
            updates = [
                client.submit(
                    "write_u64", addr + ITEM.offset["value"], pairs[pos][1], signaled=False
                )
                for pos, _leaf, _head, addr, item, _chain_len in found
                if item is not None
            ]
            for future in updates:
                future.result()
            self.stats.updates += len(updates)
            # Inserts: overlapped record writes, one shared fence, then
            # overlapped CASes (with re-link rounds on contention).
            records: list[list] = []  # [pos, leaf, record, new item, chain_len]
            writes = []
            for pos, leaf, head, _addr, item, chain_len in found:
                if item is None:
                    record, new_item = self._new_record(leaf, keys[pos], pairs[pos][1], head)
                    records.append([pos, leaf, record, new_item, chain_len])
                    writes.append(client.submit("write", record, new_item.encode(), signaled=False))
            if records:
                client.fence()  # records visible before any CAS lands
            for future in writes:
                future.result()
            # Chain lengths were observed before any of this batch's
            # CASes landed; count this batch's own inserts per bucket so
            # chains grown *by the batch* still trigger splits, as they
            # would have sequentially.
            batch_growth: dict[int, int] = {}
            while records:
                cas_futures = [
                    (
                        entry,
                        client.submit(
                            "cas",
                            entry[1].bucket_address(keys[entry[0]]),
                            entry[3].next,
                            entry[2],
                            signaled=False,
                        ),
                    )
                    for entry in records
                ]
                relinks = []
                retry = []
                for entry, future in cas_futures:
                    old, ok = future.result()
                    if ok:
                        pos, leaf, _, _, chain_len = entry
                        self.stats.inserts += 1
                        self._item_count += 1
                        bucket = leaf.bucket_address(keys[pos])
                        grown = batch_growth.get(bucket, 0)
                        batch_growth[bucket] = grown + 1
                        if chain_len + grown + 1 > self.max_chain:
                            oversize[leaf.table] = leaf
                        continue
                    self.stats.cas_retries += 1
                    entry[3].next = old
                    relinks.append(
                        client.submit(
                            "write_u64", entry[2] + ITEM.offset["next"], old, signaled=False
                        )
                    )
                    retry.append(entry)
                for future in relinks:
                    future.result()
                records = retry
            if not stale:
                break
            self._stale_refresh(client)
            pending = stale
        else:
            raise StaleCacheError("HT-tree cache failed to converge after refreshes")
        for leaf in oversize.values():
            self._split(client, leaf)

    def _new_record(self, leaf: _Leaf, key: int, value: int, head: int) -> tuple[int, _Item]:
        """A record allocated near ``leaf``'s table for ``key`` as the new
        head of the chain at ``head``: ``(its address, its item)``."""
        record = self.allocator.alloc(ITEM.size, PlacementHint(near=leaf.table))
        return record, _Item(leaf.version, key, value, head)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    @far_budget(2, claim="C4", span="httree.delete key")
    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key``; True if it was present. Two far accesses when
        the key is the chain head (read + CAS unlink)."""
        return self._delete(client, key, 0)

    def _delete(self, client: Client, key: int, depth: int) -> bool:
        self._check_key(key)
        if depth > 4:
            raise StaleCacheError("HT-tree cache failed to converge after refreshes")
        leaf = self._cache(client).find_leaf(client, key)
        bucket_addr = leaf.bucket_address(key)

        result = client.load0(bucket_addr, ITEM.size)
        head_ptr = result.pointer
        item = _Item(*ITEM.unpack(result.value))
        if item.version == 0:
            return False
        if item.version == MOVED or item.version != leaf.version:
            self._stale_refresh(client)
            return self._delete(client, key, depth + 1)

        if item.key == key:
            _, ok = client.cas(bucket_addr, head_ptr, item.next)
            if not ok:
                self.stats.cas_retries += 1
                return self._delete(client, key, depth + 1)
            self._retire(head_ptr)
            self.stats.deletes += 1
            self._item_count -= 1
            return True

        prev_addr = head_ptr
        addr = item.next
        while addr != 0:
            self.stats.chain_hops += 1
            probe = _Item(*ITEM.unpack(client.read(addr, ITEM.size)))
            if probe.key == key:
                client.write_u64(prev_addr + ITEM.offset["next"], probe.next)
                self._retire(addr)
                self.stats.deletes += 1
                self._item_count -= 1
                return True
            prev_addr = addr
            addr = probe.next
        return False

    # ------------------------------------------------------------------
    # Range scan
    # ------------------------------------------------------------------

    @far_budget(None, claim="C4", span="httree.scan low high")
    def scan(self, client: Client, low: int, high: int) -> list[tuple[int, int]]:
        """All ``(key, value)`` pairs with ``low <= key <= high``, sorted.

        The tree's leaves partition the key space by range, so a scan
        touches only the tables whose ranges intersect ``[low, high]`` —
        but each touched table is read wholesale (one bucket-array read
        plus one gather per chain level) and filtered client-side: the
        HT-tree trades scan granularity for its O(1) point lookups.
        """
        return self._scan(client, low, high, 0)

    def _scan(self, client: Client, low: int, high: int, depth: int) -> list[tuple[int, int]]:
        self._check_key(low)
        self._check_key(high)
        if low > high:
            return []
        if depth > 4:
            raise StaleCacheError("HT-tree cache failed to converge after refreshes")
        cache = self._cache(client)
        results: list[tuple[int, int]] = []
        lower_bound = 0
        for leaf in cache.leaves:
            if leaf.upper < low:
                lower_bound = leaf.upper + 1
                continue
            if lower_bound > high:
                break
            items, _ = self._read_all_items(client, leaf)
            if any(item.version == MOVED for item in items):
                self._stale_refresh(client)
                return self._scan(client, low, high, depth + 1)
            for item in items:
                if item.version != leaf.version:
                    self._stale_refresh(client)
                    return self._scan(client, low, high, depth + 1)
                if low <= item.key <= high:
                    results.append((item.key, item.value))
            lower_bound = leaf.upper + 1
        results.sort()
        self.stats.scans += 1
        return results

    # ------------------------------------------------------------------
    # Split (section 5.2: "it is split and added to the tree, without
    # affecting the other hash tables")
    # ------------------------------------------------------------------

    def _split(self, client: Client, leaf: _Leaf) -> None:
        # Serialize splitters with the table's split lock.
        _, ok = client.cas(leaf.table + TABLE.offset["split_lock"], 0, client.client_id + 1)
        if not ok:
            return  # someone else is splitting this table

        # Re-read the tree under the lock: publishing a leaves array built
        # from a stale cache would silently revert another table's split.
        self._stale_refresh(client)
        cache = self._caches[client.client_id]
        current = next(
            (entry for entry in cache.leaves if entry.table == leaf.table), None
        )
        if current is None:
            # The table was already split out of the tree.
            client.write_u64(leaf.table + TABLE.offset["split_lock"], 0)
            return
        leaf = current

        items, old_records = self._read_all_items(client, leaf)
        if not items:
            client.write_u64(leaf.table + TABLE.offset["split_lock"], 0)
            return

        keys = sorted(item.key for item in items)
        median = keys[len(keys) // 2]
        lower_upper = max(median - 1, 0)
        if lower_upper >= leaf.upper or median == 0:
            # Degenerate key distribution: cannot split this range further.
            client.write_u64(leaf.table + TABLE.offset["split_lock"], 0)
            return

        # The cache was refreshed under the split lock, so its version is
        # the current published one.
        new_version = cache.version + 1
        low_table = self._build_table(
            client, [i for i in items if i.key <= lower_upper], new_version
        )
        high_table = self._build_table(
            client, [i for i in items if i.key > lower_upper], new_version
        )

        # Publish the new tree: fresh leaves array, then the header flip.
        new_leaves: list[_Leaf] = []
        for existing in cache.leaves:
            if existing.table != leaf.table:
                new_leaves.append(existing)
                continue
            new_leaves.append(
                _Leaf(lower_upper, low_table, new_version, self.bucket_count)
            )
            new_leaves.append(
                _Leaf(leaf.upper, high_table, new_version, self.bucket_count)
            )
        new_leaves.sort(key=lambda entry: entry.upper)
        blob = self._encode_leaves(new_leaves)
        region = self.allocator.alloc(len(blob))
        client.write(region, blob)
        client.fence()
        client.write(self.header, HEADER.pack(new_version, len(new_leaves), region))

        # Tombstone the old table: every bucket points at a MOVED record,
        # so stale caches detect the split in their single bucket access.
        tombstone = self.allocator.alloc(ITEM.size)
        client.write(tombstone, _Item(MOVED, 0, 0, 0).encode())
        client.write(leaf.table + TABLE.size, pack_words([tombstone] * self.bucket_count))
        client.write_u64(leaf.table, MOVED)

        # Release the (old, now-tombstoned) table's split lock for hygiene.
        client.write_u64(leaf.table + TABLE.offset["split_lock"], 0)

        # Retire everything the new tree superseded: the old table, its
        # item records, the previous leaves array, and (eventually) the
        # tombstone itself — all reclaimed once every participant has
        # quiesced past this epoch.
        self._retire(leaf.table)
        for record in old_records:
            self._retire(record)
        self._retire(cache.region)
        self._retire(tombstone)
        self.stats.splits += 1
        self.stats.split_items_moved += len(items)
        # The splitter's own cache is stale now; refresh it eagerly.
        self._stale_refresh(client)

    def _read_all_items(
        self, client: Client, leaf: _Leaf
    ) -> tuple[list[_Item], list[int]]:
        """Bulk-read a table's contents: one read for the bucket array,
        then one gather per chain level. Returns the decoded items and the
        far addresses of their (to-be-retired) records."""
        raw = client.read(leaf.table + TABLE.size, leaf.buckets * WORD)
        items: list[_Item] = []
        addresses: list[int] = []
        level = [p for p in unpack_words(raw) if p != 0]
        while level:
            gathered = client.rgather([(p, ITEM.size) for p in level])
            next_level = []
            for address, words in zip(level, ITEM.iter_unpack(gathered)):
                item = _Item(*words)
                items.append(item)
                addresses.append(address)
                if item.next != 0:
                    next_level.append(item.next)
            level = next_level
        return items, addresses

    def _build_table(self, client: Client, items: list[_Item], version: int) -> int:
        """Materialise a fresh table holding ``items``: records written
        with one scatter, buckets with one write.

        Records are individual allocations (co-located with the table) so
        that later deletes and splits can retire each one independently.
        """
        table = self._create_table(version)
        if not items:
            return table
        near_table = PlacementHint(near=table)
        records = [self.allocator.alloc(ITEM.size, near_table) for _ in items]
        buckets = [0] * self.bucket_count
        blobs: list[bytes] = []
        for addr, item in zip(records, items):
            index = hash_u64(item.key) % self.bucket_count
            linked = _Item(version, item.key, item.value, buckets[index])
            buckets[index] = addr
            blobs.append(linked.encode())
        client.wscatter([(addr, ITEM.size) for addr in records], b"".join(blobs))
        client.write(table + TABLE.size, pack_words(buckets))
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _retire(self, address: int) -> None:
        """Defer-free an unlinked block via the reclaimer, or leak it
        deliberately when no reclaimer was configured (safe, auditable via
        allocator stats, and what short-lived deployments do)."""
        if self.reclaimer is not None:
            self.reclaimer.retire(address)

    @staticmethod
    def _check_key(key: int) -> None:
        if not 0 <= key <= U64_MASK:
            raise ValueError("keys must be unsigned 64-bit integers")

    def __len__(self) -> int:
        return self._item_count

    def leaf_count(self) -> int:
        """Current number of leaves (hash tables) in the published tree."""
        fabric = self.allocator.fabric
        # fmlint: disable=FM003 (debug introspection)
        return fabric.read_word(self.header + HEADER.offset["leaf_count"])

    def __repr__(self) -> str:
        return (
            f"HTTree(items={self._item_count}, buckets/table={self.bucket_count}, "
            f"max_chain={self.max_chain}, cache_mode={self.cache_mode!r})"
        )
