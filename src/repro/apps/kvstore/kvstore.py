"""A far-memory key-value store service, composed end to end.

The monitoring and parameter-server apps each exercise one structure;
this app composes most of the library into the service the paper's
introduction motivates ("developers often use memory through high-level
data structures"):

* an **HT-tree** index and **blob store** hold string keys and byte
  values entirely in far memory;
* a **registry** entry makes the store discoverable by name, so any
  client can :meth:`FarKVStore.open` it without out-of-band coordination;
* per-store **statistics counters** live in far memory too (every client
  sees the same numbers);
* an optional **epoch reclaimer** recycles replaced values;
* each operation's ``@far_budget`` opens its trace span (``put``,
  ``get``, ...), so a tracer's summary is the per-operation far-access
  ledger.

String keys are hashed to u64 for the index; the blob stores the full
key alongside the value, so hash collisions are detected (and surfaced
as an explicit error, with the same 2-far-access fast path when absent).
Blob layout: ``key_len | key bytes | value bytes`` inside the store's
length-prefixed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...alloc.epoch import EpochReclaimer
from ...analysis.budget import far_budget
from ...cluster import Cluster
from ...core.blob import BLOB, FarBlobStore, pack_blob
from ...core.counter import FarCounter
from ...core.ht_tree import HTTree
from ...core.registry import FarRegistry, RegistryError, name_hash
from ...fabric.client import Client
from ...fabric.errors import FabricError
from ...fabric.wire import Layout

KIND_KVSTORE = 100
DESCRIPTOR = Layout("tree_header bucket_count max_chain ops_counter")
"""The registry payload a store is published under (and attached from)."""


class KeyCollisionError(FabricError):
    """Two distinct string keys hashed to the same 64-bit index key."""


@dataclass
class FarKVStore:
    """A named, shareable far-memory KV store (string -> bytes)."""

    index: HTTree
    blobs: FarBlobStore
    ops_counter: FarCounter

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        cluster: Cluster,
        registry: FarRegistry,
        client: Client,
        name: str,
        *,
        bucket_count: int = 4096,
        reclaimer: Optional[EpochReclaimer] = None,
    ) -> "FarKVStore":
        """Provision a store and publish it in the registry."""
        index = cluster.ht_tree(bucket_count=bucket_count, reclaimer=reclaimer)
        blobs = FarBlobStore.create(cluster.allocator, index, reclaimer=reclaimer)
        ops = FarCounter.create(cluster.allocator)
        payload = DESCRIPTOR.pack(
            index.header, index.bucket_count, index.max_chain, ops.address
        )
        registry.register(client, name, KIND_KVSTORE, payload)
        return cls(index=index, blobs=blobs, ops_counter=ops)

    @classmethod
    def open(
        cls,
        cluster: Cluster,
        registry: FarRegistry,
        client: Client,
        name: str,
        *,
        reclaimer: Optional[EpochReclaimer] = None,
    ) -> "FarKVStore":
        """Attach to a published store by name."""
        found = registry.lookup(client, name)
        if found is None:
            raise RegistryError(f"no KV store named {name!r}")
        kind, payload = found
        if kind != KIND_KVSTORE:
            raise RegistryError(f"{name!r} is not a KV store (kind {kind})")
        header, bucket_count, max_chain, ops_counter = DESCRIPTOR.unpack(payload)
        index = HTTree(
            cluster.allocator,
            cluster.notifications,
            header,
            bucket_count=bucket_count,
            max_chain=max_chain,
            cache_mode="version",
            reclaimer=reclaimer,
        )
        blobs = FarBlobStore.create(cluster.allocator, index, reclaimer=reclaimer)
        return cls(
            index=index,
            blobs=blobs,
            ops_counter=FarCounter.attach(ops_counter),
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @staticmethod
    def _pack(key: str, value: bytes) -> bytes:
        key_bytes = key.encode("utf-8")
        return pack_blob(key_bytes) + value

    @staticmethod
    def _value_of(key: str, raw: Optional[bytes]) -> Optional[bytes]:
        """The value in ``raw``, the blob stored at ``key``'s index slot (None
        when there is none); raises when the blob belongs to another key."""
        if raw is None:
            return None
        (key_len,) = BLOB.unpack_from(raw)
        value_at = BLOB.size + key_len
        stored_key = raw[BLOB.size : value_at].decode("utf-8")
        if stored_key != key:
            raise KeyCollisionError(f"{key!r} collides with {stored_key!r} in the index")
        return raw[value_at:]

    @far_budget(None, claim="C4", span="put")
    def put(self, client: Client, key: str, value: bytes) -> None:
        """Store ``value`` under ``key``."""
        index_key = name_hash(key)
        self._value_of(key, self.blobs.get(client, index_key))
        self.blobs.put(client, index_key, self._pack(key, value))
        self.ops_counter.increment(client)

    @far_budget(2, claim="C4", span="get")
    def get(self, client: Client, key: str) -> Optional[bytes]:
        """Fetch the value for ``key``, or None."""
        return self._value_of(key, self.blobs.get(client, name_hash(key)))

    @far_budget(None, claim="C4", span="delete")
    def delete(self, client: Client, key: str) -> bool:
        """Remove ``key``; True if it existed."""
        index_key = name_hash(key)
        if self._value_of(key, self.blobs.get(client, index_key)) is None:
            return False
        removed = self.blobs.delete(client, index_key)
        if removed:
            self.ops_counter.increment(client)
        return removed

    @far_budget(2, per_item=True, claim="C4", span="multiget")
    def multiget(
        self, client: Client, keys: "list[str]"
    ) -> "list[Optional[bytes]]":
        """Fetch many keys with lookups and blob reads pipelined
        (:meth:`FarBlobStore.multiget`): per-key far accesses match
        :meth:`get`; the round trips overlap up to the client's QP depth."""
        raws = self.blobs.multiget(client, [name_hash(key) for key in keys])
        return [self._value_of(key, raw) for key, raw in zip(keys, raws)]

    @far_budget(None, claim="C4", span="multiput")
    def multiput(self, client: Client, items: "dict[str, bytes]") -> None:
        """Store many pairs: collision checks, blob writes (one shared
        fence), and index upserts each run as one pipelined stage; the
        operations counter takes one atomic add for the whole batch."""
        pairs = list(items.items())
        hashes = [name_hash(key) for key, _ in pairs]
        existing = self.blobs.multiget(client, hashes)
        for (key, _), raw in zip(pairs, existing):
            self._value_of(key, raw)
        self.blobs.multiput(
            client,
            [
                (index_key, self._pack(key, value))
                for index_key, (key, value) in zip(hashes, pairs)
            ],
        )
        if pairs:
            self.ops_counter.add(client, len(pairs))

    # ------------------------------------------------------------------
    # Transactional operations (repro.txn; DESIGN.md §15)
    #
    # These compose the store with a TxnSpace: reads join the
    # transaction's read set (keyed by slot_for_key(txn_tag, hash)),
    # writes buffer a blob region immediately (unreachable until the
    # index pointer flips at commit write-back) and defer the index
    # upsert to TxnSpace.commit. They bypass the ops_counter, which
    # counts the non-transactional API; replaced regions are not
    # retired (the old pointer stays valid until the commit lands).
    # ------------------------------------------------------------------

    @property
    def txn_tag(self) -> int:
        """Stable identity of this store across clients (the index
        header address, the same word the registry publishes) — keys
        transactional KV slots and names the store in commit records."""
        return self.index.header

    @far_budget(0, claim="C4")
    def txn_get(self, client: Client, space, txn, key: str) -> Optional[bytes]:
        """Transactional :meth:`get`: buffered puts are returned
        directly (read-your-writes, no far access); otherwise the
        regular lookup plus the guarding slot's tracking FAA."""
        from ...fabric.errors import StaleEpochError
        from ...txn import TxnAbortError

        key_hash = name_hash(key)
        buffered = txn.kv_puts.get((self.txn_tag, key_hash))
        if buffered is not None:
            return buffered.value
        try:
            value = self.get(client, key)
            # The FAA lands after the lookup reads so it releases them
            # into the version word; a mismatch with an earlier snapshot
            # of the slot aborts inside track_slot.
            space.track_slot(
                client, txn, space.slot_for_key(self.txn_tag, key_hash)
            )
        except StaleEpochError as err:
            space.abort(client, txn, reason="stale_epoch")
            raise TxnAbortError("stale_epoch") from err
        return value

    @far_budget(None, claim="C4")
    def txn_multiput(self, client: Client, space, txn, items) -> None:
        """Buffer transactional puts: per pair, one collision-checking
        :meth:`txn_get` (which also claims the write slot) and one
        eagerly written, unreachable blob region. The index pointers
        flip atomically at commit; an abort frees the regions."""
        pending = []
        for key, value in items:
            value = bytes(value)
            self.txn_get(client, space, txn, key)
            key_hash = name_hash(key)
            data = self._pack(key, value)
            region = self.blobs.allocator.alloc(BLOB.size + max(len(data), 1))
            pending.append(client.submit("write", region, pack_blob(data), signaled=False))
            txn.buffer_kv(
                store=self,
                key=key,
                key_hash=key_hash,
                value=value,
                region=region,
                slot=space.slot_for_key(self.txn_tag, key_hash),
            )
        for fut in pending:
            fut.result()

    @far_budget(1, claim="C4")
    def contains(self, client: Client, key: str) -> bool:
        """Membership test (one index lookup)."""
        return self.index.get(client, name_hash(key)) is not None

    @far_budget(1, ceiling=1)
    def total_operations(self, client: Client) -> int:
        """Mutations applied store-wide, by any client (one far access)."""
        return self.ops_counter.read(client)
