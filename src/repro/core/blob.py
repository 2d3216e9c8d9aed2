"""Far blob store: variable-size values over the HT-tree.

The section 5 structures move 64-bit words; real applications also store
"very large keys or values" (section 7.1). The far-memory idiom is
indirection: the HT-tree maps a key to the address of a *blob region*
(``length | payload``), allocated with whatever locality hint fits.

Costs (warm tree cache):

* ``get`` — tree lookup (1) + blob read (1) = **2 far accesses** for blobs
  up to ``INLINE`` (248) bytes; one extra read for larger blobs (the first
  read learns the length).
* ``put`` — blob write (1) + tree upsert (2-3) + replaced-region lookup.
* ``delete`` — tree ops + region retirement (via the epoch reclaimer when
  configured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..alloc.epoch import EpochReclaimer
from ..fabric.client import Client
from ..fabric.wire import Layout
from .ht_tree import HTTree

BLOB = Layout("length")  # then ``length`` payload bytes
#: Payload bytes the first read of a blob fetches with its length word.
INLINE = 248


def pack_blob(data: bytes) -> bytes:
    """``data`` behind its length word: the one far-blob format, shared by
    the blob store, the registry's payloads and the KV store's records."""
    return BLOB.pack(len(data)) + data


@dataclass
class BlobStats:
    """Overflow-read accounting."""

    overflow_reads: int = 0


@dataclass
class FarBlobStore:
    """Keyed variable-size values in far memory."""

    index: HTTree
    allocator: FarAllocator
    reclaimer: Optional[EpochReclaimer] = None
    stats: BlobStats = field(default_factory=BlobStats)

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        index: HTTree,
        *,
        reclaimer: Optional[EpochReclaimer] = None,
    ) -> "FarBlobStore":
        """Build a store over an (empty or shared) HT-tree index."""
        return cls(index=index, allocator=allocator, reclaimer=reclaimer)

    def _retire(self, region: int) -> None:
        if self.reclaimer is not None:
            self.reclaimer.retire(region)

    def put(
        self,
        client: Client,
        key: int,
        data: bytes,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> None:
        """Store ``data`` under ``key``, replacing any previous blob."""
        old_region = self.index.get(client, key)
        region = self.allocator.alloc(BLOB.size + max(len(data), 1), hint)
        client.write(region, pack_blob(data))
        client.fence()  # the blob must be durable before it is reachable
        self.index.put(client, key, region)
        if old_region is not None:
            self._retire(old_region)

    def get(self, client: Client, key: int) -> Optional[bytes]:
        """Fetch the blob for ``key``, or None."""
        region = self.index.get(client, key)
        if region is None:
            return None
        first = client.read(region, BLOB.size + INLINE)
        (length,) = BLOB.unpack_from(first)
        if length <= INLINE:
            return first[BLOB.size : BLOB.size + length]
        # Large blob: one more read for the tail the hint missed.
        self.stats.overflow_reads += 1
        rest = client.read(region + BLOB.size + INLINE, length - INLINE)
        return first[BLOB.size :] + rest

    def multiget(
        self, client: Client, keys: "list[int]"
    ) -> "list[Optional[bytes]]":
        """Fetch many blobs with every stage pipelined: one
        :meth:`HTTree.multiget` for the regions, then the first reads
        overlapped, then the overflow tail reads overlapped. Per-key far
        accesses match :meth:`get` exactly."""
        regions = self.index.multiget(client, keys)
        firsts = []
        for i, region in enumerate(regions):
            if region is None:
                continue
            firsts.append(
                (
                    i,
                    region,
                    client.submit("read", region, BLOB.size + INLINE, signaled=False),
                )
            )
        out: "list[Optional[bytes]]" = [None] * len(keys)
        overflow = []
        for i, region, future in firsts:
            first = future.result()
            (length,) = BLOB.unpack_from(first)
            if length <= INLINE:
                out[i] = first[BLOB.size : BLOB.size + length]
            else:
                self.stats.overflow_reads += 1
                overflow.append(
                    (
                        i,
                        first,
                        client.submit(
                            "read",
                            region + BLOB.size + INLINE,
                            length - INLINE,
                            signaled=False,
                        ),
                    )
                )
        for i, first, future in overflow:
            out[i] = first[BLOB.size :] + future.result()
        return out

    def multiput(
        self,
        client: Client,
        items: "list[tuple[int, bytes]]",
        *,
        hint: Optional[PlacementHint] = None,
    ) -> None:
        """Store many blobs: replaced-region lookups via
        :meth:`HTTree.multiget`, region writes overlapped behind a single
        fence, then one :meth:`HTTree.multistore` for the index."""
        old_regions = self.index.multiget(client, [key for key, _ in items])
        writes = []
        pairs: "list[tuple[int, int]]" = []
        for key, data in items:
            region = self.allocator.alloc(BLOB.size + max(len(data), 1), hint)
            writes.append(
                client.submit("write", region, pack_blob(data), signaled=False)
            )
            pairs.append((key, region))
        if pairs:
            client.fence()  # blobs must be durable before they are reachable
        for future in writes:
            future.result()
        self.index.multistore(client, pairs)
        for old_region in old_regions:
            if old_region is not None:
                self._retire(old_region)

    def length(self, client: Client, key: int) -> Optional[int]:
        """Size of the stored blob (2 far accesses), or None."""
        region = self.index.get(client, key)
        if region is None:
            return None
        return client.read_u64(region)

    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key`` and retire its region; True if it existed."""
        region = self.index.get(client, key)
        if region is None:
            return False
        self.index.delete(client, key)
        self._retire(region)
        return True
