"""Crash-stop repair: re-replication with epoch fencing.

A failed memory node (``Fabric.fail_node``) leaves every
:class:`~repro.fabric.replication.ReplicatedRegion` that kept a copy there
one fault domain short: reads fail over and survive, but redundancy is
gone until someone rebuilds the lost replica. With no memory-side
processor, that someone is a *client* — this module is the client-driven
repair protocol the paper's availability argument (section 2) needs to
actually hold over time.

The protocol, per degraded region:

1. **Pick a spare**: the first available node holding none of the
   region's replicas. No spare → :class:`~repro.fabric.errors.AllocationError`
   (redundancy cannot be restored; the caller must know).
2. **Stream-copy** a surviving replica onto the spare through the
   pipelined submission path (``client.batch()`` + unsignaled submits),
   ``chunk_blocks`` frames per window. The copy is *verified*: each source
   frame is checksum-checked in near memory, and a corrupt source block
   is healed by :meth:`~repro.fabric.client.Client.read_verified` against
   the remaining replicas (+1 far access per verify-miss) — repair never
   propagates rot. Cost: one read + one write per block, so
   ``2 * block_count`` far accesses plus one per verify-miss.
3. **Fence**: atomically bump the region's far *epoch word*
   (``faa``, +1 far access). Writers check the word before every
   replicated write; a client still holding the pre-repair replica map
   gets :class:`~repro.fabric.errors.StaleEpochError` instead of
   silently writing to memory that is no longer part of the region
   (or skipping the rebuilt copy). :meth:`ReplicatedRegion.rejoin`
   re-reads the epoch and adopts the coordinator's current map.

The fence is also the protocol's publication point: the ``faa`` releases
the coordinator's copy writes, and a writer's fence *read* acquires them
— so any write admitted under the new epoch is ordered after the rebuilt
replica's contents (the offline race detector sees this chain through
the epoch word).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..fabric.client import Client
from ..fabric.errors import AllocationError, FabricError, NodeUnavailableError
from ..fabric.integrity import frame_block, frame_size, try_unframe
from ..fabric.replication import ReplicatedRegion
from ..migration.copy import read_window, write_window

if TYPE_CHECKING:  # pragma: no cover - avoids a package-init import cycle
    from ..alloc import FarAllocator


@dataclass
class RepairReport:
    """What one :meth:`RepairCoordinator.run` pass did."""

    regions_scanned: int = 0
    replicas_rebuilt: int = 0
    blocks_copied: int = 0
    bytes_copied: int = 0
    source_verify_misses: int = 0
    # (region_id, dead_node, spare_node) per rebuilt replica.
    rebuilt: list[tuple[int, int, int]] = field(default_factory=list)


class RepairCoordinator:
    """Registers replicated regions and rebuilds their lost replicas.

    One coordinator per deployment (it owns the region→epoch-word map).
    Registration allocates each region a far epoch word initialised to 1;
    the region object fences its writes on it from then on. After a node
    failure, ``run(client, dead_node)`` restores full replication for
    every registered region that kept a copy there.

    ``home_node`` places the epoch words. Like any metadata service, the
    protocol assumes *that* node outlives the failures it fences — point
    it away from the nodes under test (the default allocator placement
    lands on node 0, which is usually the first node experiments kill).
    Replicating the fence word itself would need consensus, which
    memory-side hardware cannot provide (section 2).
    """

    def __init__(
        self,
        allocator: "FarAllocator",
        *,
        home_node: Optional[int] = None,
        chunk_blocks: int = 16,
    ) -> None:
        if chunk_blocks < 1:
            raise ValueError("chunk_blocks must be at least 1")
        self.allocator = allocator
        self.home_node = home_node
        self.chunk_blocks = chunk_blocks
        self._regions: dict[int, ReplicatedRegion] = {}
        self._next_region_id = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, client: Client, region: ReplicatedRegion) -> int:
        """Adopt ``region``: allocate its epoch word (one far access to
        initialise it to 1) and switch its writes to fenced mode."""
        if region.epoch_addr is not None:
            raise ValueError("region is already registered with a coordinator")
        from ..alloc import on_node  # deferred: avoids the import cycle

        hint = on_node(self.home_node) if self.home_node is not None else None
        epoch_addr = self.allocator.alloc_words(1, hint)
        client.write_u64(epoch_addr, 1)
        region_id = self._next_region_id
        self._next_region_id += 1
        region.epoch_addr = epoch_addr
        region.epoch = 1
        region.region_id = region_id
        region.coordinator = self
        self._regions[region_id] = region
        # Tell the extent table which extents hold this region's replicas,
        # so live migration never co-locates two fault domains.
        extents = self.allocator.fabric.extents
        for base in region.replicas:
            extents.annotate_replicas(region_id, base, region.size)
        return region_id

    def current_replicas(self, region_id: int) -> tuple[int, ...]:
        """The authoritative replica map (what ``rejoin`` adopts)."""
        return tuple(self._regions[region_id].replicas)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def run(self, client: Client, dead_node: int) -> RepairReport:
        """Rebuild, onto spares, every registered replica that lived on
        ``dead_node``. Idempotent: regions with no copy there are
        untouched (and pay nothing). Resumable by re-calling: a typed
        fabric error aborts the rebuild in flight with the region's map,
        its epoch word and the allocator as they were before it, and
        regions already rebuilt are skipped next time."""
        fabric = self.allocator.fabric
        report = RepairReport()
        with client.trace("repair.rebuild", dead_node=dead_node):
            for region in self._regions.values():
                report.regions_scanned += 1
                for index, base in enumerate(region.replicas):
                    if fabric.node_of(base) == dead_node:
                        self._rebuild(client, region, index, report)
                        break  # one replica per node by construction
        return report

    def _pick_spare(self, region: ReplicatedRegion, dead_node: int) -> int:
        fabric = self.allocator.fabric
        occupied = {fabric.node_of(base) for base in region.replicas}
        for node in range(fabric.node_count):
            if node == dead_node or node in occupied:
                continue
            if fabric.node_available(node) and not fabric.extents.is_drained(node):
                return node
        raise AllocationError(
            region.size,
            f"no spare node for region {region.region_id}: every available "
            f"node already holds a replica",
        )

    def _rebuild(
        self,
        client: Client,
        region: ReplicatedRegion,
        dead_index: int,
        report: RepairReport,
    ) -> None:
        from ..alloc import on_node  # deferred: avoids the import cycle

        fabric = self.allocator.fabric
        dead_base = region.replicas[dead_index]
        dead_node = fabric.node_of(dead_base)
        survivors = [
            base
            for i, base in enumerate(region.replicas)
            if i != dead_index and fabric.node_available(fabric.node_of(base))
        ]
        if not survivors:
            # Every copy is gone: surface data loss loudly, never "repair"
            # by inventing bytes.
            raise NodeUnavailableError(
                dead_node,
                dead_base,
            )
        spare_node = self._pick_spare(region, dead_node)
        new_base = self.allocator.alloc(region.size, on_node(spare_node))
        try:
            self._copy(client, region, survivors, new_base, dead_node, spare_node, report)
            # Publish: bump the epoch, then swap the map entry. The faa is
            # the release point — any writer fenced under the new epoch
            # observes a fully-copied replica — and the last step that can
            # fail, so nothing local has changed when it does.
            old = client.faa(region.epoch_addr, 1)
        except FabricError:
            # Abort this rebuild; only the spare allocation has to be
            # undone for run() to start it over cleanly.
            self.allocator.free(new_base)
            raise
        region.replicas[dead_index] = new_base
        fabric.extents.clear_replicas(region.region_id, dead_base, region.size)
        fabric.extents.annotate_replicas(region.region_id, new_base, region.size)
        region.epoch = old + 1
        report.replicas_rebuilt += 1
        report.rebuilt.append((region.region_id, dead_node, spare_node))
        # The dead copy's address range goes back to the allocator: its
        # metadata is client-side, and the region no longer references it.
        self.allocator.free(dead_base)

    def _copy(
        self,
        client: Client,
        region: ReplicatedRegion,
        survivors: list[int],
        new_base: int,
        dead_node: int,
        spare_node: int,
        report: RepairReport,
    ) -> None:
        """Stream verified frames from the first survivor to the spare,
        ``chunk_blocks`` at a time through one overlap window each way."""
        fsize = frame_size(region.block_payload)
        source = survivors[0]
        fallbacks = survivors[1:]
        total = region.block_count
        done = 0
        while done < total:
            count = min(self.chunk_blocks, total - done)
            offsets = [(done + i) * fsize for i in range(count)]
            frames = read_window(client, [(source + off, fsize) for off in offsets])
            out: list[bytes] = []
            for off, frame in zip(offsets, frames):
                if try_unframe(frame) is not None:
                    out.append(frame)
                    continue
                # Source copy is rotten: heal from the remaining replicas
                # (the verified read re-charges the source read, so the
                # verify-miss costs exactly one extra far access).
                report.source_verify_misses += 1
                targets = [base + off for base in fallbacks] or [source + off]
                version, payload = client.read_verified(
                    targets[0], region.block_payload, fallback=tuple(targets[1:])
                )
                out.append(frame_block(payload, version))
            write_window(
                client, "write", [(new_base + off, frame) for off, frame in zip(offsets, out)]
            )
            done += count
            nbytes = sum(len(frame) for frame in out)
            report.blocks_copied += count
            report.bytes_copied += nbytes
            if client.tracer is not None:
                client.tracer.emit(
                    client,
                    "repair_copy",
                    region=region.region_id,
                    dead_node=dead_node,
                    spare_node=spare_node,
                    blocks=count,
                    nbytes=nbytes,
                    done=done,
                    total=total,
                )
