"""The migration coordinator: live extent moves and elastic membership.

Like repair, migration is *client-driven* — far memory has no processor
(section 2), so a compute node streams the bytes through its own NIC and
pays for every round trip. The protocol per extent:

1. **Stage**: claim a free physical slot on the target node
   (:meth:`~repro.fabric.extent.ExtentTable.begin_migration`). The slot
   has no virtual address yet; nothing observes it.
2. **Copy**: pipelined rounds through the shared copy engine
   (:mod:`repro.migration.copy`) — virtual reads of the live extent,
   physical ``write_phys`` stages to the slot. Exactly
   ``2 * ceil(extent_size / chunk_bytes)`` charged far accesses per
   extent (:meth:`MigrationCoordinator.predicted_copy_accesses`).
   Concurrent writes keep landing at the old home; under ``FORWARD``
   the already-copied prefix is mirrored to the staging slot (§7.1
   forward hops, charged to the writer), under ``FENCE`` writers get
   :class:`~repro.fabric.errors.StaleEpochError` until commit.
3. **Commit**: one table update remaps the extent, bumps its epoch, and
   frees the old slot. Translation happens at the fabric boundary, so
   every client — and every watch, which is keyed on virtual pages —
   follows the move with zero involvement.

``drain_node`` migrates everything off a node then marks it drained;
``add_node`` (on :class:`~repro.cluster.Cluster` / the fabric) brings
headroom in. Together they are the elastic-membership story the static
placement could never provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..fabric.client import Client
from ..fabric.errors import AllocationError, FabricError, NodeUnavailableError
from ..fabric.extent import ExtentMigrationState, MigrationWritePolicy
from ..fabric.fabric import Fabric
from ..fabric.wire import WORD
from .copy import read_window, write_window

# Chunks one copy round moves: one read window, then one staging write
# window, of up to this many chunks each (DESIGN §12).
_CHUNKS_PER_ROUND = 16


@dataclass
class MigrationStats:
    """Cumulative coordinator telemetry (not part of client Metrics:
    copy round trips are charged to the driving client like any other
    far accesses; these counters attribute them to migration)."""

    extents_migrated: int = 0
    bytes_copied: int = 0
    copy_far_accesses: int = 0
    forwards: int = 0
    fences: int = 0
    aborts: int = 0


@dataclass
class DrainReport:
    """What one :meth:`MigrationCoordinator.drain_node` did."""

    node: int
    extents_moved: int = 0
    bytes_copied: int = 0
    moves: list[tuple[int, int]] = field(default_factory=list)  # (extent, dst)


class ExtentMigration:
    """One in-flight extent move, stepwise so callers can interleave
    foreground work (and so drains stay live under load)."""

    def __init__(
        self,
        coordinator: "MigrationCoordinator",
        client: Client,
        extent: int,
        state: ExtentMigrationState,
    ) -> None:
        self.coordinator = coordinator
        self.client = client
        self.extent = extent
        self.state = state

    def step(self) -> bool:
        """Copy one round of up to 16 chunks — a read window over the live
        virtual extent, then a staging write window. Returns True once
        the whole extent has been copied."""
        table = self.coordinator.fabric.extents
        es = table.extent_size
        if self.state.cursor >= es:
            return True
        chunk_bytes = self.coordinator.chunk_bytes
        base = self.extent * es
        spans: list[tuple[int, int]] = []
        cursor = self.state.cursor
        while len(spans) < _CHUNKS_PER_ROUND and cursor < es:
            length = min(chunk_bytes, es - cursor)
            spans.append((cursor, length))
            cursor += length
        datas = read_window(
            self.client, [(base + off, length) for off, length in spans]
        )
        write_window(
            self.client,
            "write_phys",
            [
                (self.state.dst_node, self.state.dst_slot * es + off, data)
                for (off, _), data in zip(spans, datas)
            ],
        )
        # The cursor advances only after the staged bytes landed, so the
        # FORWARD mirror window is never ahead of the actual copy.
        for _, length in spans:
            table.advance_migration(self.extent, length)
        nbytes = sum(length for _, length in spans)
        stats = self.coordinator.stats
        stats.bytes_copied += nbytes
        stats.copy_far_accesses += 2 * len(spans)
        if self.client.tracer is not None:
            self.client.tracer.emit(
                self.client,
                "extent_migrate",
                extent=self.extent,
                src_node=self.state.src_node,
                dst_node=self.state.dst_node,
                nbytes=nbytes,
                done=self.state.cursor,
                total=es,
            )
        return self.state.cursor >= es

    def finish(self) -> ExtentMigrationState:
        """Commit the remap (requires the copy to be complete)."""
        table = self.coordinator.fabric.extents
        state = table.commit_migration(self.extent)
        stats = self.coordinator.stats
        stats.extents_migrated += 1
        stats.forwards += state.forwards
        stats.fences += state.fences
        if self.client.tracer is not None:
            self.client.tracer.emit(
                self.client,
                "remap",
                extent=self.extent,
                src_node=state.src_node,
                dst_node=state.dst_node,
                epoch=table.epoch_of(self.extent),
            )
        return state

    def abort(self) -> ExtentMigrationState:
        """Abandon the move: release the staging slot, keep the source."""
        self.coordinator.stats.aborts += 1
        return self.coordinator.fabric.extents.abort_migration(self.extent)

    def run(
        self, interleave: Optional[Callable[[], None]] = None
    ) -> ExtentMigrationState:
        """Copy to completion and commit. ``interleave()`` runs between
        rounds — the hook the soak/bench use to keep writers writing
        *during* the copy. A fabric error out of a round (a copy window
        that exhausted its retry budget) aborts the move before it
        propagates: staging slot released, mirror window closed, source
        untouched — so the caller can simply migrate the extent again."""
        try:
            while not self.step():
                if interleave is not None:
                    interleave()
        except FabricError:
            self.abort()
            raise
        return self.finish()


class MigrationCoordinator:
    """Plans and executes live extent migrations against one fabric."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        chunk_bytes: int = 4096,
    ) -> None:
        if chunk_bytes < WORD or chunk_bytes % WORD != 0:
            raise ValueError(f"chunk_bytes must be a positive multiple of {WORD}")
        self.fabric = fabric
        self.chunk_bytes = chunk_bytes
        self.stats = MigrationStats()

    def predicted_copy_accesses(self, extents: int = 1) -> int:
        """Exact charged far accesses to copy ``extents`` extents: one
        read + one staging write per chunk, nothing else."""
        es = self.fabric.extents.extent_size
        per_extent = 2 * ((es + self.chunk_bytes - 1) // self.chunk_bytes)
        return extents * per_extent

    def pick_target(
        self,
        extent: int,
        *,
        exclude: Iterable[int] = (),
        allow_sibling_fallback: bool = False,
    ) -> int:
        """Least-loaded eligible node for ``extent``: alive, not drained,
        with a free slot, not the current home, and not holding a sibling
        replica of any region the extent belongs to (fault-domain
        separation). With ``allow_sibling_fallback`` the sibling rule is
        relaxed — but only when no separated target exists at all."""
        table = self.fabric.extents
        src = table.node_of(table.extent_base(extent))
        avoid = set(exclude) | {src}
        siblings = table.sibling_replica_nodes(extent)
        for strict in (True, False):
            if not strict and not allow_sibling_fallback:
                break
            candidates = [
                node
                for node in range(self.fabric.node_count)
                if node not in avoid
                and (not strict or node not in siblings)
                and self.fabric.node_available(node)
                and not table.is_drained(node)
                and table.free_slot_count(node) > 0
            ]
            if candidates:
                return min(
                    candidates, key=lambda n: (len(table.extents_on_node(n)), n)
                )
        raise AllocationError(f"no eligible migration target for extent {extent}")

    def begin(
        self,
        client: Client,
        extent: int,
        dst_node: Optional[int] = None,
        *,
        policy: Optional[MigrationWritePolicy] = None,
    ) -> ExtentMigration:
        """Stage a migration (writers follow ``policy``, ``FORWARD`` unless
        given); returns the stepwise handle."""
        if dst_node is None:
            dst_node = self.pick_target(extent)
        state = self.fabric.extents.begin_migration(
            extent, dst_node, policy or MigrationWritePolicy.FORWARD
        )
        return ExtentMigration(self, client, extent, state)

    def migrate_extent(
        self,
        client: Client,
        extent: int,
        dst_node: Optional[int] = None,
        *,
        policy: Optional[MigrationWritePolicy] = None,
        interleave: Optional[Callable[[], None]] = None,
    ) -> ExtentMigrationState:
        """Move one extent end-to-end; returns the committed state."""
        with client.trace("migration.extent", extent=extent):
            return self.begin(client, extent, dst_node, policy=policy).run(interleave)

    def drain_node(
        self,
        client: Client,
        node: int,
        *,
        policy: Optional[MigrationWritePolicy] = None,
        interleave: Optional[Callable[[], None]] = None,
    ) -> DrainReport:
        """Live-migrate every extent off ``node``, then mark it drained.

        The source must be alive (a *dead* node is repair's problem — it
        has no readable bytes; drain is planned decommissioning).
        Workloads keep running throughout: ``interleave()`` fires between
        copy rounds, and writers follow the policy (forwarded or fenced,
        never lost).

        Resumable by re-calling: a :class:`FabricError` out of a copy
        round leaves no extent mid-migration (see
        :meth:`ExtentMigration.run`), the extents already moved stay
        moved, and the next call recomputes what is still on ``node``.
        """
        table = self.fabric.extents
        if not self.fabric.node_available(node):
            raise NodeUnavailableError(node, 0)
        report = DrainReport(node=node)
        with client.trace("migration.drain", node=node):
            for extent in table.extents_on_node(node):
                dst = self.pick_target(
                    extent, exclude={node}, allow_sibling_fallback=True
                )
                state = self.begin(client, extent, dst, policy=policy).run(interleave)
                report.extents_moved += 1
                report.bytes_copied += table.extent_size
                report.moves.append((extent, state.dst_node))
            table.mark_drained(node)
            if client.tracer is not None:
                client.tracer.emit(
                    client,
                    "drain",
                    node=node,
                    extents_moved=report.extents_moved,
                    bytes_copied=report.bytes_copied,
                )
        return report
