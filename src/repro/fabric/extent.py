"""Virtual far address space: the per-fabric extent table.

Global addresses are *virtual*. The fabric translates them extent-by-extent
to ``(node, offset)`` at its boundary, the way a NIC-side page table would
(section 7.1 discusses placement; Storm-style designs show the dataplane
must survive reconfiguration). The table is the **only** address map: at
construction it materialises one flat ``extent -> (node, slot)`` store and
its inverse from the seed formula of its initial layout
(:class:`~repro.fabric.address.RangePlacement` or
:class:`~repro.fabric.address.InterleavedPlacement`), growing the address
space appends to it and a committed migration overwrites one entry. Every
lookup is one walk over that store with one bounds check, whether or not
anything has moved, so a range's segment count never depends on unrelated
extents.

Translation is free. The table is consulted on the memory side of the
interconnect (the NIC's address-translation unit), so no extra round trip
or traversal is ever charged for it; what *is* charged is every copy
round trip a live migration performs, via the ordinary client data path.

Writes that land on an extent mid-migration follow one of two policies:

* ``FORWARD`` (default, section 7.1 style) — the write applies at the old
  home and the already-copied prefix is mirrored to the new home, one
  forward hop per mirrored range. Never lost, never fenced.
* ``FENCE`` — the write is refused with
  :class:`~repro.fabric.errors.StaleEpochError` *before any byte moves*,
  mirroring the repair fence of PR 5; the writer retries after the remap
  commits and the extent epoch has advanced.
"""

from __future__ import annotations

import enum
from array import array
from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .address import Location, Placement
from .errors import AddressError, AllocationError, StaleEpochError
from .wire import WORD

DEFAULT_EXTENT_SIZE = 256 << 10
"""Preferred extent granularity (bytes); shrunk to divide the node size."""

FREE = -1
"""Inverse-store entry of a physical slot no extent maps to."""

STAGING = -2
"""Inverse-store entry of a slot claimed by an uncommitted migration."""

Segments = list[tuple[Location, int]]
"""What :meth:`ExtentTable.split` returns: ``[(location, length), ...]`` in
address order; each location unpacks as ``(node, offset)``."""


class MigrationWritePolicy(enum.Enum):
    """What happens to a write that hits an extent mid-migration."""

    FORWARD = "forward"
    FENCE = "fence"


@dataclass
class ExtentMigrationState:
    """Book-keeping for one in-flight extent migration."""

    extent: int
    src_node: int
    src_slot: int
    dst_node: int
    dst_slot: int
    policy: MigrationWritePolicy
    cursor: int = 0
    forwards: int = 0
    fences: int = 0


class ExtentTable:
    """Per-fabric virtual→physical mapping at extent granularity.

    One forward store (the ``_node`` / ``_slot`` columns, indexed by
    extent) and one inverse store (``_owner[node][slot]``: the extent
    living there, :data:`FREE` or :data:`STAGING`) hold the whole map.
    ``layout`` seeds them and is never consulted again.
    """

    def __init__(self, layout: Placement, extent_size: Optional[int] = None) -> None:
        if extent_size is None:
            # A striped layout moves whole stripes; a range layout (one
            # stripe per node) is cut into 256 KiB-ish extents.
            if layout.granularity < layout.node_size:
                extent_size = layout.granularity
            else:
                extent_size = gcd(layout.node_size, DEFAULT_EXTENT_SIZE)
        if extent_size <= 0 or extent_size % WORD != 0:
            raise ValueError("extent_size must be a positive multiple of the word size")
        if layout.granularity % extent_size != 0:
            raise ValueError(
                "extent_size must divide the layout granularity (the node size, for a range layout)"
            )
        self._layout = layout
        self._es = extent_size
        self._virtual_size = layout.total_size
        self._node, self._slot = layout.seed(extent_size)
        self._owner = [
            array("i", [FREE]) * (layout.node_size // extent_size)
            for _ in range(layout.node_count)
        ]
        for extent, (node, slot) in enumerate(zip(self._node, self._slot)):
            self._owner[node][slot] = extent
        self._drained: set[int] = set()
        # Live-migration state and telemetry.
        self._migrating: dict[int, ExtentMigrationState] = {}
        self._epochs: dict[int, int] = {}  # only extents a migration has moved
        self._heat: defaultdict[int, int] = defaultdict(int)  # the fabric bumps it in place
        self._forward_sources: dict[int, dict[int, int]] = {}
        self._replica_groups: dict[int, set] = {}  # extent -> group ids
        self._group_extents: dict[object, set[int]] = {}  # group id -> extents
        self.forwards_total = 0
        self.fences_total = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def layout(self) -> Placement:
        """The initial-layout descriptor this table was seeded from."""
        return self._layout

    @property
    def extent_size(self) -> int:
        return self._es

    @property
    def virtual_size(self) -> int:
        """Total bytes of the virtual far address space."""
        return self._virtual_size

    @property
    def extent_count(self) -> int:
        return len(self._node)

    @property
    def node_count(self) -> int:
        return len(self._owner)

    def node_size_of(self, node: int) -> int:
        return len(self._owner[node]) * self._es

    def extent_of(self, address: int) -> int:
        return address // self._es

    def extent_base(self, extent: int) -> int:
        return extent * self._es

    def check(self, address: int, length: int) -> None:
        """Validate that ``[address, address + length)`` is inside the pool."""
        if length < 0:
            raise AddressError(address, length, "negative length")
        if address < 0 or address + length > self._virtual_size:
            raise AddressError(address, length, "outside the far memory pool")

    # ------------------------------------------------------------------
    # Translation (virtual -> physical)
    # ------------------------------------------------------------------

    def locate(self, address: int) -> Location:
        """Resolve a virtual address to its current (node, offset)."""
        if not 0 <= address < self._virtual_size:
            raise AddressError(address, 1, "outside the far memory pool")
        es = self._es
        extent = address // es
        return Location((self._node[extent], self._slot[extent] * es + address % es))

    def node_of(self, address: int) -> int:
        if not 0 <= address < self._virtual_size:
            raise AddressError(address, 1, "outside the far memory pool")
        return self._node[address // self._es]

    def try_globalize(self, node: int, offset: int) -> Optional[int]:
        """Virtual address of physical ``(node, offset)``, or ``None``.

        ``None`` means the slot is currently unmapped — a free slot, or a
        migration staging slot whose remap has not committed. Memory-side
        write hooks use this to skip notifications for staging traffic
        (exactly one notification per logical write).
        """
        es = self._es
        if not (0 <= node < len(self._owner) and 0 <= offset < len(self._owner[node]) * es):
            raise AddressError(offset, 0, f"no such node/offset {node}/{offset}")
        extent = self._owner[node][offset // es]
        return None if extent < 0 else extent * es + offset % es

    def globalize(self, node: int, offset: int) -> int:
        address = self.try_globalize(node, offset)
        if address is None:
            raise AddressError(offset, 0, f"unmapped slot on node {node}")
        return address

    def split(self, address: int, length: int) -> Segments:
        """Split a virtual range into physically contiguous segments.

        Adjacent extents that are physically contiguous on one node are
        coalesced (the NIC issues one DMA for a physically contiguous
        range), so the segment count — and therefore the network
        traversals charged — depends only on where this range lives.
        """
        if length < 0:
            raise AddressError(address, length, "negative length")
        end = address + length
        if address < 0 or end > self._virtual_size:
            raise AddressError(address, length, "outside the far memory pool")
        es = self._es
        nodes, slots = self._node, self._slot
        segments: Segments = []
        cursor = address
        while cursor < end:
            extent = cursor // es
            node, slot = nodes[extent], slots[extent]
            location = Location((node, slot * es + cursor % es))
            stop = (extent + 1) * es
            while stop < end and nodes[extent + 1] == node and slots[extent + 1] == slot + 1:
                extent += 1
                slot += 1
                stop += es
            if stop > end:
                stop = end
            segments.append((location, stop - cursor))
            cursor = stop
        return segments

    def same_node_span(self, address: int, limit: Optional[int] = None) -> int:
        """Bytes from ``address`` onward whose extents share one node.

        ``limit`` allows early exit once enough span is proven.
        """
        if not 0 <= address < self._virtual_size:
            raise AddressError(address, 1, "outside the far memory pool")
        es = self._es
        nodes = self._node
        extent = address // es
        node = nodes[extent]
        span = es - address % es
        extent += 1
        while (limit is None or span < limit) and extent < len(nodes) and nodes[extent] == node:
            span += es
            extent += 1
        return span

    def extents_on_node(self, node: int) -> list[int]:
        """Extents currently mapped to ``node``, ascending."""
        return [extent for extent, home in enumerate(self._node) if home == node]

    # ------------------------------------------------------------------
    # Heat and forward-source telemetry (drives the rebalancer)
    # ------------------------------------------------------------------

    def heat_of(self, extent: int) -> int:
        return self._heat.get(extent, 0)

    def heat_by_node(self) -> dict[int, int]:
        totals = {node: 0 for node in range(self.node_count)}
        for extent, heat in self._heat.items():
            totals[self._node[extent]] += heat
        return totals

    def note_forward(self, address: int, source_node: int) -> None:
        """Record that ``source_node`` forwarded an indirection into
        the extent holding ``address`` (locality signal: moving the
        extent next to its dominant source removes the hop)."""
        extent = address // self._es
        sources = self._forward_sources.setdefault(extent, {})
        sources[source_node] = sources.get(source_node, 0) + 1

    def forward_sources(self, extent: int) -> dict[int, int]:
        return dict(self._forward_sources.get(extent, {}))

    # ------------------------------------------------------------------
    # Replica fault domains (annotated by the repair coordinator)
    # ------------------------------------------------------------------

    def annotate_replicas(self, group_id, base: int, size: int) -> None:
        """Mark the extents under one replica of group ``group_id``."""
        self.check(base, size)
        extents = self._group_extents.setdefault(group_id, set())
        for extent in range(base // self._es, (base + size - 1) // self._es + 1):
            self._replica_groups.setdefault(extent, set()).add(group_id)
            extents.add(extent)

    def clear_replicas(self, group_id, base: int, size: int) -> None:
        extents = self._group_extents.get(group_id)
        if extents is None:
            return
        for extent in range(base // self._es, (base + size - 1) // self._es + 1):
            groups = self._replica_groups.get(extent)
            if groups is not None:
                groups.discard(group_id)
                if not groups:
                    del self._replica_groups[extent]
            extents.discard(extent)

    def sibling_replica_nodes(self, extent: int) -> set[int]:
        """Nodes holding other replicas of any group ``extent`` belongs
        to. A migration target inside this set would collapse the fault
        domain separation repair relies on."""
        nodes: set[int] = set()
        for group_id in self._replica_groups.get(extent, ()):
            for sibling in self._group_extents.get(group_id, ()):
                nodes.add(self._node[sibling])
        nodes.discard(self._node[extent])
        return nodes

    # ------------------------------------------------------------------
    # Membership: slots, elasticity, drain
    # ------------------------------------------------------------------

    def free_slot_count(self, node: int) -> int:
        return self._owner[node].count(FREE)

    def alloc_slot(self, node: int) -> int:
        """Claim the lowest free physical slot on ``node`` for staging."""
        if node in self._drained:
            raise AllocationError(f"node {node} is drained")
        if not 0 <= node < len(self._owner) or FREE not in self._owner[node]:
            raise AllocationError(f"no free extent slot on node {node}")
        slot = self._owner[node].index(FREE)
        self._owner[node][slot] = STAGING  # unmapped until commit
        return slot

    def free_slot(self, node: int, slot: int) -> None:
        self._owner[node][slot] = FREE

    def add_node(
        self, size: Optional[int] = None, *, grow_virtual: bool = False
    ) -> tuple[int, int]:
        """Register a new memory node; returns ``(node_id, grown_bytes)``.

        By default the node is pure physical headroom — every slot free,
        available as a migration/rebalance target (the seed layout maps
        every virtual extent already, so headroom is what elasticity
        needs). With ``grow_virtual`` the node also extends the virtual
        address space by its full size, identity-mapped onto it.
        """
        size = self._layout.node_size if size is None else size
        if size <= 0 or size % self._es != 0:
            raise ValueError("node size must be a positive multiple of the extent size")
        node = len(self._owner)
        slots = size // self._es
        if not grow_virtual:
            self._owner.append(array("i", [FREE]) * slots)
            return node, 0
        first = len(self._node)
        self._owner.append(array("i", range(first, first + slots)))
        self._node.extend([node] * slots)
        self._slot.extend(range(slots))
        self._virtual_size += size
        return node, size

    def mark_drained(self, node: int) -> None:
        self._drained.add(node)

    def is_drained(self, node: int) -> bool:
        return node in self._drained

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------

    def epoch_of(self, extent: int) -> int:
        return self._epochs.get(extent, 1)

    @property
    def migrating_extents(self) -> list[int]:
        return sorted(self._migrating)

    def begin_migration(
        self,
        extent: int,
        dst_node: int,
        policy: MigrationWritePolicy = MigrationWritePolicy.FORWARD,
    ) -> ExtentMigrationState:
        if not 0 <= extent < self.extent_count:
            raise AddressError(extent * self._es, self._es, "no such extent")
        if extent in self._migrating:
            raise AllocationError(f"extent {extent} is already migrating")
        src_node, src_slot = self._node[extent], self._slot[extent]
        if dst_node == src_node:
            raise AllocationError(f"extent {extent} already lives on node {dst_node}")
        dst_slot = self.alloc_slot(dst_node)
        state = ExtentMigrationState(
            extent=extent,
            src_node=src_node,
            src_slot=src_slot,
            dst_node=dst_node,
            dst_slot=dst_slot,
            policy=policy,
        )
        self._migrating[extent] = state
        return state

    def advance_migration(self, extent: int, nbytes: int) -> ExtentMigrationState:
        state = self._migrating[extent]
        state.cursor = min(state.cursor + nbytes, self._es)
        return state

    def commit_migration(self, extent: int) -> ExtentMigrationState:
        """Atomically remap ``extent`` to its staged copy.

        Requires the copy cursor to cover the whole extent; advances the
        extent epoch (fenced writers observe the bump), frees the source
        slot, and resets the extent's heat and forward telemetry so the
        rebalancer judges the new home on fresh evidence.
        """
        state = self._migrating[extent]
        if state.cursor < self._es:
            raise AllocationError(
                f"extent {extent} copy incomplete ({state.cursor}/{self._es} bytes)"
            )
        del self._migrating[extent]
        self._node[extent], self._slot[extent] = state.dst_node, state.dst_slot
        self._owner[state.dst_node][state.dst_slot] = extent
        self.free_slot(state.src_node, state.src_slot)
        self._epochs[extent] = self.epoch_of(extent) + 1
        self._heat.pop(extent, None)
        self._forward_sources.pop(extent, None)
        return state

    def abort_migration(self, extent: int) -> ExtentMigrationState:
        state = self._migrating.pop(extent)
        self.free_slot(state.dst_node, state.dst_slot)
        return state

    def write_intercept(self, address: int, length: int):
        """Police a write against in-flight migrations.

        Returns mirror directives ``(data_offset, length, dst_node,
        dst_offset)`` for the portions overlapping an already-copied
        prefix under ``FORWARD`` — applied *after* the source write so
        the new home never misses an update. Under ``FENCE`` raises
        :class:`StaleEpochError` before any byte moves, for the whole
        write, even if only one touched extent is fenced.
        """
        if not self._migrating or length <= 0:
            return ()
        es = self._es
        end = address + length
        overlapping = [
            state
            for extent, state in sorted(self._migrating.items())
            if extent * es < end and (extent + 1) * es > address
        ]
        for state in overlapping:
            if state.policy is MigrationWritePolicy.FENCE:
                state.fences += 1
                self.fences_total += 1
                held = self.epoch_of(state.extent)
                raise StaleEpochError(f"extent:{state.extent}", held, held + 1)
        mirrors = []
        for state in overlapping:
            if state.cursor <= 0:
                continue
            base = state.extent * es
            lo = max(address, base)
            hi = min(end, base + state.cursor)
            if lo >= hi:
                continue
            state.forwards += 1
            self.forwards_total += 1
            mirrors.append((lo - address, hi - lo, state.dst_node, state.dst_slot * es + lo - base))
        return mirrors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def dump(self) -> dict:
        """Full topology snapshot (``python -m repro topology``).

        ``remapped`` counts extents that diverged from the seed layout:
        an extent's epoch advances exactly when a migration of it
        commits, so those are the extents with a recorded epoch.
        """
        extents = [
            {
                "extent": extent,
                "base": extent * self._es,
                "node": self._node[extent],
                "slot": self._slot[extent],
                "epoch": self.epoch_of(extent),
                "heat": self._heat.get(extent, 0),
                "state": "migrating" if extent in self._migrating else "active",
                "replica_groups": sorted(str(g) for g in self._replica_groups.get(extent, ())),
                "remapped": extent in self._epochs,
            }
            for extent in range(self.extent_count)
        ]
        heat = self.heat_by_node()
        nodes = [
            {
                "node": node,
                "size": self.node_size_of(node),
                "extents": self._node.count(node),
                "free_slots": self.free_slot_count(node),
                "drained": node in self._drained,
                "heat": heat[node],
            }
            for node in range(self.node_count)
        ]
        return {
            "extent_size": self._es,
            "virtual_size": self._virtual_size,
            "extent_count": self.extent_count,
            "remapped": len(self._epochs),
            "migrating": self.migrating_extents,
            "forwards_total": self.forwards_total,
            "fences_total": self.fences_total,
            "nodes": nodes,
            "extents": extents,
        }

    def __repr__(self) -> str:
        return (
            f"ExtentTable(extents={self.extent_count}, extent_size={self._es}, "
            f"nodes={self.node_count}, remapped={len(self._epochs)}, "
            f"migrating={len(self._migrating)})"
        )
