"""Heat-driven elastic rebalancing over the extent table.

The fabric counts every far access against each extent it touched
(:meth:`~repro.fabric.extent.ExtentTable.heat_of`) and, under the FORWARD
indirection policy, records *which node* forwarded each cross-node
dereference (:meth:`~repro.fabric.extent.ExtentTable.note_forward`).
The rebalancer turns that telemetry into moves:

* the hottest extents on the most-loaded node move off it;
* each hot extent prefers the node that forwards into it most — on this
  cost model forward hops are the only placement-dependent latency, so
  co-locating a pointer target with its pointer removes
  ``forward_hop_ns`` from every dereference (§7.1's locality argument,
  made mechanical);
* if the preferred node is full, its coldest extent is evicted to the
  least-loaded node with headroom, opening the slot.

All tie-breaks are deterministic (heat descending, then extent id; load
ascending, then node id), so a rebalance is replayable.

Heat can come from two places. By default the rebalancer reads the
extent table's private per-segment heat counts. Pass a
:class:`~repro.obs.telemetry.TelemetryRegistry` and it reads the
externally visible per-extent heat series instead — the same numbers
``repro top`` renders, equal to the table's for single-extent accesses —
so every move is explainable from the public telemetry plane alone.
Placement (which node holds which extent, free slots, forward sources)
always comes from the table: that is fabric state, not observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..fabric.client import Client
from .coordinator import MigrationCoordinator


@dataclass(frozen=True)
class RebalanceMove:
    """One planned extent move."""

    extent: int
    src: int
    dst: int
    reason: str  # "heat" (hot extent off the overloaded node) | "evict"


@dataclass
class RebalanceReport:
    """What one :meth:`Rebalancer.run` pass did."""

    overloaded_node: int = -1
    moves: list[RebalanceMove] = field(default_factory=list)
    moved_heat: int = 0


class Rebalancer:
    """Plans (and optionally executes) heat-driven extent moves."""

    def __init__(
        self,
        coordinator: MigrationCoordinator,
        *,
        top_k: int = 8,
        registry=None,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.coordinator = coordinator
        self.top_k = top_k
        self.registry = registry

    def _heat_of(self, extent: int) -> int:
        if self.registry is not None:
            return self.registry.extent_heat(extent)
        return self.coordinator.fabric.extents.heat_of(extent)

    def _heat_by_node(self) -> dict[int, int]:
        table = self.coordinator.fabric.extents
        if self.registry is None:
            return table.heat_by_node()
        totals: dict[int, int] = {}
        for node in range(self.coordinator.fabric.node_count):
            load = sum(self._heat_of(e) for e in table.extents_on_node(node))
            if load:
                totals[node] = load
        return totals

    def _live_nodes(self) -> list[int]:
        fabric = self.coordinator.fabric
        table = fabric.extents
        return [
            node
            for node in range(fabric.node_count)
            if fabric.node_available(node) and not table.is_drained(node)
        ]

    def _spill_target(
        self, exclude: set[int], free: dict[int, int]
    ) -> Optional[int]:
        """Least-loaded live node with free capacity, outside ``exclude``."""
        table = self.coordinator.fabric.extents
        candidates = [
            node
            for node in self._live_nodes()
            if node not in exclude and free.get(node, 0) > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (len(table.extents_on_node(n)), n))

    def plan(self) -> tuple[int, list[RebalanceMove]]:
        """Deterministic move plan; executes nothing."""
        fabric = self.coordinator.fabric
        table = fabric.extents
        live = self._live_nodes()
        if not live:
            return -1, []
        heat = self._heat_by_node()
        overloaded = max(live, key=lambda n: (heat.get(n, 0), -n))
        if heat.get(overloaded, 0) <= 0:
            return overloaded, []
        hot = sorted(
            (
                extent
                for extent in table.extents_on_node(overloaded)
                if self._heat_of(extent) > 0  # an untouched extent never moves
            ),
            key=lambda e: (-self._heat_of(e), e),
        )[: self.top_k]
        free = {node: table.free_slot_count(node) for node in range(fabric.node_count)}
        planned: set[int] = set()
        moves: list[RebalanceMove] = []
        for extent in hot:
            siblings = table.sibling_replica_nodes(extent)
            prefer: Optional[int] = None
            sources = table.forward_sources(extent)
            if sources:
                # Dominant forwarder first; deterministic on count then id.
                candidate = max(sources.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                if (
                    candidate != overloaded
                    and candidate in self._live_nodes()
                    and candidate not in siblings
                ):
                    prefer = candidate
            if prefer is not None and free.get(prefer, 0) == 0:
                # The pointer-side node is full: evict its coldest extent
                # to the least-loaded node with headroom, opening a slot
                # right next to the dereferencers.
                spare = self._spill_target({prefer, overloaded}, free)
                victim = min(
                    (e for e in table.extents_on_node(prefer) if e not in planned),
                    key=lambda e: (self._heat_of(e), e),
                    default=None,
                )
                if spare is None or victim is None:
                    prefer = None
                else:
                    moves.append(RebalanceMove(victim, prefer, spare, "evict"))
                    free[spare] -= 1
                    free[prefer] += 1
                    planned.add(victim)
            dst = prefer
            if dst is None:
                dst = self._spill_target({overloaded} | siblings, free)
                if dst is None:
                    continue  # nowhere to put it this round
            moves.append(RebalanceMove(extent, overloaded, dst, "heat"))
            free[dst] -= 1
            free[overloaded] += 1
            planned.add(extent)
        return overloaded, moves

    def run(self, client: Client) -> RebalanceReport:
        """Plan and execute, charging the copies to ``client``."""
        overloaded, moves = self.plan()
        report = RebalanceReport(overloaded_node=overloaded)
        for move in moves:
            report.moved_heat += self._heat_of(move.extent)
            self.coordinator.migrate_extent(client, move.extent, move.dst)
            report.moves.append(move)
        return report
