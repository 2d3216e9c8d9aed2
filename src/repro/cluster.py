"""Cluster: one-stop wiring of the far-memory testbed.

A :class:`Cluster` assembles the pieces a deployment needs — fabric,
placement, allocator, notification manager — and provides
factories for clients and for every far-memory data structure in
:mod:`repro.core`. All examples and benchmarks start here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .alloc import FarAllocator, PlacementHint
from .fabric import (
    Client,
    Fabric,
    IndirectionPolicy,
    Metrics,
    aggregate,
    make_placement,
)
from .notify import DeliveryPolicy, NotificationManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .migration import DrainReport, MigrationCoordinator, RebalanceReport


class Cluster:
    """A far-memory deployment: memory pool + clients + notifications."""

    def __init__(
        self,
        *,
        node_count: int = 1,
        node_size: int = 64 << 20,
        interleaved: bool = False,
        interleave_granularity: int = 4096,
        indirection_policy: IndirectionPolicy = IndirectionPolicy.FORWARD,
        delivery_policy: Optional[DeliveryPolicy] = None,
        extent_size: Optional[int] = None,
    ) -> None:
        self.fabric = Fabric(
            make_placement(
                node_count, node_size, interleaved=interleaved, granularity=interleave_granularity
            ),
            indirection_policy=indirection_policy,
            extent_size=extent_size,
        )
        self.allocator = FarAllocator(self.fabric)
        self.notifications = NotificationManager(self.fabric, delivery_policy)
        self.clients: list[Client] = []
        self._migration: Optional["MigrationCoordinator"] = None

    # ------------------------------------------------------------------
    # Clients and cluster-wide accounting
    # ------------------------------------------------------------------

    def client(self, name: Optional[str] = None, **kwargs) -> Client:
        """Create and register a new client (compute node).

        Keyword arguments (``retry_policy``, ``breaker_policy``,
        ``qp_depth``) pass through to :class:`Client`.
        """
        c = Client(self.fabric, name, **kwargs)
        self.clients.append(c)
        return c

    def inject_faults(self, seed: int = 0, plan=None):
        """Attach a seeded transient-fault injector to the fabric.

        Returns the :class:`~repro.fabric.faults.FaultInjector` so callers
        can add rules / read stats; call again to replace it, or
        ``cluster.fabric.set_fault_injector(None)`` to detach.
        """
        from .fabric import FaultInjector

        injector = FaultInjector(seed, plan=plan)
        self.fabric.set_fault_injector(injector)
        return injector

    # ------------------------------------------------------------------
    # Elastic membership and live migration (PR 7)
    # ------------------------------------------------------------------

    @property
    def migration(self) -> "MigrationCoordinator":
        """The lazily-created migration coordinator for this cluster."""
        if self._migration is None:
            from .migration import MigrationCoordinator

            self._migration = MigrationCoordinator(self.fabric)
        return self._migration

    def add_node(
        self, node_size: Optional[int] = None, *, grow: bool = False
    ) -> int:
        """Add a memory node; returns its id.

        By default the node is migration headroom (free physical slots the
        coordinator can stage extents into). With ``grow=True`` the virtual
        address space extends over the new node and the allocator adopts
        the fresh range immediately.
        """
        before = self.fabric.total_size
        node_id = self.fabric.add_node(node_size, grow_virtual=grow)
        grown = self.fabric.total_size - before
        if grown:
            self.allocator.grow(grown)
        return node_id

    def drain_node(
        self, node: int, client: Optional[Client] = None, **kwargs
    ) -> "DrainReport":
        """Live-migrate every extent off ``node`` and retire it.

        The copy round trips are charged to ``client`` (a dedicated
        maintenance client is created if none is given). Keyword arguments
        (``policy``, ``interleave``) pass through to
        :meth:`~repro.migration.MigrationCoordinator.drain_node`.
        """
        if client is None:
            client = self.client("drain")
        return self.migration.drain_node(client, node, **kwargs)

    def rebalance(
        self, client: Optional[Client] = None, **kwargs
    ) -> "RebalanceReport":
        """One heat-driven rebalance pass (see :mod:`repro.migration`):
        up to ``top_k`` touched extents move off the hottest node.

        Keyword arguments (``top_k``, ``registry``) pass through to
        :class:`~repro.migration.Rebalancer`; with
        ``registry=`` the plan is driven by the live telemetry plane's
        per-extent heat instead of the table's private heat counts.
        """
        from .migration import Rebalancer

        if client is None:
            client = self.client("rebalance")
        return Rebalancer(self.migration, **kwargs).run(client)

    def topology(self) -> dict[str, object]:
        """Extent-table dump: extent → node mapping, epochs, heat,
        replica groups, per-node occupancy (the ``repro topology`` CLI)."""
        return self.fabric.extents.dump()

    def total_metrics(self) -> Metrics:
        """Sum of all registered clients' metrics."""
        return aggregate([c.metrics for c in self.clients])

    # ------------------------------------------------------------------
    # Data structure factories (paper section 5)
    # ------------------------------------------------------------------

    def far_counter(self, hint: Optional[PlacementHint] = None):
        """A far counter (section 5.1)."""
        from .core.counter import FarCounter

        return FarCounter.create(self.allocator, hint=hint)

    def far_vector(
        self, length: int, *, hint: Optional[PlacementHint] = None
    ):
        """A far vector of 64-bit words (section 5.1)."""
        from .core.vector import FarVector

        return FarVector.create(self.allocator, length, hint=hint)

    def far_mutex(self, hint: Optional[PlacementHint] = None):
        """A far mutex (section 5.1)."""
        from .core.mutex import FarMutex

        return FarMutex.create(self.allocator, self.notifications, hint=hint)

    def far_barrier(self, participants: int, hint: Optional[PlacementHint] = None):
        """A far barrier for ``participants`` parties (section 5.1)."""
        from .core.barrier import FarBarrier

        return FarBarrier.create(
            self.allocator, self.notifications, participants, hint=hint
        )

    def ht_tree(self, **kwargs):
        """An HT-tree map (section 5.2)."""
        from .core.ht_tree import HTTree

        return HTTree.create(self.allocator, self.notifications, **kwargs)

    def far_queue(self, capacity: int, max_clients: int, **kwargs):
        """A far queue (section 5.3)."""
        from .core.queue import FarQueue

        return FarQueue.create(
            self.allocator, capacity=capacity, max_clients=max_clients, **kwargs
        )

    def refreshable_vector(self, length: int, **kwargs):
        """A refreshable vector (section 5.4)."""
        from .core.refreshable_vector import RefreshableVector

        return RefreshableVector.create(
            self.allocator, self.notifications, length, **kwargs
        )

    def txn_space(self, client, **kwargs):
        """A transaction space for optimistic multi-key commits
        (repro.txn; DESIGN.md §15). ``client`` seeds the version-word
        table and registration array (two far writes)."""
        from .txn import TxnSpace

        return TxnSpace.create(self.allocator, client, **kwargs)

    def far_rwlock(self, hint: Optional[PlacementHint] = None):
        """A far reader-writer lock (extension)."""
        from .core.rwlock import FarRWLock

        return FarRWLock.create(self.allocator, self.notifications, hint=hint)

    def far_semaphore(self, permits: int, hint: Optional[PlacementHint] = None):
        """A far counting semaphore (extension)."""
        from .core.semaphore import FarSemaphore

        return FarSemaphore.create(
            self.allocator, self.notifications, permits, hint=hint
        )

    def registry(self, capacity: int = 64):
        """A far-memory naming registry (extension)."""
        from .core.registry import FarRegistry

        return FarRegistry.create(self.allocator, capacity=capacity)

    def reclaimer(self):
        """An epoch-based reclaimer over this cluster's allocator."""
        from .alloc.epoch import EpochReclaimer

        return EpochReclaimer(self.allocator)

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={self.fabric.node_count}, "
            f"clients={len(self.clients)})"
        )
