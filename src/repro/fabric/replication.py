"""Client-driven replication across memory-node fault domains.

Section 2 credits far memory with "better availability due to separate
fault domains for far memory" — per *node*. Data on a failed node is
unavailable until repair, so availability across node failures needs
replication, and with no memory-side processor the clients must drive it:

* **writes** go to every replica in one ``wscatter`` (one far access,
  section 4.2 — this is exactly the kind of multi-buffer transfer the
  primitive exists for);
* **reads** go to the primary replica and fail over to the next on
  :class:`~repro.fabric.errors.NodeUnavailableError` *or*
  :class:`~repro.fabric.errors.FarTimeoutError` (one extra far access
  per dead replica tried). Timeout failover means a replica that is
  merely flaky — client retries exhausted, circuit breaker open — is
  skipped exactly like a fail-stopped one, which is the graceful half of
  the availability argument: reads degrade to the next fault domain
  instead of stalling.

Every region is framed, and that gives integrity and repair:

* **framed blocks** (:meth:`ReplicatedRegion.create_framed`): the region
  is carved into fixed-size blocks, each stored as a crc+version frame
  (:mod:`repro.fabric.integrity`). :meth:`write_block` /
  :meth:`read_block` go through the client's verified I/O, so a corrupt
  or torn copy is *detected* on read and healed by re-reading the next
  replica (+1 far access per verify-miss) instead of returned as data.
* **epoch fencing**: once a region is registered with a
  :class:`~repro.recovery.repair.RepairCoordinator`, every write first
  reads the region's far epoch word (+1 far access, the documented price
  of fencing) and raises
  :class:`~repro.fabric.errors.StaleEpochError` when the coordinator has
  since rebuilt a replica — a stale replica map can never silently write
  to reassigned memory. :meth:`rejoin` refreshes the map and epoch.

Scope: whole-block reads and writes only. Replicated *atomics* (a CAS
that is atomic across copies) require consensus or a primary-backup
commit protocol — memory-side hardware cannot provide them, which is why
the paper's structures keep their atomically-updated words unreplicated
and rely on the fault-domain argument (the word survives client crashes;
a *node* loss of a lock word is an availability event handled by the
repair coordinator, not by this class). Regions also assume a single
writer per block at a time: the version word is a writer stamp for audit
and repair, not a concurrency-control token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..analysis.budget import far_budget
from ..fabric.client import Client
from ..fabric.errors import (
    AddressError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    StaleEpochError,
)
from ..fabric.integrity import frame_block, frame_size

if TYPE_CHECKING:  # pragma: no cover - avoids a package-init import cycle
    from ..alloc import FarAllocator


@dataclass
class ReplicationStats:
    """Read-path health accounting."""

    writes: int = 0
    reads: int = 0
    failovers: int = 0
    timeout_failovers: int = 0
    verified_reads: int = 0
    verify_misses: int = 0
    fence_checks: int = 0
    fence_rejects: int = 0


@dataclass
class ReplicatedRegion:
    """One logical region of ``block_count`` checksummed blocks, stored on
    several memory nodes.

    ``epoch``/``epoch_addr``/``region_id``/``coordinator`` are set when
    the region is registered with a
    :class:`~repro.recovery.repair.RepairCoordinator`; unregistered
    regions pay no fencing cost and keep their one-far-access write path.
    """

    replicas: list[int]
    size: int
    allocator: "FarAllocator"
    block_payload: int
    block_count: int
    stats: ReplicationStats = field(default_factory=ReplicationStats)
    epoch: int = 0
    epoch_addr: Optional[int] = None
    region_id: Optional[int] = None
    coordinator: Optional[object] = field(default=None, repr=False)
    # Last version stamp written (or observed) per block, by this view.
    _versions: dict[int, int] = field(default_factory=dict, repr=False)

    @classmethod
    def create_framed(
        cls,
        allocator: "FarAllocator",
        *,
        block_payload: int,
        block_count: int,
        copies: int = 2,
    ) -> "ReplicatedRegion":
        """Allocate ``copies`` replicas of ``block_count`` checksummed
        blocks, each holding ``block_payload`` payload bytes, each replica
        on a different memory node.

        Requires range placement (replicas must live in distinct fault
        domains) and at least ``copies`` nodes. Every block is initialised
        to a valid version-0 frame of zeros, so a freshly-created region
        verifies cleanly (an all-zero byte range would not: its stored CRC
        word would be wrong, which is also how verified reads catch
        never-written frames).
        """
        from ..alloc import on_node  # deferred: avoids the import cycle

        if block_payload <= 0:
            raise ValueError("block_payload must be positive")
        if block_count <= 0:
            raise ValueError("block_count must be positive")
        node_count = allocator.fabric.node_count
        if copies < 2:
            raise ValueError("replication needs at least 2 copies")
        if copies > node_count:
            raise ValueError(
                f"cannot place {copies} replicas on {node_count} node(s)"
            )
        size = frame_size(block_payload) * block_count
        replicas = [
            allocator.alloc(size, on_node(node)) for node in range(copies)
        ]
        image = frame_block(b"\x00" * block_payload, 0) * block_count
        for replica in replicas:
            allocator.provision(replica, image)
        return cls(
            replicas=replicas,
            size=size,
            allocator=allocator,
            block_payload=block_payload,
            block_count=block_count,
        )

    def _block_offset(self, index: int) -> int:
        if not 0 <= index < self.block_count:
            raise AddressError(index, 0, "block index outside the framed region")
        return index * frame_size(self.block_payload)

    # ------------------------------------------------------------------
    # Epoch fencing (repair protocol, see repro.recovery.repair)
    # ------------------------------------------------------------------

    def _fence(self, client: Client) -> None:
        """Refuse the write when the repair epoch has moved on.

        One far access (the epoch-word read) per fenced write — the
        explicit, documented price of making stale-map writes impossible.
        Unregistered regions (``epoch_addr is None``) skip it entirely.
        """
        if self.epoch_addr is None:
            return
        self.stats.fence_checks += 1
        current = client.read_u64(self.epoch_addr)
        if current != self.epoch:
            self.stats.fence_rejects += 1
            client.metrics.fence_rejects += 1
            if client.tracer is not None:
                client.tracer.emit(
                    client, "fence_reject", region=self.region_id, held=self.epoch, current=current
                )
            raise StaleEpochError(self.region_id, self.epoch, current)

    @far_budget(1, ceiling=1)
    def rejoin(self, client: Client) -> int:
        """Refresh this view after a fence rejection: re-read the epoch
        word and pull the current replica map from the coordinator.
        Returns the adopted epoch."""
        if self.epoch_addr is None:
            raise ValueError("region is not registered with a repair coordinator")
        current = client.read_u64(self.epoch_addr)
        if self.coordinator is not None and self.region_id is not None:
            self.replicas = list(self.coordinator.current_replicas(self.region_id))
        self.epoch = current
        return current

    def clone_view(self) -> "ReplicatedRegion":
        """Another process's view of this region: same replica map and
        epoch *as of now*, independent stats. Used to model a client that
        cached the map before a repair — the fencing tests and the
        ``node_repair`` example drive writes through a stale clone."""
        view = ReplicatedRegion(
            replicas=list(self.replicas),
            size=self.size,
            allocator=self.allocator,
            block_payload=self.block_payload,
            block_count=self.block_count,
            epoch=self.epoch,
            epoch_addr=self.epoch_addr,
            region_id=self.region_id,
            coordinator=self.coordinator,
        )
        view._versions = dict(self._versions)
        return view

    # ------------------------------------------------------------------
    # Verified block I/O
    # ------------------------------------------------------------------

    @far_budget(1, ceiling=2)
    def write_block(self, client: Client, index: int, payload: bytes) -> None:
        """Frame ``payload`` (crc + bumped version) and write it through
        to every replica: one ``wscatter``, plus the epoch fence when
        repair-registered."""
        offset = self._block_offset(index)
        if len(payload) != self.block_payload:
            raise ValueError(
                f"block payload must be exactly {self.block_payload} bytes, "
                f"got {len(payload)}"
            )
        self._fence(client)
        version = self._versions.get(index, 0) + 1
        frame = frame_block(payload, version)
        client.wscatter(
            [(replica + offset, len(frame)) for replica in self.replicas],
            frame * len(self.replicas),
        )
        # Only stamp after the wscatter returns: a timed-out (or torn)
        # write re-uses the same version on retry, keeping the stamp an
        # honest count of *completed* writes by this view.
        self._versions[index] = version
        self.stats.writes += 1

    @far_budget(1)
    def read_block(self, client: Client, index: int) -> bytes:
        """Checksum-verified block read with two-level failover.

        Per replica, in order: a dead or unreachable node (fail-stop, an
        open circuit breaker, or a timeout after the client's retry
        budget) costs one charged failover; a reachable replica whose
        frame fails verification — corruption or a torn write — costs its
        one read and moves on (+1 far access per verify-miss). Only when every
        replica is dead or corrupt does the last error surface; corrupted
        bytes are **never** returned as data.
        """
        offset = self._block_offset(index)
        self.stats.reads += 1
        last_error: Exception | None = None
        for replica in self.replicas:
            try:
                version, payload = client.read_verified(
                    replica + offset, self.block_payload
                )
            except (NodeUnavailableError, FarTimeoutError) as err:
                # The failed attempt still cost a (timed-out) round trip.
                client.charge_far_access(nbytes_read=0)
                self.stats.failovers += 1
                if isinstance(err, FarTimeoutError):
                    self.stats.timeout_failovers += 1
                last_error = err
                continue
            except FarCorruptionError as err:
                self.stats.verify_misses += 1
                last_error = err
                continue
            self.stats.verified_reads += 1
            if version > self._versions.get(index, 0):
                self._versions[index] = version
            return payload
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def live_replicas(self) -> int:
        """Replicas whose node is currently available (fabric-side view)."""
        fabric = self.allocator.fabric
        return sum(
            1
            for replica in self.replicas
            if fabric.node_available(fabric.node_of(replica))
        )
