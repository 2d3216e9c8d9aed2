"""Typed error hierarchy for the simulated far-memory fabric.

Errors mirror the failure modes a real RDMA / Gen-Z fabric surfaces to
clients: bad addresses, protection faults, unsupported cross-node
indirection (the "error" policy of section 7.1 of the paper), and
misaligned atomics.
"""

from __future__ import annotations


class FabricError(Exception):
    """Base class for all errors raised by the simulated fabric."""


class AddressError(FabricError):
    """An address (or address + length) falls outside the mapped space."""

    def __init__(self, address: int, length: int = 0, reason: str = "") -> None:
        detail = f"address=0x{address:x} length={length}"
        if reason:
            detail = f"{detail}: {reason}"
        super().__init__(detail)
        self.address = address
        self.length = length


class AlignmentError(FabricError):
    """An atomic or notification target is not word aligned."""


class RemoteIndirectionError(FabricError):
    """Memory-side indirection dereferenced a pointer on another node.

    Raised only under ``IndirectionPolicy.ERROR`` (section 7.1): the memory
    node refuses to forward and tells the client which node actually holds
    the target, so the client can issue a direct request itself.
    """

    def __init__(self, pointer: int, home_node: int, target_node: int) -> None:
        super().__init__(
            f"pointer 0x{pointer:x} held by node {home_node} targets node "
            f"{target_node}; indirection policy forbids forwarding"
        )
        self.pointer = pointer
        self.home_node = home_node
        self.target_node = target_node


class NodeUnavailableError(FabricError):
    """The memory node holding the target address has failed.

    Far memory has its own fault domain (section 2): a failed *client*
    never raises this, only a failed memory node — and only for addresses
    that node owns.
    """

    def __init__(self, node: int, address: int) -> None:
        super().__init__(f"memory node {node} is unavailable (address 0x{address:x})")
        self.node = node
        self.address = address


class FarTimeoutError(FabricError):
    """A one-sided operation timed out: the request (or its completion)
    was dropped by the fabric.

    The simulator injects these *before* the memory node executes the
    operation (request-drop semantics), so a timed-out operation has no
    far-memory side effects and is always safe to retry — including the
    non-idempotent atomics and Fig. 1 pointer-bump primitives.
    """

    def __init__(
        self, node: int, address: int, reason: str = "", *, torn: bool = False
    ) -> None:
        detail = f"operation to node {node} timed out (address 0x{address:x})"
        if reason:
            detail = f"{detail}: {reason}"
        super().__init__(detail)
        self.node = node
        self.address = address
        # True when the timed-out write applied a prefix before the fabric
        # lost it (a TORN fault): the far bytes are now neither old nor new,
        # and only a checksum frame (repro.fabric.integrity) can tell.
        self.torn = torn


class FarCorruptionError(FabricError):
    """A verified read found a frame whose checksum does not match.

    Raised by :meth:`~repro.fabric.client.Client.read_verified` (and
    :meth:`~repro.fabric.replication.ReplicatedRegion.read_block`) only
    after every supplied replica failed verification — a single corrupt
    copy is healed transparently by re-reading the next one. Corrupted
    bytes and torn-write prefixes are indistinguishable at read time; both
    surface here instead of being returned as valid data.
    """

    def __init__(
        self, node: int, address: int, payload_len: int = 0, reason: str = ""
    ) -> None:
        detail = (
            f"checksum mismatch at address 0x{address:x} on node {node}"
            f" (payload {payload_len} bytes)"
        )
        if reason:
            detail = f"{detail}: {reason}"
        super().__init__(detail)
        self.node = node
        self.address = address


class StaleEpochError(FabricError):
    """A fenced write observed a newer repair epoch than the writer holds.

    The :class:`~repro.recovery.repair.RepairCoordinator` bumps a region's
    far epoch word after rebuilding a replica; a client still holding the
    pre-repair replica map is *fenced* — its write raises this error
    before touching any replica, so a stale map can never cause a silent
    lost write to reassigned memory. Recover with
    :meth:`~repro.fabric.replication.ReplicatedRegion.rejoin`.
    """

    def __init__(self, region_id, held: int, current: int) -> None:
        super().__init__(
            f"region {region_id}: writer holds epoch {held} but the fence "
            f"word reads {current}; rejoin the repaired replica set before "
            "writing"
        )
        self.region_id = region_id
        self.held = held
        self.current = current


class CircuitOpenError(NodeUnavailableError):
    """A client-side circuit breaker rejected the operation.

    Subclasses :class:`NodeUnavailableError` deliberately: to callers the
    node is *effectively* unavailable (the breaker observed repeated
    failures), so failover paths written against ``NodeUnavailableError``
    — e.g. :class:`~repro.fabric.replication.ReplicatedRegion` — degrade
    gracefully without knowing breakers exist.
    """

    def __init__(self, node: int, address: int) -> None:
        FabricError.__init__(
            self,
            f"circuit breaker for node {node} is open (address 0x{address:x})",
        )
        self.node = node
        self.address = address


class ClientDeadError(FabricError):
    """An operation was attempted through a crashed client."""


class AllocationError(FabricError):
    """The far-memory allocator could not satisfy a request."""


class RpcError(FabricError):
    """An RPC to a memory-side server failed."""


class QueueEmpty(FabricError):
    """A far queue dequeue found no item (after slow-path confirmation)."""


class QueueFull(FabricError):
    """A far queue enqueue found no free slot (after slow-path confirmation)."""


class StaleCacheError(FabricError):
    """A client cache entry was stale and could not be transparently refreshed."""
