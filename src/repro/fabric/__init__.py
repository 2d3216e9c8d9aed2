"""Simulated far-memory fabric substrate.

This package is the reproduction's stand-in for an RDMA / Gen-Z far-memory
deployment (see DESIGN.md section 2 for the substitution argument). It
provides memory nodes, address placement, the baseline one-sided
operations and atomics, the paper's Fig. 1 extended primitives, a cost
model, and exact per-client accounting.
"""

from .address import (
    PAGE_SIZE,
    InterleavedPlacement,
    Location,
    Placement,
    RangePlacement,
    make_placement,
    page_of,
    same_page,
)
from .client import Client
from .extent import (
    DEFAULT_EXTENT_SIZE,
    ExtentMigrationState,
    ExtentTable,
    MigrationWritePolicy,
)
from .errors import (
    AddressError,
    AlignmentError,
    AllocationError,
    CircuitOpenError,
    ClientDeadError,
    FabricError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    QueueEmpty,
    QueueFull,
    RemoteIndirectionError,
    RpcError,
    StaleCacheError,
    StaleEpochError,
)
from .fabric import Fabric, FabricResult, IndirectionPolicy
from .faults import FaultInjector, FaultPlan, FaultRule, FaultStats
from .integrity import (
    FRAME_OVERHEAD,
    frame_block,
    frame_size,
    try_unframe,
)
from .latency import CostModel, SimClock
from .retry import BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy
from .memory_node import MemoryNode, NodeStats
from .metrics import Metrics, aggregate
from .pipeline import CompletionQueue, FarFuture
from .primitives import FarIovec, PendingIndirection
from .replication import ReplicatedRegion, ReplicationStats
from .wire import (
    U64_MASK,
    WORD,
    align_down,
    align_up,
    crc32_u64,
    decode_u64,
    encode_u64,
    to_signed,
    wrap_add,
)

__all__ = [
    "PAGE_SIZE",
    "InterleavedPlacement",
    "Location",
    "Placement",
    "RangePlacement",
    "make_placement",
    "page_of",
    "same_page",
    "Client",
    "DEFAULT_EXTENT_SIZE",
    "ExtentMigrationState",
    "ExtentTable",
    "MigrationWritePolicy",
    "AddressError",
    "AlignmentError",
    "AllocationError",
    "CircuitOpenError",
    "ClientDeadError",
    "FarCorruptionError",
    "FarTimeoutError",
    "NodeUnavailableError",
    "FabricError",
    "QueueEmpty",
    "QueueFull",
    "RemoteIndirectionError",
    "RpcError",
    "StaleCacheError",
    "StaleEpochError",
    "Fabric",
    "FabricResult",
    "IndirectionPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "FRAME_OVERHEAD",
    "frame_block",
    "frame_size",
    "try_unframe",
    "CostModel",
    "SimClock",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "MemoryNode",
    "NodeStats",
    "Metrics",
    "aggregate",
    "CompletionQueue",
    "FarFuture",
    "FarIovec",
    "PendingIndirection",
    "ReplicatedRegion",
    "ReplicationStats",
    "U64_MASK",
    "WORD",
    "align_down",
    "align_up",
    "crc32_u64",
    "decode_u64",
    "encode_u64",
    "to_signed",
    "wrap_add",
]
