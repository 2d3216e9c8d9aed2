"""repro — Far Memory Data Structures (HotOS '19) reproduction.

A production-quality, simulator-backed implementation of the data
structures, hardware primitives, baselines and case studies from
"Designing Far Memory Data Structures: Think Outside the Box"
(Aguilera, Keeton, Novakovic, Singhal — HotOS 2019).

Quickstart::

    from repro import Cluster

    cluster = Cluster(node_count=2)
    client = cluster.client()
    counter = cluster.far_counter()
    counter.add(client, 41)
    counter.increment(client)
    assert counter.read(client) == 42
    print(client.metrics)          # exactly 3 far accesses

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim-by-claim reproduction results.
"""

from .cluster import Cluster
from .core import (
    FarBarrier,
    FarBlobStore,
    FarCounter,
    FarMutex,
    FarQueue,
    FarRegistry,
    FarRWLock,
    FarSemaphore,
    FarVector,
    HTTree,
    RefreshableVector,
)
from .fabric import (
    BreakerPolicy,
    Client,
    CostModel,
    Fabric,
    FaultInjector,
    FaultPlan,
    IndirectionPolicy,
    InterleavedPlacement,
    Metrics,
    RangePlacement,
    ReplicatedRegion,
    RetryPolicy,
)
from .obs import LatencyHistogram, Tracer
from .txn import Transaction, TxnAbortError, TxnConflictError, TxnSpace

__version__ = "0.1.0"

__all__ = [
    "BreakerPolicy",
    "Cluster",
    "Client",
    "CostModel",
    "Fabric",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "IndirectionPolicy",
    "InterleavedPlacement",
    "Metrics",
    "RangePlacement",
    "ReplicatedRegion",
    "FarBarrier",
    "FarBlobStore",
    "FarCounter",
    "FarMutex",
    "FarQueue",
    "FarRegistry",
    "FarRWLock",
    "FarSemaphore",
    "FarVector",
    "HTTree",
    "RefreshableVector",
    "LatencyHistogram",
    "Tracer",
    "Transaction",
    "TxnAbortError",
    "TxnConflictError",
    "TxnSpace",
    "__version__",
]
