"""Far memory data structures — the paper's core contribution (section 5).

Every structure here obeys the section 3.1 requirement: operations
complete in O(1) far memory accesses most of the time, preferably with a
constant of 1, trading far accesses for near accesses via client caches,
the Fig. 1 primitives, and notifications.
"""

from .barrier import ArrivalTicket, BarrierError, FarBarrier
from .blob import BlobStats, FarBlobStore
from .counter import FarCounter
from .ht_tree import HTTree, HTTreeStats, hash_u64
from .mutex import FarMutex, MutexError, MutexStats
from .queue import EMPTY, FarQueue, QueueStats
from .refreshable_vector import RefreshableVector, RefreshReport
from .registry import FarRegistry, RegistryError, name_hash
from .rwlock import FarRWLock, RWLockStats
from .semaphore import FarSemaphore, SemaphoreStats
from .vector import FarVector

__all__ = [
    "BlobStats",
    "FarBlobStore",
    "FarRegistry",
    "RegistryError",
    "name_hash",
    "FarRWLock",
    "RWLockStats",
    "FarSemaphore",
    "SemaphoreStats",
    "ArrivalTicket",
    "BarrierError",
    "FarBarrier",
    "FarCounter",
    "HTTree",
    "HTTreeStats",
    "hash_u64",
    "FarMutex",
    "MutexError",
    "MutexStats",
    "EMPTY",
    "FarQueue",
    "QueueStats",
    "RefreshableVector",
    "RefreshReport",
    "FarVector",
]
