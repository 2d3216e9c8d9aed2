"""Crash recovery for far memory data structures.

Far memory's separate fault domain (paper section 2) means client crashes
never lose data — but they strand it: held locks, half-migrated queue
items. This package provides the recovery protocols a deployment needs on
top of the section 5 structures: lease-based mutexes with takeover, queue
scrubbing, and re-replication after a memory node fails.
"""

from .lease_mutex import LeasedFarMutex, LeaseStats
from .queue_scrub import QueueScrubber, ScrubReport
from .repair import RepairCoordinator, RepairReport

__all__ = [
    "LeasedFarMutex",
    "LeaseStats",
    "QueueScrubber",
    "ScrubReport",
    "RepairCoordinator",
    "RepairReport",
]
