"""Baseline data structures from prior work (paper sections 1 and 8).

These exist to be measured against the section 5 far-memory data
structures: the traditional one-sided chained hash table (refs [24, 25,
35]), FaRM-style hopscotch hashing, DrTM+H-style client address caching,
a one-sided B-tree with optional level caching, and the O(log n) skip-list
strawman.
"""

from .addr_cache_hash import AddrCacheStats, AddressCachingHashMap
from .hopscotch import HopscotchFull, HopscotchHashMap, HopscotchStats
from .onesided_btree import BTreeStats, OneSidedBTree
from .onesided_hash import OneSidedHashMap, OneSidedHashStats
from .skiplist import FarSkipList, SkipListStats

__all__ = [
    "AddrCacheStats",
    "AddressCachingHashMap",
    "HopscotchFull",
    "HopscotchHashMap",
    "HopscotchStats",
    "BTreeStats",
    "OneSidedBTree",
    "OneSidedHashMap",
    "OneSidedHashStats",
    "FarSkipList",
    "SkipListStats",
]
