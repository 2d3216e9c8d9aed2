"""Epoch-based far-memory reclamation.

One-sided data structures cannot free memory the moment it is unlinked: a
concurrent client may have read a pointer to the block (a hash-table item,
a split-away table, a superseded tree-leaves array) and still be about to
dereference it. With no memory-side processor to coordinate (section 2),
the standard answer is epoch-based reclamation, done client-side:

* unlinked blocks are **retired** into the epoch they died in;
* each participating client periodically **quiesces** (declares it holds
  no references from before the current epoch);
* a retired block is **reclaimed** (returned to the allocator) once every
  participant has quiesced in a later epoch than the block's.

The epoch counter here is reclaimer-local (near memory): participants are
registered objects in the same deployment, so no far traffic is spent on
reclamation bookkeeping — only the eventual ``allocator.free``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..fabric.errors import AllocationError
from .allocator import FarAllocator


@dataclass
class ReclaimStats:
    """Lifecycle counts for audits and leak tests."""

    retired: int = 0
    reclaimed: int = 0

    @property
    def pending(self) -> int:
        """Blocks retired but not yet reclaimed."""
        return self.retired - self.reclaimed


@dataclass
class _Retired:
    address: int
    epoch: int


class EpochReclaimer:
    """Deferred-free coordinator over one :class:`FarAllocator`."""

    def __init__(self, allocator: FarAllocator) -> None:
        self.allocator = allocator
        self.stats = ReclaimStats()
        self._epoch = 0
        self._participants: dict[int, int] = {}  # participant id -> last quiesce epoch
        self._retired: deque[_Retired] = deque()
        self._next_participant = 0

    @property
    def epoch(self) -> int:
        """The current global epoch."""
        return self._epoch

    # ------------------------------------------------------------------
    # Participants
    # ------------------------------------------------------------------

    def register(self) -> int:
        """Join reclamation; returns a participant id. A participant that
        stops quiescing stalls reclamation (the classic epoch hazard), so
        crashed clients must be :meth:`deregister`-ed."""
        pid = self._next_participant
        self._next_participant += 1
        self._participants[pid] = self._epoch
        return pid

    def deregister(self, pid: int) -> None:
        """Leave reclamation (normal shutdown or crash cleanup)."""
        self._participants.pop(pid, None)

    def quiesce(self, pid: int) -> int:
        """Declare that participant ``pid`` holds no pre-current-epoch
        references; advances the global epoch when everyone has caught up.
        Returns the (possibly new) global epoch."""
        if pid not in self._participants:
            raise AllocationError(f"unknown reclamation participant {pid}")
        self._participants[pid] = self._epoch
        if all(done >= self._epoch for done in self._participants.values()):
            self._epoch += 1
        self._try_reclaim(self._safe_before())
        return self._epoch

    # ------------------------------------------------------------------
    # Retire / reclaim
    # ------------------------------------------------------------------

    def retire(self, address: int) -> None:
        """Schedule a live allocation for freeing once safe."""
        self.allocator.size_of(address)  # validates liveness
        self._retired.append(_Retired(address=address, epoch=self._epoch))
        self.stats.retired += 1
        self._try_reclaim(self._safe_before())

    def _safe_before(self) -> int:
        """Blocks retired strictly before this epoch are reclaimable."""
        if not self._participants:
            return self._epoch + 1  # nobody can hold references
        return min(self._participants.values())

    def _try_reclaim(self, horizon: float = math.inf) -> int:
        """Free the retired blocks, oldest first, that died before
        ``horizon`` (all of them when there is none)."""
        freed = 0
        while self._retired and self._retired[0].epoch < horizon:
            self.allocator.free(self._retired.popleft().address)
            self.stats.reclaimed += 1
            freed += 1
        return freed

    def drain(self) -> int:
        """Force-reclaim everything (only when provably quiescent, e.g.
        at shutdown). Returns the number of blocks freed."""
        return self._try_reclaim()

    def __repr__(self) -> str:
        return (
            f"EpochReclaimer(epoch={self._epoch}, "
            f"participants={len(self._participants)}, "
            f"pending={self.stats.pending})"
        )
