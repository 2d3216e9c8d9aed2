"""Far stacks: a Treiber stack over one-sided accesses.

The paper's queue (section 5.3) reaches one far access per operation
because ``faai``/``saai`` fuse the pointer bump with the data transfer.
A LIFO stack cannot use them: push must *link* (the new node points at
the old top), so the top pointer's new value depends on an allocation,
not an increment. The best one-sided stack is therefore the classic
Treiber design — and it is a useful foil for the queue:

* ``push``  = node write + top CAS                  (2 far accesses)
* ``pop``   = ``load0`` of the top node + top CAS   (2 far accesses)

``load0`` (Fig. 1) still earns its keep: without it, pop would be top
read + node read + CAS = 3. The structure is lock-free: CAS failures
retry with the observed value.

Node layout (16 bytes): ``value | next``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..alloc.epoch import EpochReclaimer
from ..fabric.client import Client
from ..fabric.wire import WORD, Layout, decode_u64

NODE = Layout("value next")


@dataclass
class StackStats:
    """Empty pops and contention retries."""

    empty_pops: int = 0
    cas_retries: int = 0


class FarStack:
    """A lock-free LIFO stack of 64-bit values in far memory."""

    def __init__(
        self,
        allocator: FarAllocator,
        top: int,
        *,
        reclaimer: Optional[EpochReclaimer] = None,
    ) -> None:
        self.allocator = allocator
        self.top = top
        self.reclaimer = reclaimer
        self.stats = StackStats()
        self._size = 0

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        hint: Optional[PlacementHint] = None,
        reclaimer: Optional[EpochReclaimer] = None,
    ) -> "FarStack":
        """Allocate an empty stack (null top pointer)."""
        top = allocator.alloc(WORD, hint)
        allocator.provision(top, 0)
        return cls(allocator, top, reclaimer=reclaimer)

    def push(self, client: Client, value: int) -> None:
        """Push: node write + top CAS (two far accesses uncontended)."""
        node = self.allocator.alloc(NODE.size, PlacementHint(near=self.top))
        observed = client.read_u64(self.top)
        client.write(node, NODE.pack(value, observed))
        client.fence()
        while True:
            old, ok = client.cas(self.top, observed, node)
            if ok:
                break
            self.stats.cas_retries += 1
            observed = old
            client.write_u64(node + NODE.offset["next"], observed)
        self._size += 1

    def pop(self, client: Client) -> Optional[int]:
        """Pop: ``load0`` of the top node + top CAS (two far accesses
        uncontended). Returns None when empty (one far access)."""
        while True:
            result = client.load0(self.top, NODE.size)
            node = result.pointer
            if node == 0:
                self.stats.empty_pops += 1
                return None
            value, next_node = NODE.unpack(result.value)
            _, ok = client.cas(self.top, node, next_node)
            if ok:
                if self.reclaimer is not None:
                    self.reclaimer.retire(node)
                self._size -= 1
                return value
            self.stats.cas_retries += 1

    def peek(self, client: Client) -> Optional[int]:
        """Read the top value without removing it (one far access)."""
        result = client.load0(self.top, WORD)
        if result.pointer == 0:
            return None
        return decode_u64(result.value)

    def __len__(self) -> int:
        return self._size
