"""Far counters (paper section 5.1).

"Counters are implemented using loads, stores, and atomics with immediate
addressing." Every operation is exactly one far access; concurrent
increments are race-free because the add happens memory-side
(fetch-and-add at fabric level, section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..analysis.budget import far_budget
from ..fabric.client import Client
from ..fabric.wire import WORD


@dataclass(frozen=True)
class FarCounter:
    """A shared 64-bit counter in far memory.

    The object itself is just a descriptor (an address); any client can
    operate on it. Arithmetic wraps modulo 2**64 like hardware.
    """

    address: int

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        initial: int = 0,
        *,
        hint: Optional[PlacementHint] = None,
    ) -> "FarCounter":
        """Allocate a counter in far memory, initialised to ``initial``.

        Initialisation is done fabric-side (no client is charged): it
        models the one-time setup done by whoever provisions the data
        structure.
        """
        address = allocator.alloc(WORD, hint)
        allocator.provision(address, initial)
        return cls(address=address)

    @classmethod
    def attach(cls, address: int) -> "FarCounter":
        """Adopt an existing counter by address (e.g. from a registry)."""
        return cls(address=address)

    @far_budget(1, ceiling=1, claim="C2")
    def read(self, client: Client) -> int:
        """Current value: one far access."""
        return client.read_u64(self.address)

    @far_budget(1, ceiling=1, claim="C2")
    def set(self, client: Client, value: int) -> None:
        """Overwrite the value: one far access (not atomic wrt add)."""
        client.write_u64(self.address, value)

    @far_budget(1, ceiling=1, claim="C2")
    def add(self, client: Client, delta: int) -> int:
        """Atomically add ``delta``; returns the previous value.

        One far access; negative deltas wrap (two's complement), so
        ``add(client, -1)`` decrements.
        """
        return client.faa(self.address, delta)

    @far_budget(1, ceiling=1, claim="C2")
    def increment(self, client: Client) -> int:
        """Atomically add 1; returns the previous value (one far access)."""
        return self.add(client, 1)

    @far_budget(1, ceiling=1, claim="C2")
    def decrement(self, client: Client) -> int:
        """Atomically subtract 1; returns the previous value (one far access)."""
        return self.add(client, -1)

    @far_budget(1, ceiling=1, claim="C2")
    def compare_and_set(self, client: Client, expected: int, new: int) -> bool:
        """Atomic CAS; True if the counter held ``expected`` (one far access)."""
        _, ok = client.cas(self.address, expected, new)
        return ok
