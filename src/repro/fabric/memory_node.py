"""A single far-memory node.

A memory node is "memory attached to the network": it stores bytes and
executes, memory-side, the small fixed-function operations the fabric
supports — reads, writes, and word atomics (compare-and-swap, fetch-add,
swap), per section 2 of the paper. It has **no application processor**:
anything beyond these operations (and the Fig. 1 extensions executed by
:class:`repro.fabric.fabric.Fabric`) must be composed by clients from
one-sided accesses.

Atomics are executed atomically at the node ("atomicity at the fabric
level, bypassing the processor caches"); in the simulator this is trivially
true because each node applies operations sequentially.

A mutation invokes the node's write hook when one is installed. The
fabric installs it only while the notification subsystem holds a
subscription: memory-side matching is the page-table lookup of section
4.3, and a node whose table is empty has nothing to match.

A node's bytes are demand-zero, as a real pool's DRAM is to software: an
anonymous mapping reads as zeros and takes host memory only for the pages
written, so a cluster costs nothing to build and its resident set grows
with the data stored, not with the capacity declared.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import AddressError, AlignmentError
from .wire import U64, U64_MASK, WORD

WriteHook = Callable[[int, int, int, bytes], None]
"""Callback ``(node_id, offset, length, new_bytes)`` fired after a mutation."""


@dataclass
class NodeStats:
    """Per-node operation counts (used by placement/striping benchmarks)."""

    reads: int = 0
    writes: int = 0
    atomics: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def total_ops(self) -> int:
        """All operations serviced by this node."""
        return self.reads + self.writes + self.atomics


class MemoryNode:
    """One network-attached memory node holding ``size`` bytes."""

    def __init__(self, node_id: int, size: int) -> None:
        if size <= 0:
            raise ValueError("node size must be positive")
        self.node_id = node_id
        self.size = size
        self.stats = NodeStats()
        self._data = mmap.mmap(-1, size)  # demand-zero (module docstring)
        self._write_hook: Optional[WriteHook] = None

    def set_write_hook(self, hook: Optional[WriteHook]) -> None:
        """Install the mutation callback (at most one; the fabric owns it)."""
        self._write_hook = hook

    def _bad_word(self, offset: int) -> None:
        """Raise the error a word op at a bad ``offset`` meets; each word op
        tests the offset inline and calls this only when the test fails."""
        if offset < 0 or offset + WORD > self.size:
            raise AddressError(offset, WORD, f"outside node {self.node_id}")
        if offset % WORD != 0:
            raise AlignmentError(f"word operation at unaligned offset 0x{offset:x}")

    def _fire(self, offset: int, length: int) -> None:
        self._write_hook(self.node_id, offset, length, self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # Plain one-sided operations
    # ------------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """One-sided read of ``length`` bytes at ``offset``."""
        if length < 0 or offset < 0 or offset + length > self.size:
            reason = "negative length" if length < 0 else f"outside node {self.node_id}"
            raise AddressError(offset, length, reason)
        self.stats.reads += 1
        self.stats.bytes_read += length
        return self._data[offset : offset + length]

    def write(self, offset: int, data: bytes) -> None:
        """One-sided write of ``data`` at ``offset``."""
        length = len(data)
        if offset < 0 or offset + length > self.size:
            raise AddressError(offset, length, f"outside node {self.node_id}")
        self._data[offset : offset + length] = data
        self.stats.writes += 1
        self.stats.bytes_written += length
        if self._write_hook is not None and length:
            self._fire(offset, length)

    def read_word(self, offset: int) -> int:
        """Read one aligned 64-bit word."""
        if offset % WORD or not 0 <= offset <= self.size - WORD:
            self._bad_word(offset)
        self.stats.reads += 1
        self.stats.bytes_read += WORD
        return U64.unpack_from(self._data, offset)[0]

    def write_word(self, offset: int, value: int) -> None:
        """Write one aligned 64-bit word."""
        if offset % WORD or not 0 <= offset <= self.size - WORD:
            self._bad_word(offset)
        U64.pack_into(self._data, offset, value & U64_MASK)
        self.stats.writes += 1
        self.stats.bytes_written += WORD
        if self._write_hook is not None:
            self._fire(offset, WORD)

    def corrupt_bit(self, offset: int, bit: int) -> None:
        """Flip one stored bit *silently* (fault injection only).

        Models DRAM rot / a misbehaving DMA engine: no write hook fires
        (the notification subsystem cannot see hardware decay), no stats
        move (the node did not service an operation), so the corruption is
        observable only through the bytes themselves — exactly what the
        checksum framing layer exists to catch.
        """
        if not 0 <= offset < self.size:
            raise AddressError(offset, 1, f"outside node {self.node_id}")
        if not 0 <= bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {bit}")
        self._data[offset] ^= 1 << bit

    # ------------------------------------------------------------------
    # Fabric-level atomics (section 2: CAS as in RDMA / Gen-Z)
    # ------------------------------------------------------------------

    def compare_and_swap(self, offset: int, expected: int, new: int) -> tuple[int, bool]:
        """Atomic CAS; returns ``(old_value, swapped)``."""
        if offset % WORD or not 0 <= offset <= self.size - WORD:
            self._bad_word(offset)
        self.stats.atomics += 1
        old = U64.unpack_from(self._data, offset)[0]
        if old == expected:
            U64.pack_into(self._data, offset, new & U64_MASK)
            if self._write_hook is not None:
                self._fire(offset, WORD)
            return old, True
        return old, False

    def fetch_add(self, offset: int, delta: int) -> int:
        """Atomic fetch-and-add with 64-bit wraparound; returns old value."""
        if offset % WORD or not 0 <= offset <= self.size - WORD:
            self._bad_word(offset)
        self.stats.atomics += 1
        old = U64.unpack_from(self._data, offset)[0]
        U64.pack_into(self._data, offset, (old + delta) & U64_MASK)
        if self._write_hook is not None:
            self._fire(offset, WORD)
        return old

    def swap(self, offset: int, value: int) -> int:
        """Atomic exchange; returns old value."""
        if offset % WORD or not 0 <= offset <= self.size - WORD:
            self._bad_word(offset)
        self.stats.atomics += 1
        old = U64.unpack_from(self._data, offset)[0]
        U64.pack_into(self._data, offset, value & U64_MASK)
        if self._write_hook is not None:
            self._fire(offset, WORD)
        return old

    def __repr__(self) -> str:
        return f"MemoryNode(id={self.node_id}, size={self.size})"
