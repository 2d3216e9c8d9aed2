"""Word encoding helpers for the simulated fabric.

The fabric is byte addressable, but pointers, versions, counters and the
atomic operations all act on 64-bit little-endian words, matching the
granularity of RDMA and Gen-Z atomics. All integer values stored in far
memory are unsigned 64-bit; signed arithmetic (e.g. a negative delta to
``fetch_add``) wraps modulo 2**64, exactly as hardware would.
"""

from __future__ import annotations

import struct
from typing import Sequence

WORD = 8
"""Size in bytes of a fabric word (64 bits)."""

U64_MASK = (1 << 64) - 1
"""Mask applied to all word arithmetic (wraps like hardware)."""


def encode_u64(value: int) -> bytes:
    """Encode ``value`` (wrapped to unsigned 64-bit) as a little-endian word."""
    return (value & U64_MASK).to_bytes(WORD, "little")


def decode_u64(data: bytes) -> int:
    """Decode a little-endian 64-bit word. ``data`` must be exactly 8 bytes."""
    if len(data) != WORD:
        raise ValueError(f"expected {WORD} bytes, got {len(data)}")
    return int.from_bytes(data, "little")


class Layout:
    """One far record format: named 64-bit little-endian words, in order.

    Far memory has no processor, so the client interprets raw far bytes
    and a record's layout is part of its structure's protocol. Declaring
    it once — ``ITEM = Layout("version key value next")`` — yields the
    record's ``size`` in bytes, its field ``offset`` table and its codec.
    ``unpack`` / ``unpack_from`` / ``iter_unpack`` / ``pack_into`` are the
    precompiled ``struct.Struct``'s own bound C methods (no Python frame
    per call): ``unpack`` demands exactly ``size`` bytes, like
    :func:`decode_u64`, but a wrong-sized buffer raises ``struct.error``;
    ``pack_into`` does not wrap, so callers mask values they do not own.
    """

    def __init__(self, fields: str) -> None:
        self.fields = tuple(fields.split())
        codec = struct.Struct(f"<{len(self.fields)}Q")
        self.size = codec.size
        self.offset = {name: index * WORD for index, name in enumerate(self.fields)}
        self.unpack = codec.unpack
        self.unpack_from = codec.unpack_from
        self.iter_unpack = codec.iter_unpack
        self.pack_into = codec.pack_into
        self._pack = codec.pack

    def pack(self, *values: int) -> bytes:
        """Encode one record, each value wrapped to u64 like :func:`encode_u64`."""
        try:
            return self._pack(*values)
        except struct.error:  # out of u64 range: wrap, as the hardware would
            return self._pack(*(value & U64_MASK for value in values))


U64 = Layout("word")
"""A bare word read or written in place inside a larger buffer."""


def pack_words(values: Sequence[int]) -> bytes:
    """Encode a homogeneous word array (bucket pointers, versions, towers),
    wrapping like :meth:`Layout.pack`."""
    try:
        return struct.pack(f"<{len(values)}Q", *values)
    except struct.error:
        return struct.pack(f"<{len(values)}Q", *(value & U64_MASK for value in values))


def unpack_words(raw: bytes) -> tuple[int, ...]:
    """Decode a word array; ``raw`` must be a whole number of words."""
    return struct.unpack(f"<{len(raw) // WORD}Q", raw)


def to_signed(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed two's complement."""
    value &= U64_MASK
    if value >= 1 << 63:
        return value - (1 << 64)
    return value


def wrap_add(a: int, b: int) -> int:
    """Add two words with 64-bit wraparound (hardware add semantics)."""
    return (a + b) & U64_MASK


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    return value - (value % alignment)

