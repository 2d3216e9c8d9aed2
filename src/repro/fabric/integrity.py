"""Checksum framing: end-to-end integrity for far-memory blocks.

Far memory has no application processor (section 2), so it cannot verify
what it stores — integrity, like replication, must be client-driven.
This module defines the *frame*, the unit of client-verifiable storage:

    +----------------+----------------+----------------------+
    |  crc word (8B) | version word   |  payload             |
    +----------------+----------------+----------------------+

* **crc word** — CRC-32 (widened to a fabric word) over ``version word +
  payload``. Covering the version means a torn write that lands only the
  crc word — or only part of the payload — can never verify. CRC-32's
  Hamming distance is 4 for frames under ~11 KiB, so every 1–3 bit
  corruption is detected.
* **version word** — a monotonically increasing writer stamp. It is
  *not* a concurrency-control token (single-writer regions remain the
  contract, as for :class:`~repro.fabric.replication.ReplicatedRegion`);
  it lets repair and audit tooling tell a stale-but-intact frame from a
  corrupt one.
* **payload** — the caller's bytes, opaque to this layer.

Both failure modes the fault injector models surface identically at read
time: a ``CORRUPT`` bit flip breaks the CRC directly, and a ``TORN``
write leaves a prefix whose CRC covers bytes that were never written.
:func:`try_unframe` returns ``None`` for either; callers with replicas
re-read the next copy, callers without raise
:class:`~repro.fabric.errors.FarCorruptionError`.

Cost accounting: a frame is read or written in **one far access** (the
CRC and version ride in the same transfer, costing only
:data:`FRAME_OVERHEAD` extra bytes); each verification *miss* costs
exactly one extra far access — the re-read of the next replica.
"""

from __future__ import annotations

import zlib
from typing import Optional

from .wire import U64_MASK, WORD, Layout

FRAME = Layout("crc version")  # then the payload
FRAME_OVERHEAD = FRAME.size
"""Bytes of framing (crc word + version word) prepended to each payload."""
_COVERED = FRAME.offset["version"]  # the crc covers every byte after itself


def frame_size(payload_len: int) -> int:
    """On-fabric bytes for a frame holding ``payload_len`` payload bytes."""
    if payload_len <= 0:
        raise ValueError("frame payload length must be positive")
    return payload_len + FRAME_OVERHEAD


def frame_block(payload: bytes, version: int) -> bytes:
    """Wrap ``payload`` in a crc+version frame, ready for one far write."""
    covered = (version & U64_MASK).to_bytes(WORD, "little") + payload
    return zlib.crc32(covered).to_bytes(WORD, "little") + covered


def try_unframe(frame: bytes) -> Optional[tuple[int, bytes]]:
    """Verify and open a frame.

    Returns ``(version, payload)`` when the stored CRC matches, ``None``
    when it does not (corrupted, torn, or never initialised). Never
    raises on bad data — the caller decides between replica failover and
    :class:`~repro.fabric.errors.FarCorruptionError`.
    """
    if len(frame) <= FRAME_OVERHEAD:
        return None
    stored, version = FRAME.unpack_from(frame)
    if zlib.crc32(frame[_COVERED:]) != stored:
        return None
    return version, frame[FRAME.size :]
