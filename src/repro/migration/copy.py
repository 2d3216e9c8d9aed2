"""The shared bulk-copy engine: one window idiom for repair and migration.

Replica rebuild (:mod:`repro.recovery.repair`) and live extent migration
(:mod:`repro.migration.coordinator`) move bytes the same way: a batch
window of reads, then a batch window of writes — each one
:meth:`~repro.fabric.client.Client.phase` — so a round of N chunks costs
``max(latencies) + (N-1) * issue_ns`` per direction while every chunk is
still counted individually. Both callers route through these helpers so
the charge sequences cannot drift apart.
"""

from __future__ import annotations

from typing import Sequence

from ..fabric.client import Client


def read_window(
    client: Client, reads: Sequence[tuple[int, int]]
) -> list[bytes]:
    """One overlap window of reads; returns the data in request order.

    ``reads`` is ``[(address, length), ...]``. Each read is one charged
    far access; the window overlaps their latency (one doorbell).
    """
    with client.batch():
        return client.phase("read", reads)


def write_window(client: Client, op: str, writes: Sequence[tuple]) -> None:
    """One overlap window of writes, each ``op(*args)`` for ``args`` in
    ``writes``: ``"write"`` ``(address, data)`` for virtual writes (repair)
    or ``"write_phys"`` ``(node, offset, data)`` for migration staging."""
    with client.batch():
        client.phase(op, writes)
