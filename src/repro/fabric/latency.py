"""Cost model and simulated clocks.

The paper's performance argument (section 3.1) rests on one asymmetry:
far accesses cost O(1 microsecond) while near (local) accesses cost
O(100 ns) and are often hidden by processor caches. The simulator makes
that asymmetry explicit: every operation a client issues advances that
client's :class:`SimClock` by an amount computed by the :class:`CostModel`.

The latencies are section 3.1's constants, not options: ``far_ns = 1000``
(O(1 us) far access), ``near_ns = 100`` (O(100 ns) local access), and a
bandwidth term calibrated so a 1 KB transfer completes in about 2 us
("existing systems can transfer 1 KB in 1 us using RDMA over InfiniBand
FDR 4x" is the wire time alone; we add it on top of the base round-trip
latency). Every fabric prices its accesses with the one model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class CostModel:
    """Latency constants of the simulated fabric.

    Attributes:
        near_ns: cost of one client-local (cache) access.
        far_ns: base round-trip cost of one far memory access.
        byte_ns: per-byte wire cost for payload beyond ``inline_bytes``.
        inline_bytes: payload carried "for free" inside the base round trip
            (small reads/writes/atomics ride in a single fabric packet).
        forward_hop_ns: extra cost when a memory node forwards an indirect
            request to a sibling node (section 7.1, forwarding policy).
        issue_ns: per-operation posting overhead when a client overlaps
            several operations in one batch window (doorbell batching).
        timeout_ns: how long a client waits before declaring a one-sided
            operation lost (completion-queue timeout). Deliberately an
            order of magnitude above ``far_ns``: real dataplanes cannot
            distinguish "slow" from "dead" any faster, which is exactly
            why timeouts dominate tail latency under faults.
    """

    def __init__(self) -> None:
        # Instance attributes, not class ones: CPython 3.11 reads an
        # instance's own attributes faster, and every far access reads two.
        self.near_ns = 100.0
        self.far_ns = 1_000.0
        self.byte_ns = 1.0
        self.inline_bytes = 256
        self.forward_hop_ns = 300.0
        self.issue_ns = 50.0
        self.timeout_ns = 10_000.0

    def far_access_ns(self, nbytes: int = 0, forward_hops: int = 0) -> float:
        """Cost of one far access moving ``nbytes`` with ``forward_hops`` forwards:
        ``far_ns`` + wire cost of the bytes beyond ``inline_bytes`` + ``forward_hops
        * forward_hop_ns``, a zero term skipped (exact: ``x + 0.0 == x``)."""
        ns = self.far_ns
        if nbytes > self.inline_bytes:
            ns += (nbytes - self.inline_bytes) * self.byte_ns
        if forward_hops:
            ns += forward_hops * self.forward_hop_ns
        return ns

    def window_ns(self, charges: "Sequence[float]") -> float:
        """Cost of flushing one overlap window of per-op latency charges:
        the slowest operation hides all the others, and each additional
        posting pays only the doorbell overhead (``issue_ns``)."""
        if not charges:
            return 0.0
        return max(charges) + (len(charges) - 1) * self.issue_ns


@dataclass
class SimClock:
    """A per-client simulated clock, advanced by the cost model.

    Clients are independent execution streams; when they synchronise
    (e.g. at a barrier) callers use :meth:`sync_to` to merge timelines.
    """

    now_ns: float = 0.0

    def advance(self, delta_ns: float) -> float:
        """Advance the clock by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError("time cannot go backwards")
        self.now_ns += delta_ns
        return self.now_ns

    def sync_to(self, other_now_ns: float) -> float:
        """Move this clock forward to ``other_now_ns`` if it is behind."""
        if other_now_ns > self.now_ns:
            self.now_ns = other_now_ns
        return self.now_ns

    def reset(self) -> None:
        """Reset the clock to time zero."""
        self.now_ns = 0.0
