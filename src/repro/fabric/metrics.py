"""Exact operation accounting.

The paper's key performance metric is the number of far memory accesses
(section 3.1); its scalability discussion (section 7) additionally counts
network traversals and notification traffic. :class:`Metrics` records all
of these exactly — they are structural counts, not timing estimates — so
benchmarks can report the same quantities the paper argues about.

Terminology used throughout the reproduction:

* **far access** — one client-initiated far memory operation (a read,
  write, atomic, Fig. 1 primitive, or scatter/gather). Scatter-gather is
  one far access even when it touches several buffers/nodes: the point of
  the primitive (section 4.2) is combining transfers into one operation.
* **round trip** — request/response exchanges as seen by the client. Equal
  to far accesses for synchronous operations; an indirect access that hits
  the ``ERROR`` policy (section 7.1) costs the client a second round trip.
* **network traversal** — individual fabric link crossings: 2 per round
  trip, plus 1 per memory-side forward hop. This is the quantity section
  7.1 says forwarding reduces.

Under transient faults (:mod:`repro.fabric.faults`), ``far_accesses``
remains the count of *completed* operations — every structural-cost
claim in the paper and the benchmarks is about completed work. Failed
attempts show up in ``timeouts`` (one per timed-out attempt), ``retries``
(re-attempts issued), ``backoff_ns`` (simulated time spent backing off),
and the ``breaker_*`` counters (client-side circuit breaking).

The integrity layer (:mod:`repro.fabric.integrity`) adds
``verified_reads`` (checksum verifications attempted — each is one
completed far access, already in ``far_accesses``), ``verify_misses``
(frames that failed verification; each miss costs exactly one extra far
access, the re-read of the next replica), and ``fence_rejects``
(replicated writes refused by a repair-epoch fence before touching any
replica).

The counters are named once, as the dataclass fields: every ledger
(``snapshot`` / ``delta`` / ``merge`` / ``as_dict``) and the telemetry
registry's per-client gauges derive their list from them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass
class Metrics:
    """Mutable counter bundle attached to a client (or aggregated)."""

    far_accesses: int = 0
    round_trips: int = 0
    network_traversals: int = 0
    near_accesses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    atomic_ops: int = 0
    indirection_forwards: int = 0
    indirection_errors: int = 0
    notifications_received: int = 0
    notification_bytes: int = 0
    loss_warnings: int = 0
    rpcs: int = 0
    rpc_bytes: int = 0
    retries: int = 0
    timeouts: int = 0
    verified_reads: int = 0
    verify_misses: int = 0
    fence_rejects: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    backoff_ns: int = 0
    pipeline_ops: int = 0
    pipeline_flushes: int = 0
    pipeline_stalls: int = 0
    pipeline_charged_ns: int = 0
    overlap_saved_ns: int = 0
    txn_commits: int = 0
    txn_aborts: int = 0
    txn_conflicts: int = 0
    txn_rollforwards: int = 0
    txn_rollbacks: int = 0
    custom: Counter = field(default_factory=Counter)

    @classmethod
    def counter_names(cls) -> tuple[str, ...]:
        """Every first-class counter name, in declaration order (the
        dataclass fields above are the one list)."""
        return cls._INT_FIELDS

    def avg_pipeline_depth(self) -> float:
        """Mean operations per doorbell (submission-window flush). 1.0 is
        fully synchronous; the QP depth is the ceiling."""
        if self.pipeline_flushes == 0:
            return 0.0
        return self.pipeline_ops / self.pipeline_flushes

    def overlap_efficiency(self) -> float:
        """Fraction of serial far latency hidden by overlap: ``saved /
        (saved + charged)``. 0.0 means no overlap; a window of n equal-cost
        ops approaches ``(n - 1) / n``."""
        denom = self.overlap_saved_ns + self.pipeline_charged_ns
        if denom == 0:
            return 0.0
        return self.overlap_saved_ns / denom

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a free-form counter (used by data structures for
        structure-specific events such as slow paths or cache misses)."""
        self.custom[name] += amount

    def snapshot(self) -> "Metrics":
        """A frozen-in-time copy, for before/after deltas in benchmarks."""
        copy = Metrics.__new__(Metrics)
        copy.__dict__.update(self.__dict__)
        copy.custom = Counter(self.custom)
        return copy

    def delta(self, since: "Metrics") -> "Metrics":
        """Counters accumulated since ``since`` (an earlier snapshot)."""
        diff = Metrics.__new__(Metrics)
        new, mine, old = diff.__dict__, self.__dict__, since.__dict__
        for name in self._INT_FIELDS:
            new[name] = mine[name] - old[name]
        # Counter semantics for the free-form counters: zero entries are
        # dropped; a key only ``since`` holds (the source was reset) shows
        # negative.
        custom = new["custom"] = Counter()
        before = since.custom
        for key, value in self.custom.items():
            change = value - before[key]
            if change:
                custom[key] = change
        for key, value in before.items():
            if value and key not in self.custom:
                custom[key] = -value
        return diff

    def merge(self, other: "Metrics") -> None:
        """Add ``other``'s counters into this one (cluster-wide totals)."""
        for name in self._INT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.custom.update(other.custom)

    def reset(self) -> None:
        """Zero every counter."""
        for name in self._INT_FIELDS:
            setattr(self, name, 0)
        self.custom.clear()

    def as_dict(self) -> dict[str, int]:
        """Flat dict of all counters (custom counters prefixed ``custom.``)."""
        out = {name: getattr(self, name) for name in self._INT_FIELDS}
        for key, value in sorted(self.custom.items()):
            out[f"custom.{key}"] = value
        return out

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return "Metrics(" + ", ".join(parts) + ")"


# _INT_FIELDS drives snapshot/delta/merge/reset/as_dict; derived from the
# dataclass fields, so no counter can be missing from a ledger.
Metrics._INT_FIELDS = tuple(f.name for f in fields(Metrics) if f.name != "custom")


def aggregate(metrics: list[Metrics]) -> Metrics:
    """Sum a list of per-client metrics into one cluster-wide total."""
    total = Metrics()
    for m in metrics:
        total.merge(m)
    return total

