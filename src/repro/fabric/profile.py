"""Operation-level profiling over the exact metrics.

The metrics counters say *how much* a client spent; the profiler says
*on what*. Wrap logical operations in :meth:`Profiler.measure` and get a
per-label ledger of far accesses, round trips, bytes, near accesses,
pipeline behaviour and simulated time — the same breakdown the paper's
tables reason in, for any application code built on this library.

The profiler measures; it never attaches. ``measure`` takes the
client's own inclusive metrics delta and clock delta over the block and
runs the block inside ``client.trace(label)``, so a profiled block also
shows up (with events, causality, and histograms) in a tracer already
attached to the client, while an untraced client stays untraced.

Example::

    profiler = Profiler()
    with profiler.measure(client, "lookup"):
        tree.get(client, key)
    print(profiler.render())
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .client import Client
from .metrics import Metrics


@dataclass
class ProfileRow:
    """Accumulated costs for one label."""

    label: str
    count: int = 0
    far_accesses: int = 0
    round_trips: int = 0
    near_accesses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    notifications: int = 0
    pipeline_ops: int = 0
    pipeline_stalls: int = 0
    pipeline_charged_ns: int = 0
    overlap_saved_ns: int = 0
    time_ns: float = 0.0

    def far_per_op(self) -> float:
        """Average far accesses per measured operation."""
        return self.far_accesses / self.count if self.count else 0.0

    def ns_per_op(self) -> float:
        """Average simulated nanoseconds per measured operation."""
        return self.time_ns / self.count if self.count else 0.0

    def overlap_efficiency(self) -> float:
        """Fraction of this label's serial far latency hidden by pipeline
        overlap — same definition as ``Metrics.overlap_efficiency``."""
        denom = self.overlap_saved_ns + self.pipeline_charged_ns
        if denom == 0:
            return 0.0
        return self.overlap_saved_ns / denom


class Profiler:
    """A per-label cost ledger (reusable across clients).

    Rows accumulate from each measured block's metrics and clock deltas —
    the same numbers a tracer span over the block reports, so measuring
    never conflicts with tracing.
    """

    def __init__(self) -> None:
        self.rows: dict[str, ProfileRow] = {}

    def _absorb(self, label: str, delta: Metrics, duration_ns: float) -> None:
        row = self.rows.setdefault(label, ProfileRow(label=label))
        row.count += 1
        row.far_accesses += delta.far_accesses
        row.round_trips += delta.round_trips
        row.near_accesses += delta.near_accesses
        row.bytes_read += delta.bytes_read
        row.bytes_written += delta.bytes_written
        row.notifications += delta.notifications_received
        row.pipeline_ops += delta.pipeline_ops
        row.pipeline_stalls += delta.pipeline_stalls
        row.pipeline_charged_ns += delta.pipeline_charged_ns
        row.overlap_saved_ns += delta.overlap_saved_ns
        row.time_ns += duration_ns

    @contextmanager
    def measure(self, client: Client, label: str) -> Iterator[None]:
        """Attribute everything ``client`` does inside the block to
        ``label``. Nesting attributes costs to *both* labels (the deltas
        are inclusive)."""
        before, start_ns = client.metrics.snapshot(), client.clock.now_ns
        try:
            with client.trace(label):
                yield
        finally:
            self._absorb(label, client.metrics.delta(before), client.clock.now_ns - start_ns)

    def row(self, label: str) -> ProfileRow:
        """The accumulated row for ``label`` (empty row if never measured)."""
        return self.rows.get(label, ProfileRow(label=label))

    def render(self) -> str:
        """A fixed-width text table, sorted by total simulated time."""
        header = (
            f"{'label':<24} {'count':>7} {'far/op':>8} {'ns/op':>10} "
            f"{'B read':>10} {'B written':>10} {'notifs':>7} {'overlap':>8}"
        )
        lines = [header, "-" * len(header)]
        for row in sorted(self.rows.values(), key=lambda r: -r.time_ns):
            lines.append(
                f"{row.label:<24} {row.count:>7} {row.far_per_op():>8.2f} "
                f"{row.ns_per_op():>10.1f} {row.bytes_read:>10} "
                f"{row.bytes_written:>10} {row.notifications:>7} "
                f"{row.overlap_efficiency():>8.2f}"
            )
        return "\n".join(lines)
