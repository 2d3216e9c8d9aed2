"""Crash recovery for far queues.

A crashed client can leave a :class:`~repro.core.queue.FarQueue` in three
recoverable states (far memory itself survives, section 2):

1. **Pointer stuck in slack** — the client died between its fast-path
   ``faai``/``saai`` and the wrap-around repair. Any client can finish
   the CAS repair.
2. **Abandoned slack migration** — an enqueuer died after ``saai`` put
   its item in a slack slot but before the item was moved to its wrapped
   array slot. The item is intact in the slack slot; the scrubber
   completes the migration.
3. **Orphaned items** — slots holding values outside the live
   ``[head, tail)`` window: a dequeuer died while holding an armed empty
   claim (its slot got filled later and was never consumed), or died
   before flushing its deferred slot clears. The scrubber re-enqueues
   them.

Case 3 is where semantics are chosen: a slot consumed-but-not-yet-cleared
by a crashed consumer is indistinguishable from a claimed-but-never-
consumed slot, so re-enqueueing gives **at-least-once** delivery — the
standard trade-off for queues without consumer acknowledgement logs.
``ScrubReport.redelivery_possible`` tells the caller when duplicates may
have been introduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.queue import EMPTY, FarQueue
from ..fabric.client import Client
from ..fabric.errors import FarTimeoutError, QueueFull
from ..fabric.wire import WORD, encode_u64, pack_words, unpack_words


@dataclass
class ScrubReport:
    """What one scrub pass found and fixed."""

    pointers_repaired: int = 0
    migrations_completed: int = 0
    orphans_reenqueued: int = 0
    redelivery_possible: bool = False
    restarts: int = 0
    unrecovered: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the queue needed no repair."""
        return (
            self.pointers_repaired == 0
            and self.migrations_completed == 0
            and self.orphans_reenqueued == 0
            and not self.unrecovered
        )


class QueueScrubber:
    """Repairs a far queue after client crashes.

    Run while the queue is quiescent (no other clients mid-operation):
    recovery after fail-stop crashes is naturally a coordinator task, and
    the scrubber mutates the live window.
    """

    def __init__(self, queue: FarQueue) -> None:
        self.queue = queue
        # Orphan values rescued (slots already cleared) by a pass that was
        # then abandoned on a timeout: they live only in scrubber memory
        # until re-enqueued, so they must survive across restarted passes
        # or recovery itself would lose items.
        self._pending_reenqueue: list[int] = []

    def scrub(
        self,
        client: Client,
        survivors: tuple[Client, ...] = (),
        *,
        max_restarts: int = 2,
    ) -> ScrubReport:
        """One full repair pass; the scrubbing client pays all far accesses.

        Pass the surviving clients in ``survivors``: recovery begins by
        quiescing them (flushing their pending slot clears), because a
        stale blind clear landing *after* the scrubber re-enqueues into
        the same slot would destroy the recovered value.

        Transient-fault tolerant: every repair step is idempotent (repair
        CAS, migrate-if-still-empty, clear-then-reenqueue), so when a
        :class:`~repro.fabric.errors.FarTimeoutError` escapes the
        client's retry budget mid-pass the scrubber simply restarts the
        whole pass — already-completed repairs are no-ops the second time
        — up to ``max_restarts`` times before letting the error
        propagate. ``ScrubReport.restarts`` records how many passes were
        abandoned.
        """
        # One report accumulates across restarted passes: a repair finished
        # before a pass was abandoned is a no-op when re-run, so it is
        # counted exactly once — by the pass that performed it.
        report = ScrubReport()
        last_error: FarTimeoutError | None = None
        for restart in range(max_restarts + 1):
            try:
                self._scrub_pass(client, survivors, report)
            except FarTimeoutError as err:
                last_error = err
                report.restarts = restart + 1
                continue
            return report
        assert last_error is not None
        raise last_error

    def _scrub_pass(
        self,
        client: Client,
        survivors: tuple[Client, ...],
        report: ScrubReport,
    ) -> ScrubReport:
        queue = self.queue
        for survivor in survivors:
            if survivor.alive and survivor.client_id in queue._clients:
                queue.flush_clears(survivor)

        # (1) Pointers stranded in the slack region.
        head, tail = queue._pointers(client)
        for pointer_addr, value in ((queue.head_addr, head), (queue.tail_addr, tail)):
            if value >= queue.slack_base:
                queue._repair_pointer(client, pointer_addr)
                report.pointers_repaired += 1
        if report.pointers_repaired:
            head, tail = queue._pointers(client)

        # (2) Items abandoned in slack slots mid-migration.
        slack = client.read(queue.slack_base, queue.slack_slots * WORD)
        for i, value in enumerate(unpack_words(slack)):
            if value == EMPTY:
                continue
            slack_addr = queue.slack_base + i * WORD
            wrapped = queue._wrapped(slack_addr)
            resident = client.read_u64(wrapped)
            if resident == EMPTY:
                client.wscatter(  # fmlint: disable=FM001 (crash-ordered, one migration at a time)
                    [(wrapped, WORD), (slack_addr, WORD)],
                    pack_words((value, EMPTY)),
                )
            else:
                # The wrapped slot was already filled (the migration had
                # completed but the slack clear was lost): just clear.
                # fmlint: disable=FM001 (crash-ordered, one migration at a time)
                client.write_u64(slack_addr, EMPTY)
            report.migrations_completed += 1

        # (3) Orphaned values outside the live [head, tail) window.
        head_lp = queue._logical(head)
        tail_lp = queue._logical(tail)
        array = client.read(queue.array_base, queue.capacity * WORD)
        orphans: list[int] = []
        for slot, value in enumerate(unpack_words(array)):
            if value == EMPTY:
                continue
            if self._in_window(slot, head_lp, tail_lp, self.queue.max_clients):
                continue
            orphans.append(slot)
        # Clear every orphan slot first (one scatter), *then* re-enqueue
        # the values: enqueueing first could advance the tail over a
        # not-yet-cleared orphan slot and overwrite it.
        if orphans:
            raw = client.rgather(
                [(queue.array_base + slot * WORD, WORD) for slot in orphans]
            )
            self._pending_reenqueue.extend(v for v in unpack_words(raw) if v != EMPTY)
            client.wscatter(
                [(queue.array_base + slot * WORD, WORD) for slot in orphans],
                encode_u64(EMPTY) * len(orphans),
            )
        # Values are dropped from the pending list only once enqueue
        # returns: a timeout mid-list leaves the remainder staged for the
        # restarted pass (an enqueue that committed before its timeout is
        # re-delivered — at-least-once, never lost).
        while self._pending_reenqueue:
            value = self._pending_reenqueue[0]
            try:
                queue.enqueue(client, value)
                report.orphans_reenqueued += 1
            except QueueFull:
                # No room right now: hand the value back to the caller to
                # re-inject once consumers drain (never silently dropped).
                report.unrecovered.append(value)
            self._pending_reenqueue.pop(0)
        report.redelivery_possible = report.orphans_reenqueued > 0
        return report

    @staticmethod
    def _in_window(slot: int, head_lp: int, tail_lp: int, max_clients: int) -> bool:
        """Is ``slot`` inside the live [head, tail) window (mod capacity)?

        ``head_lp`` past ``tail_lp`` is ambiguous between dequeuer
        overshoot (empty claims) and a wrapped window. The two are
        separable: overshoot is at most ``max_clients`` slots (one armed
        claim per client), while a genuine wrapped window of occupancy
        <= usable capacity implies a difference of at least
        ``2 * max_clients``. Differences in between cannot occur; they are
        treated as a (safe) genuine window."""
        if head_lp == tail_lp:
            return False
        if head_lp < tail_lp:
            return head_lp <= slot < tail_lp
        if head_lp - tail_lp <= max_clients:
            return False  # overshoot: the queue is empty
        return slot >= head_lp or slot < tail_lp

    def recover_crashed_client(
        self,
        queue_client_id: int,
        scrubbing_client: Client,
        survivors: tuple[Client, ...] = (),
    ) -> ScrubReport:
        """Convenience: detach the dead client from the queue, quiesce the
        survivors, then scrub."""
        self.queue.detach_client(queue_client_id)
        return self.scrub(scrubbing_client, survivors=survivors)
