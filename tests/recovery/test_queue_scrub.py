"""Tests for queue scrubbing after client crashes."""

import pytest

from repro.fabric.errors import QueueEmpty
from repro.fabric.wire import WORD, encode_u64
from repro.recovery import QueueScrubber


def drain_all(queue, client):
    out = []
    while True:
        got = queue.try_dequeue(client)
        if got is None:
            got = queue.try_dequeue(client)  # claims need one retry
            if got is None:
                break
        out.append(got)
    return out


class TestCleanQueue:
    def test_scrub_of_healthy_queue_is_noop(self, cluster):
        queue = cluster.far_queue(capacity=32, max_clients=3)
        c = cluster.client()
        for i in range(5):
            queue.enqueue(c, i + 1)
        report = QueueScrubber(queue).scrub(cluster.client())
        assert report.clean
        assert drain_all(queue, c) == [1, 2, 3, 4, 5]

    def test_scrub_preserves_live_window_across_wrap(self, cluster):
        queue = cluster.far_queue(capacity=16, max_clients=2)
        producer, consumer = cluster.client(), cluster.client()
        # Advance around the ring so the window wraps, then leave items in.
        for i in range(30):
            queue.enqueue(producer, i + 1)
            queue.dequeue(consumer)
        for i in range(6):
            queue.enqueue(producer, 100 + i)
        queue.flush_clears(consumer)
        report = QueueScrubber(queue).scrub(cluster.client())
        assert report.orphans_reenqueued == 0
        assert drain_all(queue, consumer) == [100 + i for i in range(6)]


class TestCrashRepairs:
    def test_stranded_slack_pointer_repaired(self, cluster):
        queue = cluster.far_queue(capacity=16, max_clients=3)
        # Hand-craft the crash state a producer leaves when it dies right
        # after its slack-landing saai: tail stranded past the array, item
        # sitting in the slack slot, head already at the wrap point.
        cluster.fabric.write_word(queue.head_addr, queue.array_base)
        cluster.fabric.write_word(queue.tail_addr, queue.slack_base + WORD)
        cluster.fabric.write(queue.slack_base, encode_u64(999))
        report = QueueScrubber(queue).scrub(cluster.client())
        assert report.pointers_repaired == 1
        assert report.migrations_completed == 1
        # The migrated item is inside the repaired window and dequeues.
        assert drain_all(queue, cluster.client()) == [999]

    def test_abandoned_migration_completed(self, cluster):
        queue = cluster.far_queue(capacity=16, max_clients=3)
        producer, consumer = cluster.client(), cluster.client()
        # Lap the ring so wrapped slots are clear, then hand-craft the
        # crash state: item in slack slot 0, pointers already repaired
        # (the dying producer got as far as the pointer CAS).
        for i in range(16):
            queue.enqueue(producer, i + 1)
            queue.dequeue(consumer)
        queue.flush_clears(consumer)
        cluster.fabric.write(queue.slack_base, encode_u64(555))
        report = QueueScrubber(queue).scrub(cluster.client())
        assert report.migrations_completed == 1
        # The migrated item sits outside the live window, so the scrubber
        # also re-enqueued it.
        got = drain_all(queue, consumer)
        assert 555 in got

    def test_orphaned_claim_item_redelivered(self, cluster):
        # Reach a genuine claim through the public API: an empty dequeue
        # whose head lands in the slack region skips the undo and arms a
        # claim on the wrapped slot.
        queue = cluster.far_queue(capacity=12, max_clients=3)
        producer = cluster.client()
        victim = cluster.client()
        other = cluster.client()
        for i in range(queue.capacity):  # advance both pointers to slack
            queue.enqueue(producer, i + 1)
            assert queue.dequeue(victim) == i + 1
        queue.flush_clears(victim)  # isolate the claim from stale clears
        with pytest.raises(QueueEmpty):
            queue.dequeue(victim)  # wrap + empty: claim armed
        assert queue.stats.claims_registered == 1
        queue.enqueue(producer, 42)  # migrates into the claimed slot
        # The head has already wrapped past the slot: 42 is stranded.
        victim.crash()
        report = QueueScrubber(queue).recover_crashed_client(
            victim.client_id, other
        )
        assert report.orphans_reenqueued == 1
        assert report.redelivery_possible
        assert drain_all(queue, other) == [42]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: a dead client's filled claim is overwritten "
        "once the tail laps it, before a later scrub can rescue it",
    )
    def test_orphaned_claim_item_survives_a_late_scrub(self, cluster):
        # As above, but the scrub runs one lap late: nothing consumes the
        # item behind the head, and the tail's next pass stores over it.
        queue = cluster.far_queue(capacity=5, max_clients=2)
        producer, victim = cluster.client(), cluster.client()
        for i in range(queue.capacity):  # advance both pointers to slack
            queue.enqueue(producer, i + 1)
            queue.dequeue(producer)
        with pytest.raises(QueueEmpty):
            queue.dequeue(victim)  # wrap + empty: claim armed on slot 0
        victim.crash()
        queue.enqueue(producer, 42)  # fills the dead claim
        for i in range(queue.capacity):  # the last push wraps onto slot 0
            queue.enqueue(producer, 100 + i)
            queue.dequeue(producer)
        QueueScrubber(queue).recover_crashed_client(victim.client_id, producer)
        assert 42 in drain_all(queue, producer)

    def test_detach_frees_client_slot(self, cluster):
        queue = cluster.far_queue(capacity=32, max_clients=2)
        a, b = cluster.client(), cluster.client()
        queue.enqueue(a, 1)
        queue.enqueue(b, 2)
        a.crash()
        queue.detach_client(a.client_id)
        replacement = cluster.client()
        queue.enqueue(replacement, 3)  # would raise without the detach

    def test_uncleared_consumed_slots_cause_redelivery(self, cluster):
        # The documented at-least-once trade-off of the Fig.1-only mode: a
        # consumer that crashed before flushing its deferred clears gets
        # its items re-delivered.
        queue = cluster.far_queue(
            capacity=32, max_clients=3, clear_batch=100, use_fsaai=False
        )
        producer, victim, other = (
            cluster.client(),
            cluster.client(),
            cluster.client(),
        )
        for i in range(4):
            queue.enqueue(producer, i + 1)
        consumed = [queue.dequeue(victim) for _ in range(4)]
        victim.crash()  # deferred clears never flushed
        report = QueueScrubber(queue).recover_crashed_client(
            victim.client_id, other
        )
        assert report.orphans_reenqueued == 4
        assert sorted(drain_all(queue, other)) == sorted(consumed)
