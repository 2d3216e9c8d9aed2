"""Unit tests for far barriers (section 5.1)."""

import pytest

from repro.core.barrier import BarrierError


class TestArrival:
    def test_last_arriver_flagged(self, cluster):
        barrier = cluster.far_barrier(3)
        clients = [cluster.client() for _ in range(3)]
        tickets = [barrier.arrive(c) for c in clients]
        assert [t.is_last for t in tickets] == [False, False, True]

    def test_single_participant(self, cluster):
        barrier = cluster.far_barrier(1)
        ticket = barrier.arrive(cluster.client())
        assert ticket.is_last

    def test_arrival_is_one_far_access_plus_subscription(self, cluster):
        barrier = cluster.far_barrier(2)
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        barrier.arrive(c)
        # One decrement + one subscription install.
        assert c.metrics.delta(snapshot).far_accesses == 2

    def test_last_arrival_is_exactly_one_far_access(self, cluster):
        barrier = cluster.far_barrier(2)
        barrier.arrive(cluster.client())
        last = cluster.client()
        snapshot = last.metrics.snapshot()
        barrier.arrive(last)
        assert last.metrics.delta(snapshot).far_accesses == 1

    def test_over_arrival_raises(self, cluster):
        barrier = cluster.far_barrier(1)
        barrier.arrive(cluster.client())
        with pytest.raises(BarrierError):
            barrier.arrive(cluster.client())

    def test_participants_validated(self, cluster):
        with pytest.raises(ValueError):
            cluster.far_barrier(0)


class TestCompletion:
    def test_waiters_notified_when_counter_hits_zero(self, cluster):
        barrier = cluster.far_barrier(3)
        clients = [cluster.client() for _ in range(3)]
        tickets = [barrier.arrive(clients[0]), barrier.arrive(clients[1])]
        assert not barrier.wait_done(clients[0], tickets[0])
        barrier.arrive(clients[2])  # last
        assert barrier.wait_done(clients[0], tickets[0])
        assert barrier.wait_done(clients[1], tickets[1])

    def test_waiting_costs_no_far_accesses(self, cluster):
        barrier = cluster.far_barrier(2)
        waiter = cluster.client()
        ticket = barrier.arrive(waiter)
        blocked = waiter.metrics.far_accesses
        barrier.wait_done(waiter, ticket)  # not done yet
        barrier.arrive(cluster.client())
        assert barrier.wait_done(waiter, ticket)
        assert waiter.metrics.far_accesses == blocked

    def test_poll_is_the_expensive_alternative(self, cluster):
        barrier = cluster.far_barrier(2)
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        barrier.poll(c)
        barrier.poll(c)
        assert c.metrics.delta(snapshot).far_accesses == 2

    def test_foreign_notifications_returned_to_inbox(self, cluster):
        barrier = cluster.far_barrier(2)
        waiter = cluster.client()
        # An unrelated subscription delivering into the same inbox.
        unrelated = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(waiter, unrelated, 8)
        ticket = barrier.arrive(waiter)
        cluster.client().write_u64(unrelated, 1)
        barrier.arrive(cluster.client())
        assert barrier.wait_done(waiter, ticket)
        assert waiter.pending_notifications() == 1  # the unrelated one


class TestReuse:
    def test_reset_rearms(self, cluster):
        barrier = cluster.far_barrier(2)
        c1, c2 = cluster.client(), cluster.client()
        barrier.arrive(c1)
        t2 = barrier.arrive(c2)
        assert t2.is_last
        barrier.reset(c2)
        assert barrier.generation == 1
        t1b = barrier.arrive(c1)
        t2b = barrier.arrive(c2)
        assert t2b.is_last and not t1b.is_last
