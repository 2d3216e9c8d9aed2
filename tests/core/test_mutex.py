"""Unit tests for far mutexes (section 5.1)."""

import pytest

from repro.core.mutex import MutexError


@pytest.fixture
def mutex(cluster):
    return cluster.far_mutex()


class TestAcquireRelease:
    def test_acquire_free_mutex(self, cluster, mutex):
        c = cluster.client()
        assert mutex.try_acquire(c)
        assert mutex.holder(c) == c.client_id

    def test_second_acquire_fails(self, cluster, mutex):
        c1, c2 = cluster.client(), cluster.client()
        assert mutex.try_acquire(c1)
        assert not mutex.try_acquire(c2)
        assert mutex.stats.cas_failures == 1

    def test_release_frees(self, cluster, mutex):
        c1, c2 = cluster.client(), cluster.client()
        mutex.try_acquire(c1)
        mutex.release(c1)
        assert mutex.try_acquire(c2)

    def test_release_by_non_holder_raises(self, cluster, mutex):
        c1, c2 = cluster.client(), cluster.client()
        mutex.try_acquire(c1)
        with pytest.raises(MutexError):
            mutex.release(c2)

    def test_release_unheld_raises(self, cluster, mutex):
        with pytest.raises(MutexError):
            mutex.release(cluster.client())

    def test_acquire_costs_one_far_access(self, cluster, mutex):
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        mutex.try_acquire(c)
        assert c.metrics.delta(snapshot).far_accesses == 1


class TestNotificationHandoff:
    def test_waiter_notified_on_release(self, cluster, mutex):
        holder, waiter = cluster.client(), cluster.client()
        mutex.try_acquire(holder)
        sub = mutex.acquire_or_wait(waiter)
        assert sub is not None
        assert waiter.pending_notifications() == 0
        mutex.release(holder)
        assert waiter.pending_notifications() == 1
        waiter.poll_notifications()
        assert mutex.retry_on_free(waiter, sub)
        assert mutex.holder(holder) == waiter.client_id

    def test_acquire_or_wait_fastpath(self, cluster, mutex):
        c = cluster.client()
        assert mutex.acquire_or_wait(c) is None  # acquired immediately

    def test_lost_race_keeps_subscription_armed(self, cluster, mutex):
        holder, w1, w2 = cluster.client(), cluster.client(), cluster.client()
        mutex.try_acquire(holder)
        sub1 = mutex.acquire_or_wait(w1)
        sub2 = mutex.acquire_or_wait(w2)
        mutex.release(holder)
        w1.poll_notifications()
        w2.poll_notifications()
        assert mutex.retry_on_free(w1, sub1)  # w1 wins
        assert not mutex.retry_on_free(w2, sub2)  # w2 loses, stays armed
        mutex.release(w1)
        assert w2.pending_notifications() == 1  # notified again
        w2.poll_notifications()
        assert mutex.retry_on_free(w2, sub2)

    def test_waiting_avoids_far_polling(self, cluster, mutex):
        # The whole point: a blocked waiter spends no far accesses while
        # blocked (contrast with spinning on read_u64).
        holder, waiter = cluster.client(), cluster.client()
        mutex.try_acquire(holder)
        mutex.acquire_or_wait(waiter)
        blocked = waiter.metrics.far_accesses
        for _ in range(100):  # time passes; waiter polls only its inbox
            waiter.poll_notifications()
        assert waiter.metrics.far_accesses == blocked

    def test_stats(self, cluster, mutex):
        holder, waiter = cluster.client(), cluster.client()
        mutex.try_acquire(holder)
        mutex.acquire_or_wait(waiter)
        mutex.release(holder)
        assert mutex.stats.acquires == 1
        assert mutex.stats.notify_waits == 1
        assert mutex.stats.releases == 1
