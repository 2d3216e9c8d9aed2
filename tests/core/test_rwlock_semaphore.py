"""Unit tests for the far reader-writer lock and counting semaphore."""

import pytest

from repro.core.mutex import MutexError


class TestRWLock:
    def test_many_readers(self, cluster):
        lock = cluster.far_rwlock()
        readers = [cluster.client() for _ in range(4)]
        for r in readers:
            assert lock.try_acquire_read(r)
        assert lock.readers(readers[0]) == 4

    def test_writer_excludes_readers(self, cluster):
        lock = cluster.far_rwlock()
        writer, reader = cluster.client(), cluster.client()
        assert lock.try_acquire_write(writer)
        assert not lock.try_acquire_read(reader)
        lock.release_write(writer)
        assert lock.try_acquire_read(reader)

    def test_readers_exclude_writer(self, cluster):
        lock = cluster.far_rwlock()
        reader, writer = cluster.client(), cluster.client()
        lock.try_acquire_read(reader)
        assert not lock.try_acquire_write(writer)
        lock.release_read(reader)
        assert lock.try_acquire_write(writer)

    def test_writer_excludes_writer(self, cluster):
        lock = cluster.far_rwlock()
        a, b = cluster.client(), cluster.client()
        assert lock.try_acquire_write(a)
        assert not lock.try_acquire_write(b)

    def test_reader_backout_leaves_clean_state(self, cluster):
        lock = cluster.far_rwlock()
        writer, reader = cluster.client(), cluster.client()
        lock.try_acquire_write(writer)
        lock.try_acquire_read(reader)  # blocked + backed out
        lock.release_write(writer)
        assert lock.readers(reader) == 0
        assert lock.try_acquire_write(reader)  # state word is back to 0

    def test_notifye_wakeup_on_full_release(self, cluster):
        lock = cluster.far_rwlock()
        r1, r2, writer = cluster.client(), cluster.client(), cluster.client()
        lock.try_acquire_read(r1)
        lock.try_acquire_read(r2)
        assert not lock.try_acquire_write(writer)
        sub = lock.subscribe_free(writer)
        lock.release_read(r1)
        assert writer.pending_notifications() == 0  # still one reader
        lock.release_read(r2)
        assert writer.pending_notifications() == 1  # state hit 0
        writer.poll_notifications()
        assert lock.try_acquire_write(writer)
        cluster.notifications.unsubscribe(sub)

    def test_misuse_raises(self, cluster):
        lock = cluster.far_rwlock()
        c = cluster.client()
        with pytest.raises(MutexError):
            lock.release_read(c)
        with pytest.raises(MutexError):
            lock.release_write(c)

    def test_read_acquire_is_one_far_access(self, cluster):
        lock = cluster.far_rwlock()
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        lock.try_acquire_read(c)
        assert c.metrics.delta(snapshot).far_accesses == 1


class TestSemaphore:
    def test_permits_flow(self, cluster):
        sem = cluster.far_semaphore(2)
        a, b, c = cluster.client(), cluster.client(), cluster.client()
        assert sem.try_acquire(a)
        assert sem.try_acquire(b)
        assert not sem.try_acquire(c)
        sem.release(a)
        assert sem.try_acquire(c)

    def test_available(self, cluster):
        sem = cluster.far_semaphore(3)
        c = cluster.client()
        assert sem.available(c) == 3
        sem.try_acquire(c)
        assert sem.available(c) == 2

    def test_over_release_rejected(self, cluster):
        sem = cluster.far_semaphore(1)
        c = cluster.client()
        with pytest.raises(MutexError):
            sem.release(c)
        assert sem.available(c) == 1  # the faulty bump was rolled back

    def test_notification_retry(self, cluster):
        sem = cluster.far_semaphore(1)
        holder, waiter = cluster.client(), cluster.client()
        assert sem.acquire_or_wait(holder) is None
        sub = sem.acquire_or_wait(waiter)
        assert sub is not None
        sem.release(holder)
        assert waiter.pending_notifications() >= 1
        waiter.poll_notifications()
        assert sem.retry(waiter, sub)

    def test_acquire_is_one_far_access(self, cluster):
        sem = cluster.far_semaphore(4)
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        sem.try_acquire(c)
        assert c.metrics.delta(snapshot).far_accesses == 1

    def test_permits_validated(self, cluster):
        with pytest.raises(ValueError):
            cluster.far_semaphore(0)
