"""Tests for lease-based crash-recoverable mutexes."""

import pytest

from repro.core.mutex import MutexError
from repro.recovery import LeasedFarMutex


@pytest.fixture
def mutex(cluster):
    return LeasedFarMutex.create(cluster.allocator, ttl_epochs=2)


class TestHealthyPath:
    def test_acquire_release(self, cluster, mutex):
        c = cluster.client()
        assert mutex.try_acquire(c)
        assert mutex.holder(c) == c.client_id
        mutex.release(c)
        assert mutex.holder(c) is None

    def test_contention(self, cluster, mutex):
        c1, c2 = cluster.client(), cluster.client()
        assert mutex.try_acquire(c1)
        assert not mutex.try_acquire(c2)
        assert mutex.stats.contended == 1

    def test_renewal_extends_lease(self, cluster, mutex):
        holder, other = cluster.client(), cluster.client()
        assert mutex.try_acquire(holder)
        for _ in range(5):  # epochs pass, but the holder heartbeats
            mutex.tick(other)
            mutex.renew(holder)
            assert not mutex.try_acquire(other)

    def test_renew_requires_ownership(self, cluster, mutex):
        c1, c2 = cluster.client(), cluster.client()
        mutex.try_acquire(c1)
        with pytest.raises(MutexError):
            mutex.renew(c2)

    def test_tick_returns_the_epoch_it_wrote(self, cluster, mutex):
        c = cluster.client()
        ticks = [(mutex.tick(c), c.read_u64(mutex.epoch_addr)) for _ in range(3)]
        assert ticks == [(1, 1), (2, 2), (3, 3)]

    def test_acquire_cost(self, cluster, mutex):
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        mutex.try_acquire(c)
        # Gather + CAS + lease write.
        assert c.metrics.delta(snapshot).far_accesses == 3


class TestCrashTakeover:
    def test_expired_lease_taken_over(self, cluster, mutex):
        holder, survivor = cluster.client(), cluster.client()
        assert mutex.try_acquire(holder)
        holder.crash()
        # Lease still valid: takeover refused.
        assert not mutex.try_acquire(survivor)
        # Epochs pass without renewal; the lease expires.
        mutex.tick(survivor)
        mutex.tick(survivor)
        mutex.tick(survivor)
        assert mutex.try_acquire(survivor)
        assert mutex.stats.takeovers == 1
        assert mutex.holder(survivor) == survivor.client_id

    def test_zombie_release_is_fenced(self, cluster, mutex):
        # A stalled (not crashed) holder whose lease expired must not be
        # able to release the lock out from under the new owner.
        slow, fast = cluster.client(), cluster.client()
        assert mutex.try_acquire(slow)
        for _ in range(3):
            mutex.tick(fast)
        assert mutex.try_acquire(fast)  # takeover
        with pytest.raises(MutexError):
            mutex.release(slow)  # zombie fenced by the CAS
        mutex.release(fast)

    def test_takeover_race_one_winner(self, cluster, mutex):
        holder, a, b = cluster.client(), cluster.client(), cluster.client()
        mutex.try_acquire(holder)
        holder.crash()
        for _ in range(3):
            mutex.tick(a)
        won_a = mutex.try_acquire(a)
        won_b = mutex.try_acquire(b)
        assert won_a and not won_b


class TestSharedEpoch:
    def test_many_locks_one_epoch(self, cluster):
        epoch = cluster.allocator.alloc_words(1)
        cluster.fabric.write_word(epoch, 0)
        locks = [
            LeasedFarMutex.create(cluster.allocator, ttl_epochs=1, epoch_addr=epoch)
            for _ in range(3)
        ]
        holder, survivor = cluster.client(), cluster.client()
        for lock in locks:
            assert lock.try_acquire(holder)
        holder.crash()
        LeasedFarMutex.advance_epoch(survivor, epoch)
        LeasedFarMutex.advance_epoch(survivor, epoch)
        for lock in locks:
            assert lock.try_acquire(survivor)  # all expired together

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            LeasedFarMutex.create(cluster.allocator, ttl_epochs=0)
