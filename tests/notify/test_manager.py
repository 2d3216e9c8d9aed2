"""Unit tests for the notification manager (matching semantics)."""

import pytest

from repro.fabric.wire import WORD, decode_u64
from repro.notify.subscription import NotifyKind


@pytest.fixture
def watcher(cluster):
    return cluster.client("watcher")


@pytest.fixture
def writer(cluster):
    return cluster.client("writer")


class TestNotify0:
    def test_write_in_range_notifies(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(4)
        cluster.notifications.notify0(watcher, a, 32)
        writer.write_u64(a + 8, 1)
        ns = watcher.poll_notifications()
        assert len(ns) == 1
        assert ns[0].kind is NotifyKind.NOTIFY0
        assert ns[0].address == a + 8

    def test_write_outside_range_is_silent(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(8)
        cluster.notifications.notify0(watcher, a, 16)
        writer.write_u64(a + 32, 1)
        assert watcher.pending_notifications() == 0

    def test_atomics_trigger_notifications(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(watcher, a, WORD)
        writer.faa(a, 1)
        writer.swap(a, 5)
        writer.cas(a, 5, 6)
        assert watcher.pending_notifications() == 3

    def test_failed_cas_does_not_notify(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(watcher, a, WORD)
        writer.cas(a, 99, 1)  # expected mismatch
        assert watcher.pending_notifications() == 0

    def test_straddling_write_clips_to_subscription(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(8)
        cluster.notifications.notify0(watcher, a + 16, 16)
        writer.write(a, b"\xff" * 64)
        ns = watcher.poll_notifications()
        assert len(ns) == 1
        assert ns[0].address == a + 16
        assert ns[0].length == 16

    def test_installing_subscription_costs_one_far_access(self, cluster, watcher):
        a = cluster.allocator.alloc_words(1)
        before = watcher.metrics.far_accesses
        cluster.notifications.notify0(watcher, a, WORD)
        assert watcher.metrics.far_accesses == before + 1


class TestNotifye:
    def test_fires_only_on_matching_value(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notifye(watcher, a, 0)
        writer.write_u64(a, 5)  # not zero: no notification
        assert watcher.pending_notifications() == 0
        writer.write_u64(a, 0)  # zero: fires
        ns = watcher.poll_notifications()
        assert len(ns) == 1
        assert ns[0].matched_value == 0

    def test_mutex_release_pattern(self, cluster, watcher, writer):
        # Section 5.1: waiters arm notifye(lock, 0) and learn of release.
        lock = cluster.allocator.alloc_words(1)
        writer.cas(lock, 0, 1)  # acquire
        cluster.notifications.notifye(watcher, lock, 0)
        writer.write_u64(lock, 0)  # release
        assert watcher.pending_notifications() == 1

    def test_word_covered_by_larger_write(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(4)
        cluster.notifications.notifye(watcher, a + 8, 7)
        data = b"\x00" * 8 + (7).to_bytes(8, "little") + b"\x00" * 16
        writer.write(a, data)
        assert watcher.pending_notifications() == 1


class TestNotify0d:
    def test_carries_changed_data(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(2)
        cluster.notifications.notify0d(watcher, a, 16)
        writer.write_u64(a + 8, 0xBEEF)
        ns = watcher.poll_notifications()
        assert len(ns) == 1
        assert decode_u64(ns[0].data) == 0xBEEF
        assert ns[0].address == a + 8


class TestLifecycle:
    def test_unsubscribe_stops_notifications(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(1)
        sub = cluster.notifications.notify0(watcher, a, WORD)
        writer.write_u64(a, 1)
        cluster.notifications.unsubscribe(sub)
        writer.write_u64(a, 2)
        assert watcher.pending_notifications() == 1

    def test_hardware_subscription_count(self, cluster, watcher):
        a = cluster.allocator.alloc_words(4)
        subs = [
            cluster.notifications.notify0(watcher, a + i * 8, WORD) for i in range(3)
        ]
        assert cluster.notifications.hardware_subscriptions == 3
        cluster.notifications.unsubscribe(subs[0])
        assert cluster.notifications.hardware_subscriptions == 2

    def test_multiple_subscribers_same_range(self, cluster, writer):
        a = cluster.allocator.alloc_words(1)
        watchers = [cluster.client(f"w{i}") for i in range(3)]
        for w in watchers:
            cluster.notifications.notify0(w, a, WORD)
        writer.write_u64(a, 1)
        assert all(w.pending_notifications() == 1 for w in watchers)

    def test_stats(self, cluster, watcher, writer):
        a = cluster.allocator.alloc_words(1)
        cluster.notifications.notifye(watcher, a, 3)
        writer.write_u64(a, 1)
        writer.write_u64(a, 3)
        stats = cluster.notifications.stats
        assert stats.notifye_checks == 2
        assert stats.notifye_hits == 1
        assert stats.matches == 1
