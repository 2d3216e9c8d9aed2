"""Unit tests for refreshable vectors (section 5.4)."""

import pytest

from repro import Cluster
from repro.fabric.errors import AddressError
from repro.notify import DeliveryPolicy

NODE_SIZE = 8 << 20


def make_vector(cluster, length=256, group_size=32, **kwargs):
    return cluster.refreshable_vector(length, group_size=group_size, **kwargs)


class TestBasics:
    def test_fresh_reader_sees_writes(self, cluster):
        v = make_vector(cluster)
        writer, reader = cluster.client(), cluster.client()
        v.set(writer, 10, 99)
        v.refresh(reader)
        assert v.get(reader, 10) == 99

    def test_get_fresh(self, cluster):
        v = make_vector(cluster)
        writer, reader = cluster.client(), cluster.client()
        v.set(writer, 0, 5)
        v.refresh(reader)  # refresh, then read: the freshness guarantee
        assert v.get(reader, 0) == 5

    def test_stale_reads_allowed(self, cluster):
        # The defining property: reads may be stale until refresh.
        v = make_vector(cluster)
        writer, reader = cluster.client(), cluster.client()
        v.refresh(reader)  # attach
        v.set(writer, 3, 7)
        assert v.get(reader, 3) == 0  # stale, and that is fine
        v.refresh(reader)
        assert v.get(reader, 3) == 7

    def test_bounds(self, cluster):
        v = make_vector(cluster, length=8)
        c = cluster.client()
        with pytest.raises(AddressError):
            v.set(c, 8, 1)
        with pytest.raises(AddressError):
            v.get(c, -1)

    def test_snapshot(self, cluster):
        v = make_vector(cluster, length=16, group_size=4)
        writer, reader = cluster.client(), cluster.client()
        for i in range(16):
            v.set(writer, i, i)
        v.refresh(reader)
        assert v.snapshot(reader).tolist() == list(range(16))

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            make_vector(cluster, length=0)


class TestWriterCosts:
    def test_set_is_one_far_access(self, cluster):
        v = make_vector(cluster)
        writer = cluster.client()
        snapshot = writer.metrics.snapshot()
        v.set(writer, 5, 1)
        assert writer.metrics.delta(snapshot).far_accesses == 1

    def test_set_many_is_one_far_access(self, cluster):
        v = make_vector(cluster)
        writer = cluster.client()
        snapshot = writer.metrics.snapshot()
        v.set_many(writer, {1: 10, 50: 20, 200: 30})
        assert writer.metrics.delta(snapshot).far_accesses == 1

    def test_multi_writer_path(self, cluster):
        v = make_vector(cluster)
        w1, w2 = cluster.client(), cluster.client()
        v.set_multi_writer(w1, 0, 5)
        v.set_multi_writer(w2, 0, 7)
        reader = cluster.client()
        v.refresh(reader)
        assert v.get(reader, 0) == 7


class TestRefreshCosts:
    def test_refresh_cost_independent_of_vector_size(self, cluster):
        big = make_vector(cluster, length=4096, group_size=64)
        writer, reader = cluster.client(), cluster.client()
        big.refresh(reader)  # attach
        writer_updates = {5: 1}
        big.set_many(writer, writer_updates)
        snapshot = reader.metrics.snapshot()
        report = big.refresh(reader)
        delta = reader.metrics.delta(snapshot)
        assert delta.far_accesses == 2  # version block + one group gather
        assert report.groups_refreshed == 1
        # Bytes scale with one group, not the whole vector.
        assert delta.bytes_read < 4096 * 8 / 4

    def test_clean_refresh_is_one_access(self, cluster):
        v = make_vector(cluster)
        reader = cluster.client()
        v.refresh(reader)
        snapshot = reader.metrics.snapshot()
        report = v.refresh(reader)
        assert reader.metrics.delta(snapshot).far_accesses == 1
        assert report.groups_refreshed == 0

    def test_refresh_pulls_only_changed_groups(self, cluster):
        v = make_vector(cluster, length=256, group_size=32)
        writer, reader = cluster.client(), cluster.client()
        v.refresh(reader)
        v.set(writer, 0, 1)     # group 0
        v.set(writer, 100, 2)   # group 3
        report = v.refresh(reader)
        assert report.groups_refreshed == 2
        assert report.elements_refreshed == 64


class TestDynamicPolicy:
    def test_quiet_reader_switches_to_notifications(self, cluster):
        v = make_vector(cluster, quiet_refreshes=3)
        reader = cluster.client()
        for _ in range(4):
            v.refresh(reader)
        assert v.reader_mode(reader) == "notify"

    def test_notify_mode_refresh_is_free_when_quiet(self, cluster):
        v = make_vector(cluster, quiet_refreshes=2)
        reader = cluster.client()
        for _ in range(3):
            v.refresh(reader)
        assert v.reader_mode(reader) == "notify"
        snapshot = reader.metrics.snapshot()
        report = v.refresh(reader)
        assert reader.metrics.delta(snapshot).far_accesses == 0
        assert report.mode == "notify"

    def test_notify_mode_sees_changes(self, cluster):
        v = make_vector(cluster, quiet_refreshes=2)
        writer, reader = cluster.client(), cluster.client()
        for _ in range(3):
            v.refresh(reader)
        v.set(writer, 42, 7)
        report = v.refresh(reader)
        assert report.notifications_consumed >= 1
        assert v.get(reader, 42) == 7

    def test_busy_reader_switches_back_to_polling(self, cluster):
        v = make_vector(cluster, quiet_refreshes=2, busy_notifications=4)
        writer, reader = cluster.client(), cluster.client()
        for _ in range(3):
            v.refresh(reader)
        assert v.reader_mode(reader) == "notify"
        for i in range(20):  # update storm
            v.set(writer, i, i)
        v.refresh(reader)
        assert v.reader_mode(reader) == "poll"

    def test_loss_warning_forces_full_poll(self, cluster):
        cluster_lossy = Cluster(
            node_count=1,
            node_size=NODE_SIZE,
            delivery_policy=DeliveryPolicy(bucket_capacity=1, bucket_refill=1),
        )
        v = cluster_lossy.refreshable_vector(128, group_size=16, quiet_refreshes=1)
        writer, reader = cluster_lossy.client(), cluster_lossy.client()
        v.refresh(reader)
        v.refresh(reader)
        assert v.reader_mode(reader) == "notify"
        # Burst: bucket capacity 1 drops most, then warns after a tick.
        for i in range(10):
            v.set(writer, i, i + 1)
        cluster_lossy.notifications.tick()
        v.set(writer, 100, 5)
        report = v.refresh(reader)
        assert report.loss_warning
        assert report.switched_mode == "poll"
        # Despite the loss, the fallback poll recovered every update.
        for i in range(10):
            assert v.get(reader, i) == i + 1
        assert v.get(reader, 100) == 5


class TestElementVersions:
    def test_element_mode_refreshes_exact_entries(self, cluster):
        v = make_vector(cluster, length=128, element_versions=True)
        writer, reader = cluster.client(), cluster.client()
        v.refresh(reader)
        v.set(writer, 10, 1)
        v.set(writer, 90, 2)
        report = v.refresh(reader)
        assert report.elements_refreshed == 2  # not whole groups
        assert v.get(reader, 10) == 1
        assert v.get(reader, 90) == 2

    def test_element_mode_notifications(self, cluster):
        v = make_vector(cluster, length=64, element_versions=True, quiet_refreshes=1)
        writer, reader = cluster.client(), cluster.client()
        v.refresh(reader)
        v.refresh(reader)
        assert v.reader_mode(reader) == "notify"
        v.set(writer, 33, 9)
        report = v.refresh(reader)
        assert report.elements_refreshed == 1
        assert v.get(reader, 33) == 9
