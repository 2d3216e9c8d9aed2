"""Integration: applications on degraded notification delivery (§7.2).

The paper insists notifications may be coalesced, dropped, or replaced by
loss warnings, and that "the data structure algorithm then adapts
accordingly". These tests run the monitoring consumer and the cached
vector under degraded policies and check the adaptations actually hold.
"""


from repro import Cluster
from repro.apps.monitoring import AlarmConsumer, AlarmLevel, MetricProducer, WindowedHistogramRing
from repro.core.vector import CachedFarVector
from repro.notify import DeliveryPolicy

NODE_SIZE = 32 << 20


class TestMonitoringUnderCoalescing:
    def test_coalesced_events_still_count_toward_duration(self):
        # coalesce x4: one delivered notification represents 4 samples;
        # the min_events duration threshold must honour coalesced_count.
        cluster = Cluster(
            node_count=1,
            node_size=NODE_SIZE,
            delivery_policy=DeliveryPolicy(coalesce_every=4),
        )
        ring = WindowedHistogramRing.create(cluster.allocator, bins=100, window_count=2)
        producer = MetricProducer(ring=ring, client=cluster.client())
        consumer = AlarmConsumer(
            ring=ring,
            manager=cluster.notifications,
            client=cluster.client(),
            levels=(AlarmLevel("critical", 95, 100, min_events=8),),
        )
        consumer.start()
        for _ in range(8):  # 8 tail samples -> 2 delivered notifications
            producer.record(97)
        alarms = consumer.poll()
        assert consumer.client.metrics.notifications_received == 2
        assert [a.level for a in alarms] == ["critical"]
        assert alarms[0].events == 8

    def test_monitoring_traffic_shrinks_under_coalescing(self):
        def notifications(policy):
            cluster = Cluster(
                node_count=1, node_size=NODE_SIZE, delivery_policy=policy
            )
            ring = WindowedHistogramRing.create(
                cluster.allocator, bins=100, window_count=2
            )
            producer = MetricProducer(ring=ring, client=cluster.client())
            consumer = AlarmConsumer(
                ring=ring, manager=cluster.notifications, client=cluster.client()
            )
            consumer.start()
            for _ in range(64):
                producer.record(99)
            consumer.poll()
            return consumer.client.metrics.notifications_received

        reliable = notifications(DeliveryPolicy())
        coalesced = notifications(DeliveryPolicy(coalesce_every=8))
        assert coalesced <= reliable / 7


class TestCachedVectorUnderLoss:
    def test_loss_warning_invalidates_whole_cache(self):
        cluster = Cluster(
            node_count=1,
            node_size=NODE_SIZE,
            delivery_policy=DeliveryPolicy(bucket_capacity=2, bucket_refill=2),
        )
        vector = cluster.far_vector(16)
        writer = cluster.client()
        reader = cluster.client()
        cached = CachedFarVector.attach(vector, reader, cluster.notifications)
        # Burst: most update notifications dropped by the bucket.
        for i in range(16):
            vector.set(writer, i, i + 100)
        cluster.notifications.tick()
        vector.set(writer, 0, 999)  # carries the loss warning
        cached.pump()
        # The cache knows it cannot trust itself: it re-reads through to
        # the truth for every element.
        snapshot = reader.metrics.snapshot()
        assert cached.get(0) == 999
        for i in range(1, 16):
            assert cached.get(i) == i + 100
        assert reader.metrics.delta(snapshot).far_accesses == 16

    def test_random_loss_never_returns_wrong_marked_valid_data(self):
        cluster = Cluster(
            node_count=1,
            node_size=NODE_SIZE,
            delivery_policy=DeliveryPolicy(drop_probability=0.4, seed=5),
        )
        vector = cluster.far_vector(8)
        writer, reader = cluster.client(), cluster.client()
        cached = CachedFarVector.attach(vector, reader, cluster.notifications)
        import random

        rng = random.Random(1)
        shadow = [0] * 8
        for _ in range(100):
            index = rng.randrange(8)
            value = rng.randrange(1 << 20)
            vector.set(writer, index, value)
            shadow[index] = value
        # Random drops mean staleness, never wrongness: dropped updates
        # leave the cache *stale* until the next delivered notification
        # or loss warning for that word — but any word the cache serves
        # as valid after a full reconciliation pass must be the truth.
        cached.pump()
        cached._valid[:] = False  # force read-through reconciliation
        for i in range(8):
            assert cached.get(i) == shadow[i]
