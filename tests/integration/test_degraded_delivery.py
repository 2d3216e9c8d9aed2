"""Integration: applications on degraded notification delivery (§7.2).

The paper insists notifications may be coalesced, dropped, or replaced by
loss warnings, and that "the data structure algorithm then adapts
accordingly". These tests run the monitoring consumer under degraded
policies and check the adaptations actually hold.
"""


from repro import Cluster
from repro.apps.monitoring import AlarmConsumer, AlarmLevel, MetricProducer, WindowedHistogramRing
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

