"""Unit tests for publish-subscribe brokers (section 7.2)."""

import pytest

from repro.fabric.wire import WORD
from repro.notify.broker import Broker, BrokerNetwork
from repro.notify.subscription import NotifyKind


class TestBroker:
    def test_fans_out_to_all_attached(self, cluster):
        broker = Broker(cluster.notifications)
        a = cluster.allocator.alloc_words(1)
        ends = [cluster.client(f"p{i}") for i in range(5)]
        for end in ends:
            broker.attach(end, a, WORD)
        cluster.client("writer").write_u64(a, 1)
        assert all(e.pending_notifications() == 1 for e in ends)
        assert broker.stats.messages_in == 1
        assert broker.stats.messages_out == 5

    def test_one_hardware_subscription_per_topic(self, cluster):
        broker = Broker(cluster.notifications)
        a = cluster.allocator.alloc_words(1)
        for i in range(10):
            broker.attach(cluster.client(f"p{i}"), a, WORD)
        assert cluster.notifications.hardware_subscriptions == 1
        assert broker.stats.topics == 1

    def test_copies_are_independent(self, cluster):
        broker = Broker(cluster.notifications)
        a = cluster.allocator.alloc_words(1)
        e1, e2 = cluster.client(), cluster.client()
        broker.attach(e1, a, WORD)
        broker.attach(e2, a, WORD)
        cluster.client().write_u64(a, 1)
        n1 = e1.poll_notifications()[0]
        n2 = e2.poll_notifications()[0]
        n1.is_false_positive = True
        assert not n2.is_false_positive

    def test_detach_drops_hardware_sub_when_empty(self, cluster):
        broker = Broker(cluster.notifications)
        a = cluster.allocator.alloc_words(1)
        end = cluster.client()
        sub = broker.attach(end, a, WORD)
        broker.detach(end, sub)
        assert cluster.notifications.hardware_subscriptions == 0
        cluster.client().write_u64(a, 1)
        assert end.pending_notifications() == 0

    def test_notifye_topics(self, cluster):
        broker = Broker(cluster.notifications)
        a = cluster.allocator.alloc_words(1)
        end = cluster.client()
        broker.attach(end, a, WORD, kind=NotifyKind.NOTIFYE, value=0)
        writer = cluster.client()
        writer.write_u64(a, 5)
        assert end.pending_notifications() == 0
        writer.write_u64(a, 0)
        assert end.pending_notifications() == 1


class TestBrokerNetwork:
    def test_hardware_subscribers_bounded_by_broker_count(self, cluster):
        network = BrokerNetwork.create(cluster.notifications, broker_count=4)
        base = cluster.allocator.alloc_words(64)
        processes = [cluster.client(f"proc{i}") for i in range(32)]
        for i, process in enumerate(processes):
            network.attach(process, base + (i % 16) * WORD, WORD)
        # 32 processes, 16 topics, but at most 4 hardware subscribers.
        assert sum(1 for b in network.brokers if b.stats.topics > 0) <= 4

    def test_stable_topic_placement(self, cluster):
        network = BrokerNetwork.create(cluster.notifications, broker_count=3)
        addr = cluster.allocator.alloc_words(1)
        assert network.broker_for(addr) is network.broker_for(addr)

    def test_fanout_traffic_counted(self, cluster):
        network = BrokerNetwork.create(cluster.notifications, broker_count=2)
        a = cluster.allocator.alloc_words(1)
        for i in range(6):
            network.attach(cluster.client(f"w{i}"), a, WORD)
        cluster.client().write_u64(a, 9)
        assert network.total_messages_out() == 6

    def test_create_validates(self, cluster):
        with pytest.raises(ValueError):
            BrokerNetwork.create(cluster.notifications, broker_count=0)
