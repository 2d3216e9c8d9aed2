"""Unit tests for best-effort delivery policies (section 7.2)."""

import pytest

from repro.notify.delivery import DeliveryEngine, DeliveryPolicy, RELIABLE
from repro.notify.subscription import Notification, NotifyKind, Subscription


class _Sink:
    def __init__(self):
        self.received = []

    def deliver(self, notification):
        self.received.append(notification)


def make_sub(sink, sub_id=1):
    return Subscription(sub_id, sink, NotifyKind.NOTIFY0, 0, 8)


def make_notification(seq):
    return Notification(1, NotifyKind.NOTIFY0, 0, 8, seq=seq)


class TestReliable:
    def test_everything_delivered(self):
        sink = _Sink()
        sub = make_sub(sink)
        engine = DeliveryEngine(RELIABLE)
        for i in range(10):
            assert engine.offer(sub, make_notification(i))
        assert len(sink.received) == 10
        assert engine.stats.dropped_random == engine.stats.dropped_bucket == 0


class TestCoalescing:
    def test_every_nth_delivered(self):
        sink = _Sink()
        sub = make_sub(sink)
        engine = DeliveryEngine(DeliveryPolicy(coalesce_every=3))
        for i in range(9):
            engine.offer(sub, make_notification(i))
        assert len(sink.received) == 3
        assert all(n.coalesced_count == 3 for n in sink.received)
        assert engine.stats.coalesced_away == 6

    def test_coalesced_events_are_represented_not_lost(self):
        engine = DeliveryEngine(DeliveryPolicy(coalesce_every=4))
        sub = make_sub(_Sink())
        for i in range(8):
            engine.offer(sub, make_notification(i))
        assert engine.stats.dropped_random == engine.stats.dropped_bucket == 0

    def test_independent_per_subscription(self):
        engine = DeliveryEngine(DeliveryPolicy(coalesce_every=2))
        a_sink, b_sink = _Sink(), _Sink()
        a, b = make_sub(a_sink, 1), make_sub(b_sink, 2)
        engine.offer(a, make_notification(1))
        engine.offer(a, make_notification(2))  # delivered (2nd for a)
        engine.offer(b, make_notification(3))  # suppressed (1st for b)
        assert len(a_sink.received) == 1
        assert len(b_sink.received) == 0


class TestRandomDrop:
    def test_seeded_drop_is_deterministic(self):
        def run():
            sink = _Sink()
            sub = make_sub(sink)
            engine = DeliveryEngine(DeliveryPolicy(drop_probability=0.5, seed=42))
            for i in range(100):
                engine.offer(sub, make_notification(i))
            return [n.seq for n in sink.received if not n.is_loss_warning]

        assert run() == run()

    def test_drop_rate_roughly_matches(self):
        sink = _Sink()
        sub = make_sub(sink)
        engine = DeliveryEngine(DeliveryPolicy(drop_probability=0.3, seed=7))
        for i in range(1000):
            engine.offer(sub, make_notification(i))
        rate = engine.stats.dropped_random / 1000
        assert 0.2 < rate < 0.4

    def test_loss_followed_by_warning(self):
        sink = _Sink()
        sub = make_sub(sink)
        engine = DeliveryEngine(DeliveryPolicy(drop_probability=0.5, seed=1))
        for i in range(50):
            engine.offer(sub, make_notification(i))
        warnings = [n for n in sink.received if n.is_loss_warning]
        assert warnings, "some delivery after a drop must carry the warning"
        assert all(w.lost_count >= 1 for w in warnings)


class TestTokenBucket:
    def test_spike_dropped_then_warned(self):
        sink = _Sink()
        sub = make_sub(sink)
        engine = DeliveryEngine(DeliveryPolicy(bucket_capacity=3, bucket_refill=3))
        for i in range(10):  # burst of 10, bucket holds 3
            engine.offer(sub, make_notification(i))
        assert len(sink.received) == 3
        assert engine.stats.dropped_bucket == 7
        engine.tick()  # refill period
        engine.offer(sub, make_notification(100))
        last = sink.received[-1]
        assert last.is_loss_warning
        assert last.lost_count == 7

    def test_tick_caps_at_capacity(self):
        engine = DeliveryEngine(DeliveryPolicy(bucket_capacity=2, bucket_refill=10))
        sub = make_sub(_Sink())
        engine.offer(sub, make_notification(0))
        engine.tick()
        engine.tick()
        state = engine._state[sub.sub_id]
        assert state.tokens == 2

    def test_pending_loss_visible(self):
        engine = DeliveryEngine(DeliveryPolicy(bucket_capacity=1, bucket_refill=1))
        sink = _Sink()
        sub = make_sub(sink)
        engine.offer(sub, make_notification(0))
        engine.offer(sub, make_notification(1))  # dropped
        assert engine.stats.dropped_bucket == 1


class TestPolicyValidation:
    def test_reliable_flag(self):
        assert RELIABLE.reliable
        assert not DeliveryPolicy(coalesce_every=2).reliable
        assert not DeliveryPolicy(drop_probability=0.1).reliable
        assert not DeliveryPolicy(bucket_capacity=5).reliable

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeliveryPolicy(coalesce_every=0)
        with pytest.raises(ValueError):
            DeliveryPolicy(drop_probability=1.5)
        with pytest.raises(ValueError):
            DeliveryPolicy(bucket_capacity=0)

    def test_forget_clears_state(self):
        engine = DeliveryEngine(DeliveryPolicy(coalesce_every=2))
        sub = make_sub(_Sink())
        engine.offer(sub, make_notification(0))
        engine.forget(sub)
        assert sub.sub_id not in engine._state
