"""Unit tests for the client retry/backoff layer and circuit breakers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    FarTimeoutError,
    FaultPlan,
    NodeUnavailableError,
    RetryPolicy,
)
from repro.obs import Tracer

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            base_backoff_ns=1000, multiplier=2.0, max_backoff_ns=1e9, jitter=0.0
        )
        assert policy.backoff_ns(1) == 1000
        assert policy.backoff_ns(2) == 2000
        assert policy.backoff_ns(3) == 4000

    def test_backoff_caps(self):
        policy = RetryPolicy(
            base_backoff_ns=1000, multiplier=2.0, max_backoff_ns=3000, jitter=0.0
        )
        assert policy.backoff_ns(10) == 3000

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff_ns=1000, jitter=0.5)
        values = {policy.backoff_ns(1, token) for token in range(50)}
        assert len(values) > 25  # jitter actually spreads
        for token in range(50):
            a = policy.backoff_ns(1, token)
            assert a == policy.backoff_ns(1, token)  # replayable
            assert 500.0 <= a <= 1000.0  # within [span*(1-jitter), span]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ns(0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        b = CircuitBreaker(0, BreakerPolicy(failure_threshold=3, cooldown_ns=100))
        assert b.allow(0)
        assert not b.record_failure(0)
        assert not b.record_failure(0)
        assert b.record_failure(0)  # third consecutive failure trips
        assert b.state is BreakerState.OPEN
        assert not b.allow(50)
        assert b.rejections == 1

    def test_half_open_probe_closes_on_success(self):
        b = CircuitBreaker(0, BreakerPolicy(failure_threshold=1, cooldown_ns=100))
        b.record_failure(0)
        assert not b.allow(99)
        assert b.allow(100)  # cooldown elapsed: half-open probe admitted
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(0, BreakerPolicy(failure_threshold=1, cooldown_ns=100))
        b.record_failure(0)
        assert b.allow(100)
        b.record_failure(150)
        assert b.state is BreakerState.OPEN
        assert not b.allow(200)  # cooldown restarts from the failed probe
        assert b.allow(250)

    def test_success_clears_streak(self):
        b = CircuitBreaker(0, BreakerPolicy(failure_threshold=3))
        b.record_failure(0)
        b.record_failure(0)
        b.record_success()
        assert not b.record_failure(0)  # streak restarted

    @given(
        threshold=st.integers(1, 4),
        cooldown=st.sampled_from([0.0, 50.0, 100.0]),
        steps=st.lists(
            st.tuples(st.sampled_from(["allow", "failure", "success"]), st.integers(0, 400)),
            max_size=40,
        ),
    )
    def test_no_failure_streak_means_closed(self, threshold, cooldown, steps):
        """The invariant a client's guard ladder relies on to skip
        ``allow`` and ``record_success`` on a breaker with no streak: after
        any sequence of calls, a zero streak is the ``CLOSED`` state, where
        ``allow`` admits and ``record_success`` changes nothing."""
        b = CircuitBreaker(0, BreakerPolicy(failure_threshold=threshold, cooldown_ns=cooldown))
        for step, now_ns in [("start", 0), *steps]:
            if step == "allow":
                b.allow(now_ns)
            elif step == "failure":
                b.record_failure(now_ns)
            elif step == "success":
                b.record_success()
            if b.consecutive_failures == 0:
                assert b.state is BreakerState.CLOSED
                before = (b.state, b.opened_at_ns, b.trips, b.rejections)
                assert b.allow(now_ns)
                b.record_success()
                assert (b.state, b.opened_at_ns, b.trips, b.rejections) == before


class TestClientRetries:
    def test_transparent_retry_succeeds(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.fabric.write_word(addr, 5)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(0))
        c = cluster.client()
        assert c.read_u64(addr) == 5  # first attempt dropped, retry lands
        assert c.metrics.timeouts == 1
        assert c.metrics.retries == 1
        assert c.metrics.far_accesses == 1  # only completed work counts
        assert c.metrics.backoff_ns > 0

    def test_retry_charges_timeout_and_backoff_time(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(0))
        c = cluster.client()
        c.read_u64(addr)
        expected_min = (
            c.cost_model.timeout_ns
            + c.retry_policy.backoff_ns(1, 0) * (1 - c.retry_policy.jitter)
            + c.cost_model.far_ns
        )
        assert c.clock.now_ns >= expected_min

    def test_retries_exhausted_raises_typed(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        c = cluster.client(breaker_policy=None)
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)
        assert c.metrics.timeouts == c.retry_policy.max_attempts
        assert c.metrics.retries == c.retry_policy.max_attempts - 1
        assert c.metrics.far_accesses == 0

    def test_retry_preserves_nonidempotent_atomics(self, cluster):
        """A retried faa applies exactly once (request-drop injection)."""
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(0))
        c = cluster.client()
        assert c.faa(addr, 10) == 0
        cluster.fabric.set_fault_injector(None)
        assert c.read_u64(addr) == 10  # bumped once, not once per attempt

    def test_retry_disabled_surfaces_first_fault(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(0))
        c = cluster.client(retry_policy=None, breaker_policy=None)
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)
        assert c.read_u64(addr) == 0  # next op is fine
        assert c.metrics.retries == 0

    # A dropped op costs the same on both paths: an unguarded client with an
    # injector runs the retry ladder with one attempt, so the drop is charged
    # `timeout_ns`, counted in `timeouts` and takes its latency spike with it.
    @pytest.mark.parametrize(
        "retry_policy",
        [None, RetryPolicy(max_attempts=1)],
        ids=["unguarded", "one_attempt_ladder"],
    )
    def test_dropped_op_charge_per_path(self, cluster, retry_policy):
        addr = cluster.allocator.alloc(64)
        plan = FaultPlan().spike_between(0, 1, multiplier=8.0).timeout_at(0)
        cluster.inject_faults(seed=1, plan=plan)
        c = cluster.client(retry_policy=retry_policy, breaker_policy=None)
        tracer = Tracer().attach(c)
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)
        assert c.clock.now_ns == 10_000.0
        c.read_u64(addr)
        assert c.clock.now_ns - 10_000.0 == 1_000.0
        assert c.metrics.timeouts == 1
        (timeout,) = tracer.events_by_kind("timeout")
        assert (timeout.data["op"], timeout.data["attempt"]) == ("read_u64", 1)

    def test_retries_node_unavailable_then_raises(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.fabric.fail_node(0)
        c = cluster.client(breaker_policy=None)
        with pytest.raises(NodeUnavailableError):
            c.read_u64(addr)
        assert c.metrics.far_accesses == 0

    @pytest.mark.parametrize("observer", ["bare", "traced", "injected"])
    def test_unguarded_read_of_a_failed_node_costs_one_timeout(self, cluster, observer):
        addr = cluster.allocator.alloc(64)
        cluster.fabric.fail_node(0)
        if observer == "injected":
            cluster.inject_faults(seed=1, plan=FaultPlan())
        c = cluster.client(retry_policy=None, breaker_policy=None)
        if observer == "traced":
            Tracer().attach(c)
        with pytest.raises(NodeUnavailableError):
            c.read_u64(addr)
        assert c.clock.now_ns == c.cost_model.timeout_ns
        assert c.metrics.far_accesses == 0 and c.metrics.timeouts == 0

    def test_fence_and_batch_unaffected(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(1))
        c = cluster.client()
        with c.batch():
            c.write_u64(addr, 1)
            c.write_u64(addr + 8, 2)  # dropped once, retried inside the batch
        assert cluster.fabric.read_word(addr + 8) == 2


class TestClientBreaker:
    def _hammer(self, client, addr, times):
        failures = 0
        for _ in range(times):
            try:
                client.read_u64(addr)
            except (FarTimeoutError, NodeUnavailableError):
                failures += 1
        return failures

    def test_breaker_trips_and_fails_fast(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        c = cluster.client(
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=4, cooldown_ns=1e12),
        )
        self._hammer(c, addr, 2)  # 4 failed attempts: breaker trips
        assert c.metrics.breaker_trips == 1
        with pytest.raises(CircuitOpenError):
            c.read_u64(addr)
        assert c.metrics.breaker_rejections == 1
        # Fail-fast: the rejected op cost no timeout wait.
        timeouts_before = c.metrics.timeouts
        with pytest.raises(CircuitOpenError):
            c.read_u64(addr)
        assert c.metrics.timeouts == timeouts_before

    def test_breaker_is_per_node(self, cluster):
        node1_base = cluster.fabric.placement.node_size
        addr0 = cluster.allocator.alloc(64)
        cluster.inject_faults(
            seed=1, plan=FaultPlan().random_timeouts(1.0, node=0)
        )
        c = cluster.client(
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_ns=1e12),
        )
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr0)
        assert c.breakers[0].state is BreakerState.OPEN
        assert c.read_u64(node1_base) == 0  # node 1 unaffected

    def test_breaker_recovers_after_cooldown(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        c = cluster.client(
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_ns=5_000.0),
        )
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)
        cluster.fabric.set_fault_injector(None)  # fabric heals while breaker is open
        c.touch_local(100)  # let the cooldown elapse on the sim clock
        assert c.read_u64(addr) == 0  # half-open probe succeeds
        assert c.breakers[0].state is BreakerState.CLOSED

    def test_open_breaker_error_is_node_unavailable(self):
        assert issubclass(CircuitOpenError, NodeUnavailableError)
