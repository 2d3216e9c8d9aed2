"""Unit tests for the transient-fault injection fabric."""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric import (
    AddressError,
    FarCorruptionError,
    FarTimeoutError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    IndirectionPolicy,
    NodeUnavailableError,
)
from repro.fabric.ops import FAR_OPS
from repro.fabric.wire import WORD

from .test_pipeline import ARGS, _scenario

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


def raw_client(cluster, **kwargs):
    """A client with retries and breakers off: faults surface directly."""
    kwargs.setdefault("retry_policy", None)
    kwargs.setdefault("breaker_policy", None)
    return cluster.client(**kwargs)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("meteor", 0.5)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule("timeout", 1.5)
        with pytest.raises(ValueError):
            FaultRule("timeout", -0.1)

    def test_matching_scopes(self):
        rule = FaultRule(
            "timeout", 1.0, node=1, address_range=(100, 200), start_op=5, end_op=10
        )

        def fires(op_index, node, address):
            injector = FaultInjector()
            injector.rules, injector.op_index = [rule], op_index
            try:
                injector.before_access(node, address)
            except FarTimeoutError:
                return True
            return False

        assert fires(5, 1, 150)
        assert not fires(4, 1, 150)  # before window
        assert not fires(10, 1, 150)  # window is half-open
        assert not fires(5, 0, 150)  # wrong node
        assert not fires(5, 1, 200)  # address range is half-open


class TestDecisionStream:
    """The injector's per-access decisions, pinned: one plan with all five
    kinds, node filters, an address range, ``start_op`` / ``end_op``
    windows, certain and probabilistic rules, and accesses that can tear
    and that cannot, driven for 2 000 accesses over 3 nodes. Each access
    records ``(raised message, multiplier, flips, torn fraction)``; a
    raised access has no multiplier. The literal was recorded when a spike
    was pending state read back after each access, so it also holds that
    returning the multiplier moved no decision and no RNG draw."""

    RULES = (
        FaultRule("timeout", 0.03),
        FaultRule("timeout", 1.0, node=1, start_op=100, end_op=104),
        FaultRule("latency", 0.05, node=2, multiplier=4.0),
        FaultRule("latency", 1.0, multiplier=8.0, start_op=500, end_op=530),
        FaultRule("flaky", 0.004, duration=5),
        FaultRule("flaky", 1.0, node=0, duration=10, start_op=900, end_op=901),
        FaultRule("corrupt", 0.02, bits=2, span=32, address_range=(0, 4096)),
        FaultRule("corrupt", 1.0, node=1, start_op=1200, end_op=1210),
        FaultRule("torn", 0.1, address_range=(1024, 8192)),
        FaultRule("torn", 1.0, node=2, start_op=1500, end_op=1520),
        FaultRule("timeout", 0.5, node=0, address_range=(8192, 12288), start_op=1700, end_op=1900),
    )

    def test_decision_stream_is_pinned(self):
        injector = FaultInjector(seed=7)
        injector.rules = list(self.RULES)
        crc = 0
        for i in range(2000):
            node, address, tears = i % 3, (i * 104729) % 16384 & ~7, i % 4 == 0
            try:
                reason, multiplier = None, injector.before_access(node, address, tears)
            except FarTimeoutError as err:
                reason, multiplier = str(err), None
            record = (reason, multiplier, injector.take_corruption(), injector.take_torn_fraction())
            crc = zlib.crc32(repr(record).encode(), crc)
        assert dataclasses.astuple(injector.stats) == (2000, 75, 79, 14, 29, 15, 27, 21)
        assert crc == 0xE56139B1


class TestInjection:
    def test_no_injector_no_faults(self, cluster):
        c = raw_client(cluster)
        addr = cluster.allocator.alloc(64)
        for _ in range(100):
            c.write_u64(addr, 1)
        assert c.metrics.timeouts == 0

    def test_certain_timeout_raises(self, cluster):
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        c = raw_client(cluster)
        addr = cluster.allocator.alloc(64)
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)

    def test_timeout_has_no_side_effects(self, cluster):
        """Request-drop semantics: a timed-out write/atomic never executed,
        so retrying non-idempotent ops is safe."""
        addr = cluster.allocator.alloc(64)
        setup = raw_client(cluster)
        setup.write_u64(addr, 7)
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        c = raw_client(cluster)
        with pytest.raises(FarTimeoutError):
            c.write_u64(addr, 99)
        with pytest.raises(FarTimeoutError):
            c.faa(addr, 5)
        cluster.fabric.set_fault_injector(None)
        assert c.read_u64(addr) == 7  # untouched by the dropped ops

    def test_node_scoped_timeouts(self, cluster):
        node1_base = cluster.fabric.placement.node_size
        cluster.inject_faults(
            seed=1, plan=FaultPlan().random_timeouts(1.0, node=1)
        )
        c = raw_client(cluster)
        addr0 = cluster.allocator.alloc(64)
        assert cluster.fabric.node_of(addr0) == 0
        c.write_u64(addr0, 1)  # node 0 unaffected
        with pytest.raises(FarTimeoutError):
            c.read_u64(node1_base)

    def test_address_scoped_timeouts(self, cluster):
        a = cluster.allocator.alloc(64)
        b = cluster.allocator.alloc(64)
        cluster.inject_faults(
            seed=1, plan=FaultPlan().random_timeouts(1.0, address_range=(b, b + 64))
        )
        c = raw_client(cluster)
        c.write_u64(a, 1)
        with pytest.raises(FarTimeoutError):
            c.write_u64(b, 1)

    def test_latency_spike_slows_but_succeeds(self, cluster):
        addr = cluster.allocator.alloc(64)
        baseline = raw_client(cluster)
        baseline.read_u64(addr)
        base_ns = baseline.clock.now_ns

        cluster.inject_faults(
            seed=1, plan=FaultPlan().random_spikes(1.0, multiplier=8.0)
        )
        c = raw_client(cluster)
        assert c.read_u64(addr) == 0
        assert c.clock.now_ns == pytest.approx(8.0 * base_ns)
        assert c.metrics.far_accesses == 1  # slowed, not failed

    def test_flaky_window_opens_and_self_heals(self, cluster):
        addr = cluster.allocator.alloc(64)
        injector = cluster.inject_faults(
            seed=1, plan=FaultPlan().flaky_at(0, node=0, duration=3)
        )
        c = raw_client(cluster)
        for _ in range(4):  # the opening access + 3 in-window accesses drop
            with pytest.raises(FarTimeoutError):
                c.read_u64(addr)
        assert c.read_u64(addr) == 0  # self-healed
        assert injector.stats.flaky_windows_opened == 1
        assert injector.stats.flaky_drops == 4

    def test_scheduled_timeout_fires_at_exact_op(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(2))
        c = raw_client(cluster)
        c.write_u64(addr, 1)  # access 0
        c.write_u64(addr, 2)  # access 1
        with pytest.raises(FarTimeoutError):
            c.write_u64(addr, 3)  # access 2: dropped
        c.write_u64(addr, 4)  # access 3: fine again

    def test_spike_window(self, cluster):
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(
            seed=1, plan=FaultPlan().spike_between(1, 2, multiplier=4.0)
        )
        c = raw_client(cluster)
        c.read_u64(addr)
        t1 = c.clock.now_ns
        c.read_u64(addr)  # spiked
        t2 = c.clock.now_ns - t1
        assert t2 == pytest.approx(4.0 * t1)

    def test_a_spike_slows_only_the_access_that_drew_it(self, cluster):
        """A spiked access that fails after its fault check (here a
        pointer past the pool: ``AddressError``) takes its spike with it;
        the next access is charged its plain latency."""
        pointer, good = cluster.allocator.alloc(8), cluster.allocator.alloc(8)
        c = raw_client(cluster)
        c.write_u64(pointer, cluster.fabric.extents.virtual_size + 4096)
        injector = cluster.inject_faults(
            seed=1, plan=FaultPlan().spike_between(0, 1, multiplier=8.0)
        )
        with pytest.raises(AddressError):
            c.load0(pointer, 8)  # access 0: spiked, then fails
        assert injector.stats.spikes_injected == 1
        before = c.clock.now_ns
        c.read_u64(good)  # access 1: no spike
        assert c.clock.now_ns - before == cluster.fabric.cost_model.far_ns


class TestDeterminism:
    def _run(self, seed):
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        injector = cluster.inject_faults(
            seed=seed,
            plan=FaultPlan()
            .random_timeouts(0.2)
            .random_spikes(0.1, multiplier=4.0)
            .random_flaky(0.02, duration=4),
        )
        c = raw_client(cluster)
        addr = cluster.allocator.alloc(1024)
        outcomes = []
        for i in range(200):
            try:
                c.write_u64(addr + (i % 16) * 8, i)
                outcomes.append("ok")
            except FarTimeoutError:
                outcomes.append("timeout")
        return outcomes, dataclasses.asdict(injector.stats)

    def test_same_seed_same_faults(self):
        out1, stats1 = self._run(42)
        out2, stats2 = self._run(42)
        assert out1 == out2
        assert stats1 == stats2
        assert stats1["timeouts_injected"] + stats1["flaky_drops"] > 0

    def test_different_seed_different_faults(self):
        out1, _ = self._run(42)
        out2, _ = self._run(43)
        assert out1 != out2

    def test_same_seed_replays(self):
        def drive():
            injector = FaultInjector(seed=9, plan=FaultPlan().random_timeouts(0.5))
            hits = []
            for i in range(50):
                try:
                    injector.before_access(0, i * 8)
                    hits.append(False)
                except FarTimeoutError:
                    hits.append(True)
            return hits

        assert drive() == drive()


class TestCorruption:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("corrupt", 0.5, bits=0)
        with pytest.raises(ValueError):
            FaultRule("corrupt", 0.5, span=0)

    def test_corruption_is_silent_to_plain_reads(self, cluster):
        """The dangerous half of the fault model: rotted bytes flow out of
        an unverified read with no error at all."""
        addr = cluster.allocator.alloc(64)
        setup = raw_client(cluster)
        setup.write(addr, b"\xaa" * 64)
        cluster.inject_faults(
            seed=3, plan=FaultPlan().corrupt_at(1, bits=1, span=8)
        )
        c = raw_client(cluster)
        c.read_u64(addr)  # access 0: clean
        rotted = c.read(addr, 64)  # access 1: rots, then reads
        assert rotted != b"\xaa" * 64  # wrong bytes, zero errors raised
        assert c.metrics.far_accesses == 2

    def test_verified_read_detects_certain_corruption(self, cluster):
        addr = cluster.allocator.alloc(256)
        c = raw_client(cluster)
        c.write_framed(addr, b"x" * 32, version=1)
        # span=8 pins the flips inside the stored CRC word, and an odd
        # bit count cannot cancel itself out: detection is certain.
        injector = cluster.inject_faults(
            seed=5, plan=FaultPlan().corrupt_at(0, bits=3, span=8)
        )
        with pytest.raises(FarCorruptionError):
            c.read_verified(addr, 32)
        assert injector.stats.corruptions_injected == 1
        assert injector.stats.bits_flipped == 3
        assert c.metrics.verify_misses == 1

    def test_verified_read_heals_from_fallback(self, cluster):
        a = cluster.allocator.alloc(256)
        b = cluster.allocator.alloc(256)
        c = raw_client(cluster)
        c.write_framed(a, b"payload!" * 4, version=7)
        c.write_framed(b, b"payload!" * 4, version=7)
        cluster.inject_faults(
            seed=5, plan=FaultPlan().corrupt_at(0, bits=1, span=8)
        )
        snap = c.metrics.snapshot()
        version, payload = c.read_verified(a, 32, fallback=(b,))
        delta = c.metrics.delta(snap)
        assert (version, payload) == (7, b"payload!" * 4)
        # Exactly one extra far access for the verify-miss: rotten read + re-read.
        assert delta.far_accesses == 2
        assert delta.verify_misses == 1
        assert delta.verified_reads == 2

    def test_corruption_applies_even_when_read_fails_over(self, cluster):
        """Rot lands before the op body runs, so it survives even when
        the access itself dies for another reason."""
        addr = cluster.allocator.alloc(64)
        setup = raw_client(cluster)
        setup.write_u64(addr, 0)
        cluster.inject_faults(
            seed=8,
            plan=FaultPlan()
            .corrupt_at(0, bits=1, span=8)
            .timeout_at(0),
        )
        c = raw_client(cluster)
        with pytest.raises(FarTimeoutError):
            c.read_u64(addr)


class TestTornWrites:
    def test_torn_write_leaves_word_aligned_prefix(self, cluster):
        addr = cluster.allocator.alloc(64)
        setup = raw_client(cluster)
        setup.write(addr, b"\x11" * 64)
        injector = cluster.inject_faults(seed=2, plan=FaultPlan().torn_at(0))
        c = raw_client(cluster)
        with pytest.raises(FarTimeoutError) as excinfo:
            c.write(addr, b"\x22" * 64)
        assert excinfo.value.torn
        cluster.fabric.set_fault_injector(None)
        after = c.read(addr, 64)
        assert after != b"\x11" * 64 or after != b"\x22" * 64
        prefix = len(after) - len(after.lstrip(b"\x22"))
        # Everything before the tear is new, everything after is old,
        # and the boundary sits on a word.
        assert after == b"\x22" * prefix + b"\x11" * (64 - prefix)
        assert prefix % 8 == 0
        assert injector.stats.torn_writes_injected == 1

    @pytest.mark.parametrize("name", list(FAR_OPS))
    def test_torn_rules_match_exactly_the_rows_that_tear(self, name):
        """A TORN rule tears a row only when its ``tears`` flag is set — and
        crucially draws no RNG for any other, so the schedule is
        workload-kind independent."""
        cluster, _, memory = _scenario(IndirectionPolicy.FORWARD)
        injector = cluster.inject_faults(seed=2, plan=FaultPlan().random_torn(1.0))
        state = injector.rng.getstate()
        call = getattr(raw_client(cluster), name)
        if FAR_OPS[name].tears:
            with pytest.raises(FarTimeoutError) as excinfo:
                call(*ARGS[name](memory))
            assert excinfo.value.torn
        else:
            call(*ARGS[name](memory))
            assert injector.rng.getstate() == state
            assert injector.stats.torn_writes_injected == 0

    def test_retry_heals_the_tear(self, cluster):
        """The client's normal retry ladder repairs a torn write: the
        retried (full) write overwrites the partial prefix."""
        addr = cluster.allocator.alloc(64)
        cluster.inject_faults(seed=2, plan=FaultPlan().torn_at(0))
        c = cluster.client(breaker_policy=None)  # retries on
        c.write(addr, b"\x77" * 64)
        assert c.read(addr, 64) == b"\x77" * 64
        assert c.metrics.retries >= 1
        assert c.metrics.timeouts >= 1

    def test_torn_wscatter_tears_first_buffer_only(self, cluster):
        a = cluster.allocator.alloc(64)
        b = cluster.allocator.alloc(64)
        setup = raw_client(cluster)
        setup.write(a, b"\x11" * 32)
        setup.write(b, b"\x11" * 32)
        cluster.inject_faults(seed=4, plan=FaultPlan().torn_at(0))
        c = raw_client(cluster)
        with pytest.raises(FarTimeoutError):
            c.wscatter([(a, 32), (b, 32)], b"\x22" * 64)
        cluster.fabric.set_fault_injector(None)
        assert c.read(b, 32) == b"\x11" * 32  # second buffer never reached


class TestFiveKindDeterminism:
    """(seed, workload) → byte-identical fault schedule across all five
    fault kinds, including the far bytes the faults left behind."""

    PLAN_KINDS = ("timeout", "latency", "flaky", "corrupt", "torn")

    def _run(self, seed):
        cluster = Cluster(node_count=2, node_size=1 << 16)
        injector = cluster.inject_faults(
            seed=seed,
            plan=FaultPlan()
            .random_timeouts(0.15)
            .random_spikes(0.05, multiplier=4.0)
            .random_flaky(0.02, duration=3)
            .random_corruption(0.1, bits=2, span=16)
            .random_torn(0.15),
        )
        c = raw_client(cluster)
        base = cluster.allocator.alloc(2048)
        workload = random.Random(seed ^ 0xABCDEF)
        outcomes = []
        for i in range(150):
            op = workload.randrange(3)
            addr = base + workload.randrange(0, 1024) // 8 * 8
            try:
                if op == 0:
                    c.write(addr, bytes([i % 256]) * 64)
                    outcomes.append("w")
                elif op == 1:
                    outcomes.append(c.read(addr, 64))
                else:
                    outcomes.append(c.faa(addr, i))
            except FarTimeoutError as err:
                outcomes.append(("timeout", err.torn))
        memory = b"".join(bytes(node._data) for node in cluster.fabric.nodes)
        return outcomes, dataclasses.asdict(injector.stats), memory

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_replay_is_byte_identical(self, seed):
        out1, stats1, mem1 = self._run(seed)
        out2, stats2, mem2 = self._run(seed)
        assert out1 == out2
        assert stats1 == stats2
        assert mem1 == mem2

    def test_all_five_kinds_fire(self):
        # One fixed seed that provably exercises every kind in the plan.
        _, stats, _ = self._run(99)
        assert stats["timeouts_injected"] > 0
        assert stats["spikes_injected"] > 0
        assert stats["corruptions_injected"] > 0
        assert stats["torn_writes_injected"] > 0
        assert stats["flaky_windows_opened"] > 0


class TestInjectorPlumbing:
    def test_detach(self, cluster):
        cluster.inject_faults(seed=1, plan=FaultPlan().random_timeouts(1.0))
        cluster.fabric.set_fault_injector(None)
        c = raw_client(cluster)
        addr = cluster.allocator.alloc(64)
        c.write_u64(addr, 1)

    def test_stats_counts(self, cluster):
        injector = cluster.inject_faults(
            seed=1, plan=FaultPlan().random_spikes(1.0, multiplier=2.0)
        )
        c = raw_client(cluster)
        addr = cluster.allocator.alloc(64)
        c.read_u64(addr)
        c.read_u64(addr)
        assert injector.stats.checks == 2
        assert injector.stats.spikes_injected == 2
        assert injector.stats.faults_injected == 2


class TestIndexedOpsHomeNode:
    """Known defect: ``load1`` / ``store1`` / ``add1`` read their pointer at
    ``ad + index``, but ``Client._issue`` takes the guards' home node from
    ``ad``. Put ``ad`` on node 0's last word and the pointer on node 1."""

    AD = NODE_SIZE - WORD  # node 0's last word; ``AD + WORD`` is node 1's first

    def _cluster(self):
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        fabric = cluster.fabric
        assert (fabric.node_of(self.AD), fabric.node_of(self.AD + WORD)) == (0, 1)
        raw_client(cluster).write_u64(self.AD + WORD, self.AD + 2 * WORD)
        return cluster

    @pytest.mark.xfail(strict=True, reason="known defect: guarded on ad's node, not ad + index's")
    def test_a_rule_on_the_pointers_node_drops_the_op(self):
        cluster = self._cluster()
        cluster.inject_faults(seed=1, plan=FaultPlan().timeout_at(0, node=1, count=100))
        with pytest.raises(FarTimeoutError):
            raw_client(cluster).load1(self.AD, WORD, WORD)

    @pytest.mark.xfail(strict=True, reason="known defect: guarded on ad's node, not ad + index's")
    def test_a_failed_pointer_node_is_charged_to_its_own_breaker(self):
        cluster = self._cluster()
        cluster.fabric.fail_node(1)
        client = cluster.client(retry_policy=None)
        with pytest.raises(NodeUnavailableError):
            client.load1(self.AD, WORD, WORD)
        assert set(client.breakers) == {1}
