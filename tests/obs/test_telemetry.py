"""TelemetryRegistry: series primitives, scope accounting, zero observer
effect, window-advance listeners, and extent/node topology tracking."""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.fabric.client import Client
from repro.obs import (
    CLIENT_COUNTER_FIELDS,
    FLEET,
    CounterSeries,
    GaugeSeries,
    HistogramRing,
    TelemetryRegistry,
    Tracer,
)

NODE_SIZE = 8 << 20


class TestCounterSeries:
    def test_total_and_windows(self):
        series = CounterSeries()
        series.inc(0)
        series.inc(0, 2)
        series.inc(3, 5)
        assert series.total == 8
        assert series.sum_windows(1, 3) == 0
        assert series.sum_windows(3, 4) == 5
        assert series.sum_windows(0, 3) == 3
        assert series.sum_windows(0, 4) == 8
        assert series.windows() == [(0, 3), (3, 5)]

    def test_out_of_order_windows_accumulate(self):
        series = CounterSeries()
        series.inc(5)
        series.inc(2)
        series.inc(5)
        assert series.windows() == [(2, 1), (5, 2)]

    def test_ring_eviction_keeps_recent_and_total(self):
        series = CounterSeries(ring_windows=4)
        for w in range(100):
            series.inc(w)
        assert series.total == 100
        # The ring is bounded and always retains the last `cap` windows.
        assert len(series._windows) <= 8
        assert series.sum_windows(96, 100) == 4
        # Evicted windows read as zero, never as stale values.
        assert series.sum_windows(0, 1) == 0


class TestGaugeSeries:
    def test_last_sample_wins_by_timestamp(self):
        gauge = GaugeSeries()
        gauge.set(0, 100.0, 7)
        gauge.set(1, 200.0, 9)
        assert gauge.value == 9
        # A late-arriving older sample never rolls the current value back.
        gauge.set(0, 50.0, 3)
        assert gauge.value == 9
        assert gauge.windows() == [(0, 3), (1, 9)]


class TestHistogramRing:
    def test_rollup_equals_total(self):
        ring = HistogramRing()
        for window, value in [(0, 100), (0, 200), (1, 400), (2, 800)]:
            ring.record(window, value)
        rollup = ring.rollup()
        assert rollup.count == ring.total.count == 4
        assert rollup.samples() == ring.total.samples()
        assert ring.rollup(1, 3).count == 2

    def test_count_over_and_in(self):
        ring = HistogramRing()
        for window, value in [(0, 100), (1, 5_000), (1, 100), (2, 9_000)]:
            ring.record(window, value)
        assert ring.count_in(0, 3) == 4
        assert ring.count_in(1, 2) == 2
        assert ring.count_over(0, 3, 1_000) == 2
        assert ring.count_over(1, 2, 1_000) == 1

    def test_window_hist_is_empty_for_unseen_window(self):
        ring = HistogramRing()
        assert ring.window_hist(42).count == 0


def _observed_cluster(**kwargs):
    cluster = Cluster(node_count=2, node_size=NODE_SIZE)
    client = cluster.client("worker", **kwargs)
    tracer = Tracer()
    tracer.attach(client)
    registry = TelemetryRegistry(window_ns=1_000).observe(tracer)
    return cluster, client, tracer, registry


class TestRegistryAccounting:
    def test_fleet_counters_equal_metrics_delta(self):
        cluster, client, tracer, registry = _observed_cluster()
        tree = cluster.ht_tree(bucket_count=64)
        for key in range(32):
            tree.put(client, key, key)
        for key in range(32):
            assert tree.get(client, key) == key
        assert (
            registry.counter_total(FLEET, "far_accesses")
            == client.metrics.far_accesses
        )
        assert (
            registry.counter_total(("client", "worker"), "far_accesses")
            == client.metrics.far_accesses
        )
        # Per-node scopes partition the fleet count exactly.
        node_total = sum(
            registry.counter_total(scope, "far_accesses")
            for scope in registry.scopes("node")
        )
        assert node_total == client.metrics.far_accesses
        # The latency ring saw one sample per access.
        hist = registry.histogram_total(FLEET, "far_latency_ns")
        assert hist.count == client.metrics.far_accesses

    def test_structure_scope_from_span_labels(self):
        cluster, client, tracer, registry = _observed_cluster()
        tree = cluster.ht_tree(bucket_count=64)
        tree.put(client, 1, 10)
        assert tree.get(client, 1) == 10
        assert "httree" in registry.structure_labels()
        assert registry.counter_total(("structure", "httree"), "far_accesses") > 0

    def test_extent_heat_and_node_attribution(self):
        cluster, client, tracer, registry = _observed_cluster()
        extent_size = cluster.fabric.extents.extent_size
        addr = cluster.allocator.alloc_words(4)
        extent = addr // extent_size
        for _ in range(5):
            client.write_u64(addr, 1)
        assert registry.extent_heat(extent) == 5
        assert extent in registry.extent_ids()
        table = cluster.fabric.extents
        assert registry.extent_node(extent) == table.node_of(
            table.extent_base(extent)
        )
        assert registry.extent_node(10**6) is None

    @pytest.mark.parametrize(
        "access, table_heat, registry_heat",
        [
            # One extent: the two planes count alike.
            (lambda c, es: c.read(es + 16, 64), {1: 1}, {1: 1}),
            # 8 KiB over extents 0-2: the table counts every segment, the
            # registry only the extent the op named (its first).
            (lambda c, es: c.read(es // 2, 2 * es), {0: 1, 1: 1, 2: 1}, {0: 1}),
            # An indirect op: the pointer's extent and the target's, in both.
            (lambda c, es: c.load0(0, 8), {0: 1, 3: 1}, {0: 1, 3: 1}),
        ],
        ids=["one_extent", "three_extents", "indirect"],
    )
    def test_registry_heat_credits_an_ops_first_and_target_extents(
        self, access, table_heat, registry_heat
    ):
        cluster = Cluster(node_count=2, node_size=1 << 16, interleaved=True)
        es = cluster.fabric.extents.extent_size
        assert es == 4096
        cluster.client("setup").write_u64(0, 3 * es)  # extent 0 points into extent 3
        table = cluster.fabric.extents
        before = {e: table.heat_of(e) for e in range(table.extent_count)}
        client = cluster.client("observed")
        registry = TelemetryRegistry().watch(client)
        access(client, es)
        seen = {e: table.heat_of(e) - before[e] for e in range(table.extent_count)}
        assert {e: n for e, n in seen.items() if n} == table_heat
        assert {e: registry.extent_heat(e) for e in registry.extent_ids()} == registry_heat

    def test_timeouts_and_retries_counted(self):
        from repro.fabric import FaultPlan, RetryPolicy

        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        cluster.inject_faults(seed=7, plan=FaultPlan().random_timeouts(0.2))
        client = cluster.client(
            "flaky", retry_policy=RetryPolicy(max_attempts=6)
        )
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry(window_ns=1_000).observe(tracer)
        addr = cluster.allocator.alloc_words(1)
        for _ in range(50):
            client.read_u64(addr)
        assert client.metrics.timeouts > 0
        assert (
            registry.counter_total(FLEET, "timeouts") == client.metrics.timeouts
        )
        assert (
            registry.counter_total(FLEET, "backoffs") == client.metrics.retries
        )

    def test_transactions_counted(self):
        """txn_commit / txn_abort roll up like every other count."""
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        client = cluster.client("teller")
        registry = TelemetryRegistry(window_ns=1_000).watch(client)
        space = cluster.txn_space(client)
        cell = cluster.allocator.alloc(64)
        space.init_cell(client, cell, bytes(8))
        with client.trace("bank.transfer"):
            txn = space.begin(client)
            space.write(client, txn, cell, b"x" * 8)
            space.commit(client, txn)
        space.abort(client, space.begin(client), reason="user")
        assert client.metrics.txn_commits == client.metrics.txn_aborts == 1
        for name in ("txn_commits", "txn_aborts"):
            assert registry.counter_total(FLEET, name) == 1
            assert registry.counter_total(("client", "teller"), name) == 1
        assert registry.counter_total(("structure", "bank"), "txn_commits") == 1
        assert registry.counter_total(("structure", "bank"), "txn_aborts") == 0

    def test_zero_observer_effect(self):
        """Attaching the registry changes no count and no clock tick."""

        def run(telemetry):
            Client.reset_ids()
            cluster = Cluster(node_count=2, node_size=NODE_SIZE)
            client = cluster.client("worker", qp_depth=8)
            if telemetry:
                tracer = Tracer()
                tracer.attach(client)
                TelemetryRegistry(window_ns=1_000).observe(tracer)
            tree = cluster.ht_tree(bucket_count=64)
            for key in range(48):
                tree.put(client, key, key * 2)
            assert tree.multiget(client, list(range(48))) == [
                key * 2 for key in range(48)
            ]
            return client.metrics.far_accesses, client.clock.now_ns

        assert run(telemetry=False) == run(telemetry=True)


class TestAttachment:
    def test_observe_is_idempotent(self):
        cluster, client, tracer, registry = _observed_cluster()
        registry.observe(tracer)  # second time is a no-op
        addr = cluster.allocator.alloc_words(1)
        client.write_u64(addr, 1)
        assert registry.counter_total(FLEET, "far_accesses") == 1

    def test_unobserve_stops_ingestion(self):
        cluster, client, tracer, registry = _observed_cluster()
        addr = cluster.allocator.alloc_words(1)
        client.write_u64(addr, 1)
        tracer.remove_sink(registry)
        client.write_u64(addr, 2)
        assert registry.counter_total(FLEET, "far_accesses") == 1

    def test_watch_reuses_existing_tracer(self):
        cluster, client, tracer, registry = _observed_cluster()
        other = TelemetryRegistry(window_ns=1_000).watch(client)
        addr = cluster.allocator.alloc_words(1)
        client.write_u64(addr, 1)
        assert other.counter_total(FLEET, "far_accesses") == 1
        assert other._carrier is None  # rode the client's own tracer

    def test_watch_tracerless_client_attaches_carrier(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("bare")
        registry = TelemetryRegistry(window_ns=1_000).watch(client)
        addr = cluster.allocator.alloc_words(1)
        client.write_u64(addr, 1)
        assert registry.counter_total(FLEET, "far_accesses") == 1
        # A second tracerless client shares the same carrier tracer.
        second = cluster.client("bare2")
        registry.watch(second)
        second.write_u64(addr, 2)
        assert (
            registry.counter_total(("client", "bare2"), "far_accesses") == 1
        )

    def test_window_ns_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryRegistry(window_ns=0)


class _Recorder:
    def __init__(self):
        self.advances = []

    def on_window_advance(self, registry, client, ts_ns):
        self.advances.append((registry.current_window, client.name))


class TestListeners:
    def test_window_advance_fires_on_boundary(self):
        cluster, client, tracer, registry = _observed_cluster()
        recorder = _Recorder()
        registry.add_listener(recorder)
        addr = cluster.allocator.alloc_words(1)
        # Each far access advances the simulated clock ~1 us; with 1 us
        # windows the listener must fire at least once.
        for _ in range(10):
            client.read_u64(addr)
        assert recorder.advances
        windows = [w for w, _name in recorder.advances]
        assert windows == sorted(windows)
        assert all(name == "worker" for _w, name in recorder.advances)


class TestEventGaugeTimestamps:
    """An event-fed gauge is stamped with the emitting client's clock, so
    last-sample-wins is by *simulated* time, not by emission order."""

    def _two_clients(self):
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        tracer = Tracer()
        registry = TelemetryRegistry(window_ns=1_000).observe(tracer)
        ahead, fresh = cluster.client("ahead"), cluster.client("fresh")
        tracer.attach(ahead)
        tracer.attach(fresh)
        ahead.clock.advance(5_000)
        return tracer, registry, ahead, fresh

    def test_an_older_remap_does_not_roll_the_epoch_back(self):
        tracer, registry, ahead, fresh = self._two_clients()
        tracer.emit(ahead, "remap", extent=3, src_node=0, dst_node=1, epoch=7)
        tracer.emit(fresh, "remap", extent=3, src_node=1, dst_node=0, epoch=3)
        gauge = registry.gauge(("extent", 3), "epoch")
        assert (gauge.value, gauge.ts_ns) == (7, 5_000.0)
        assert gauge.windows() == [(0, 3), (5, 7)]

    def test_an_older_copy_round_does_not_roll_progress_back(self):
        tracer, registry, ahead, fresh = self._two_clients()
        move = {"extent": 3, "src_node": 0, "dst_node": 1, "nbytes": 64}
        tracer.emit(ahead, "extent_migrate", **move, done=4, total=4)
        tracer.emit(fresh, "extent_migrate", **move, done=1, total=4)
        gauge = registry.gauge(("extent", 3), "migration_progress")
        assert (gauge.value, gauge.ts_ns) == (1.0, 5_000.0)

    def test_drained_is_stamped_with_the_drainers_clock(self):
        tracer, registry, ahead, fresh = self._two_clients()
        tracer.emit(ahead, "drain", node=1, extents_moved=2, bytes_copied=128)
        assert registry.gauge(("node", 1), "drained").ts_ns == 5_000.0
        tracer.emit(fresh, "drain", node=1, extents_moved=0, bytes_copied=0)
        assert registry.gauge(("node", 1), "drained").ts_ns == 5_000.0


class TestSampling:
    def test_sample_client_mirrors_metrics(self):
        cluster, client, tracer, registry = _observed_cluster()
        addr = cluster.allocator.alloc_words(1)
        for _ in range(3):
            client.write_u64(addr, 9)
        registry.sample_client(client)
        scope = ("client", "worker")
        for name in CLIENT_COUNTER_FIELDS:
            assert registry.gauge_value(scope, f"metrics.{name}") == getattr(
                client.metrics, name
            )

    def test_sample_includes_custom_counters(self):
        cluster, client, tracer, registry = _observed_cluster()
        client.metrics.bump("fences", 4)
        registry.sample_client(client)
        assert (
            registry.gauge_value(("client", "worker"), "metrics.custom.fences")
            == 4
        )
