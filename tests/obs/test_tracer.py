"""Tracer semantics: zero observer effect, exact attribution, causality.

The invariants under test are the ones DESIGN.md section 8 promises
(the roll-ups of the record — per node, per structure, fleet-wide — are a
``TelemetryRegistry``'s, so the fault and node tests read them through one
observing the same run):

* tracing never changes behaviour — every metrics counter and every
  simulated timestamp is bit-identical with tracing on or off;
* every far access is attributed to exactly one span (the innermost open
  one, or the client's implicit root), so per-span attributions sum to
  the client's total;
* spans nest correctly across ``batch()`` scopes and unsignaled submits,
  and retry-ladder events attach to the faulted operation's span.
"""

import pytest

from repro import Cluster
from repro.fabric import FaultPlan, RetryPolicy
from repro.fabric.errors import FabricError, QueueEmpty
from repro.notify.delivery import DeliveryEngine, DeliveryPolicy
from repro.notify.subscription import Notification, NotifyKind, Subscription
from repro.obs import FLEET, TelemetryRegistry, Tracer, render_fleet, render_nodes


def _workload(traced):
    """One deterministic mixed workload; returns (metrics, clock, tracer)."""
    cluster = Cluster(node_count=2, node_size=8 << 20)
    client = cluster.client("worker", qp_depth=8)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.attach(client)
    tree = cluster.ht_tree(bucket_count=256, max_chain=4)
    for key in range(40):
        tree.put(client, key, key * key)
    values = tree.multiget(client, list(range(40)))
    assert values == [key * key for key in range(40)]
    queue = cluster.far_queue(capacity=32, max_clients=2)
    for i in range(20):
        queue.enqueue(client, i + 1)
        assert queue.dequeue(client) == i + 1
    block = cluster.allocator.alloc(128)
    with client.batch():
        for i in range(8):
            client.submit("write_u64", block + 8 * i, i)
    client.fence()
    return client.metrics, client.clock, tracer


class TestZeroObserverEffect:
    def test_tracing_is_bit_identical(self):
        base_metrics, base_clock, _ = _workload(traced=False)
        traced_metrics, traced_clock, tracer = _workload(traced=True)
        # Every counter — far accesses, round trips, traversals, pipeline
        # nanoseconds — and the clock itself, exactly.
        assert traced_metrics.as_dict() == base_metrics.as_dict()
        assert traced_clock.now_ns == base_clock.now_ns
        # And the tracer actually observed the run.
        assert tracer.events_by_kind("far_access")

    def test_attribution_sums_to_client_total(self):
        metrics, _, tracer = _workload(traced=True)
        tracer.finish()
        assert tracer.attributed_far_accesses() == metrics.far_accesses
        assert len(tracer.events_by_kind("far_access")) == metrics.far_accesses


class TestSpanNesting:
    def test_nesting_across_batch(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("worker", qp_depth=16)
        block = cluster.allocator.alloc(128)
        tracer = Tracer()
        with tracer.span(client, "outer") as outer:
            with client.batch():
                with client.trace("inner", step=1) as inner:
                    for i in range(4):
                        client.submit("write_u64", block + 8 * i, i)
                for i in range(4, 6):
                    client.submit("write_u64", block + 8 * i, i)
        tracer.finish()

        root = tracer.spans_by_label("client:worker")[0]
        assert outer.parent_id == root.span_id
        assert inner.parent_id == outer.span_id
        assert inner.tags == {"step": 1}
        assert outer.child_count == 1

        # Far accesses attribute to the innermost span open at issue
        # time, even though the batch window flushes after `inner` ends.
        accesses = tracer.events_by_kind("far_access")
        assert [e.span_id for e in accesses] == [inner.span_id] * 4 + [
            outer.span_id
        ] * 2
        assert inner.far_accesses == 4
        assert outer.far_accesses == 2

        # The batch-exit flush is one window event holding all six ops,
        # attributed to the span open at flush time (outer), with each
        # member op still pointing back at its own span.
        windows = tracer.events_by_kind("window")
        assert len(windows) == 1
        window = windows[0]
        assert window.data["reason"] == "batch"
        assert window.data["n"] == 6
        assert window.span_id == outer.span_id
        member_spans = [op["span_id"] for op in window.data["ops"]]
        assert member_spans == [inner.span_id] * 4 + [outer.span_id] * 2
        # Overlap actually hid latency in this window.
        assert window.data["saved_ns"] > 0
        assert window.data["charged_ns"] < window.data["serial_ns"]

        # Spans nest, so the inclusive deltas do too.
        assert outer.delta.far_accesses == 6
        assert inner.delta.far_accesses == 4
        assert tracer.attributed_far_accesses() == client.metrics.far_accesses

    def test_unsignaled_submit_attributes_to_enclosing_span(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("poller", qp_depth=8)
        block = cluster.allocator.alloc(64)
        client.write_u64(block, 7)
        tracer = Tracer()
        with tracer.span(client, "poll") as span:
            future = client.submit("read_u64", block, signaled=False)
        client.fence()
        tracer.finish()

        # The unsignaled future never lands in the CQ, but its far access
        # is still attributed to the span open at submit time.
        assert future.result() == 7
        assert future.span_id == span.span_id
        assert span.far_accesses == 1
        access = next(e for e in tracer.events if e.span_id == span.span_id)
        assert access.kind == "far_access"
        assert access.data["op"] == "read_u64"

        # The post-span fence flush belongs to the root span instead.
        root = tracer.spans_by_label("client:poller")[0]
        fence_windows = [
            e
            for e in tracer.events_by_kind("window")
            if e.data["reason"] == "fence"
        ]
        assert len(fence_windows) == 1
        assert fence_windows[0].span_id == root.span_id

    def test_root_span_catches_unscoped_work(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("loose")
        tracer = Tracer()
        tracer.attach(client)
        counter = cluster.far_counter()
        counter.add(client, 41)
        counter.increment(client)
        assert counter.read(client) == 42
        tracer.finish()

        root = tracer.spans_by_label("client:loose")[0]
        assert root.is_root
        assert root.parent_id is None
        assert root.far_accesses == client.metrics.far_accesses == 3
        # Root spans are accounting scaffolding, not measured labels.
        assert "client:loose" not in tracer.summary()

    def test_stall_flushes_at_qp_bound(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("deep", qp_depth=2)
        block = cluster.allocator.alloc(64)
        tracer = Tracer()
        snapshot = client.metrics.snapshot()
        with tracer.span(client, "burst"):
            for i in range(6):
                client.submit("write_u64", block + 8 * i, i)
        tracer.finish()
        delta = client.metrics.delta(snapshot)

        stalls = tracer.events_by_kind("stall")
        assert len(stalls) == delta.pipeline_stalls == 3
        assert all(e.data["qp_depth"] == 2 for e in stalls)
        windows = tracer.events_by_kind("window")
        assert [w.data["reason"] for w in windows] == ["stall"] * 3
        assert all(w.data["n"] == 2 for w in windows)

    def test_lazy_delta_equals_the_metrics_ledger(self):
        # A span reads the counters as a tuple at each end and builds its
        # delta when asked; Metrics.delta over snapshots taken at the same
        # boundaries is the ledger it must reproduce, custom counters too.
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("ledger")
        block = cluster.allocator.alloc(64)
        metrics = client.metrics
        metrics.bump("early")  # bumped before the spans and during them
        tracer = Tracer()
        with tracer.span(client, "outer") as outer:
            outer_start = metrics.snapshot()
            client.write_u64(block, 1)
            metrics.bump("early")
            with client.trace("late") as late:
                late_start = metrics.snapshot()
                metrics.bump("late")  # first appears mid-span
                client.read_u64(block)
            late_ledger = metrics.delta(late_start)
            assert outer.delta is None  # open
            with client.trace("reset") as reset:
                reset_start = metrics.snapshot()
                metrics.reset()  # keys only the start holds turn negative
                metrics.bump("late", 3)
                client.read_u64(block)
            reset_ledger = metrics.delta(reset_start)
        outer_ledger = metrics.delta(outer_start)
        for span, ledger in ((late, late_ledger), (reset, reset_ledger), (outer, outer_ledger)):
            assert span.delta.as_dict() == ledger.as_dict()
            assert dict(span.delta.custom) == dict(ledger.custom)
        assert dict(late.delta.custom) == {"late": 1}
        assert dict(reset.delta.custom) == {"early": -2, "late": 2}
        assert reset.delta.far_accesses < 0
        assert dict(outer.delta.custom) == {"early": -1, "late": 3}


class TestFaultEvents:
    def test_retry_ladder_attaches_to_op_spans(self):
        cluster = Cluster(node_count=2, node_size=8 << 20)
        tree = cluster.ht_tree(bucket_count=128, max_chain=4)
        loader = cluster.client("loader")
        for key in range(100):
            tree.put(loader, key, key)

        cluster.inject_faults(
            seed=7, plan=FaultPlan().random_timeouts(0.2)
        )
        client = cluster.client(
            "worker", retry_policy=RetryPolicy(max_attempts=6)
        )
        tracer = Tracer()
        tracer.attach(client)
        snapshot = client.metrics.snapshot()
        for key in range(100):
            try:
                tree.get(client, key)
            except FabricError:
                pass
        delta = client.metrics.delta(snapshot)
        tracer.finish()

        assert delta.retries > 0 and delta.timeouts > 0
        # One backoff event per re-attempt, one timeout event per
        # timed-out attempt — nothing lost, nothing invented.
        backoffs = tracer.events_by_kind("backoff")
        timeouts = tracer.events_by_kind("timeout")
        assert len(backoffs) == delta.retries
        assert len(timeouts) == delta.timeouts
        # Every retry-ladder event attaches to the faulted lookup's span,
        # not to the root or a neighbouring op.
        get_ids = {s.span_id for s in tracer.spans_by_label("httree.get")}
        assert all(e.span_id in get_ids for e in backoffs)
        assert all(e.span_id in get_ids for e in timeouts)
        for event in backoffs:
            assert event.data["attempt"] >= 1
            assert event.data["backoff_ns"] > 0
            assert event.data["op"]


class TestAttachment:
    def test_client_feeds_at_most_one_tracer(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("solo")
        first, second = Tracer(), Tracer()
        first.attach(client)
        assert first.attach(client) is first  # idempotent
        with pytest.raises(RuntimeError):
            second.attach(client)
        with pytest.raises(RuntimeError):
            with second.span(client, "nope"):
                pass
        # Detach closes the root span and frees the client for reattach.
        first.detach(client)
        assert client.tracer is None
        assert first.spans_by_label("client:solo")[0].open is False
        second.attach(client)
        assert client.tracer is second

    def test_span_auto_attaches(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("auto")
        tracer = Tracer()
        counter = cluster.far_counter()
        with tracer.span(client, "bump"):
            counter.increment(client)
        assert tracer.attached(client)
        assert tracer.spans_by_label("bump")[0].far_accesses > 0

    def test_histogram_families(self):
        cluster = Cluster(node_count=2, node_size=8 << 20)
        client = cluster.client("worker")
        tracer = Tracer()
        registry = TelemetryRegistry().observe(tracer)
        tree = cluster.ht_tree(bucket_count=64)
        with tracer.span(client, "put-phase") as phase:
            for key in range(16):
                tree.put(client, key, key)
        tracer.finish()
        rows = {line.split()[0]: line.split()[1:3] for line in tracer.summary().splitlines()}
        assert rows["put-phase"] == ["1", str(phase.delta.far_accesses)]
        # The fleet's, the nodes' and the structures' charge histograms
        # each cover every far access.
        total = client.metrics.far_accesses
        assert registry.histogram_total(FLEET, "far_latency_ns").count == total
        for kind in ("node", "structure"):
            scopes = registry.scopes(kind)
            assert scopes
            counts = [registry.histogram_total(scope, "far_latency_ns").count for scope in scopes]
            assert sum(counts) == total


class TestNotifyAndSpans:
    def test_notification_outcomes_become_events(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("subscriber")
        tracer = Tracer()
        tracer.attach(client)
        engine = DeliveryEngine(DeliveryPolicy(coalesce_every=2))
        sub = Subscription(1, client, NotifyKind.NOTIFY0, 0, 8)
        with client.trace("deliver") as span:
            for seq in range(4):
                engine.offer(sub, Notification(1, NotifyKind.NOTIFY0, 0, 8, seq=seq))
        tracer.finish()

        notes = tracer.events_by_kind("notify")
        assert [e.data["outcome"] for e in notes] == [
            "coalesced",
            "delivered",
            "coalesced",
            "delivered",
        ]
        assert all(e.data["sub_id"] == 1 for e in notes)
        # Delivered events carry the coalesced-count the paper's NOTIFY
        # semantics argue about.
        assert [e.data.get("coalesced") for e in notes] == [None, 2, None, 2]
        # Deliveries land in the span's delta too.
        assert span.delta.notifications_received == 2

    def test_certified_ops_open_their_spans_inside_a_phase(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("worker")
        tracer = Tracer()
        tracer.attach(client)
        tree = cluster.ht_tree(bucket_count=64)
        queue = cluster.far_queue(capacity=8, max_clients=2)
        with client.trace("load") as load:
            for key in range(8):
                tree.put(client, key, key)
        tree.get(client, 3)  # warm
        with client.trace("lookup") as lookup:
            tree.get(client, 3)
        with pytest.raises(QueueEmpty):
            queue.dequeue(client)
        tracer.finish()

        # Each op's @far_budget opens its span, tagged, inside the phase
        # the caller labels; the phase's delta is inclusive.
        puts = tracer.spans_by_label("httree.put")
        assert [p.tags for p in puts] == [{"key": key} for key in range(8)]
        assert all(p.parent_id == load.span_id for p in puts)
        assert load.delta.far_accesses == sum(p.delta.far_accesses for p in puts)
        assert all(p.delta.far_accesses >= 2 for p in puts)  # C4: a store is 2+
        get = tracer.spans_by_label("httree.get")[-1]
        assert get.parent_id == lookup.span_id
        assert get.delta.far_accesses == lookup.delta.far_accesses == 1  # C4
        assert get.duration_ns == lookup.duration_ns > 0
        # An op that raises still closes its span with what it spent.
        (dequeue,) = tracer.spans_by_label("queue.dequeue")
        assert not dequeue.open and dequeue.delta.far_accesses > 0
        # The summary's count and far columns are the per-label ledger.
        rows = {
            line.split()[0]: line.split()[1:3] for line in tracer.summary().splitlines()[2:9]
        }
        assert rows["httree.put"] == ["8", str(load.delta.far_accesses)]
        assert rows["httree.get"] == ["2", "2"]
        assert rows["queue.dequeue"] == ["1", str(dequeue.delta.far_accesses)]


class TestIntegrityAndRepairEvents:
    def _integrity_workload(self, traced):
        from repro.fabric.replication import ReplicatedRegion
        from repro.recovery import RepairCoordinator

        cluster = Cluster(node_count=4, node_size=8 << 20)
        client = cluster.client("app")
        tracer = registry = None
        if traced:
            tracer = Tracer()
            tracer.attach(client)
            registry = TelemetryRegistry().observe(tracer)
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=32, block_count=6, copies=2
        )
        coordinator = RepairCoordinator(
            cluster.allocator, home_node=3, chunk_blocks=4
        )
        coordinator.register(client, region)
        for index in range(6):
            region.write_block(client, index, bytes([index]) * 32)
        # Rot block 0 on the primary: the read detects and heals.
        location = cluster.fabric.locate(region.replicas[0])
        cluster.fabric.nodes[location.node].corrupt_bit(location.offset + 9, 4)
        stale = region.clone_view()
        assert region.read_block(client, 0) == b"\x00" * 32
        dead = cluster.fabric.node_of(region.replicas[0])
        cluster.fabric.fail_node(dead)
        coordinator.run(client, dead)
        try:
            stale.write_block(client, 1, b"s" * 32)
        except FabricError:
            pass
        return client.metrics, client.clock, tracer, registry

    def test_zero_observer_effect_on_integrity_paths(self):
        bare_metrics, bare_clock, _, _ = self._integrity_workload(traced=False)
        traced_metrics, traced_clock, _, _ = self._integrity_workload(traced=True)
        assert traced_metrics.as_dict() == bare_metrics.as_dict()
        assert traced_clock.now_ns == bare_clock.now_ns

    def test_events_and_summary_lines(self):
        _, _, tracer, registry = self._integrity_workload(traced=True)
        tracer.finish()

        rot = tracer.events_by_kind("corruption_detected")
        assert len(rot) == 1
        assert rot[0].data["payload_len"] == 32

        copies = tracer.events_by_kind("repair_copy")
        assert copies  # chunked: 6 blocks in chunks of 4 -> 2 events
        assert copies[-1].data["done"] == copies[-1].data["total"] == 6
        assert sum(e.data["blocks"] for e in copies) == 6

        fences = tracer.events_by_kind("fence_reject")
        assert len(fences) == 1
        assert fences[0].data["held"] == 1
        assert fences[0].data["current"] == 2

        (events,) = [line for line in tracer.summary().splitlines() if line.startswith("events: ")]
        for count in ("corruption_detected=1", "fence_reject=1", "repair_copy=2"):
            assert count in events.split(": ")[1].split(", ")
        dead = copies[0].data["dead_node"]
        fleet = render_fleet(registry)
        assert "verify_misses=1" in fleet and "fence_rejects=1" in fleet
        assert _node_row(registry, dead)[-1] == "repaired (was dead)"
        assert registry.gauge_value(("node", dead), "repair_progress") == 1.0

    def test_torn_write_event_carries_attempts(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        cluster.inject_faults(seed=2, plan=FaultPlan().torn_at(0))
        client = cluster.client("w", breaker_policy=None)  # retries on
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry().observe(tracer)
        addr = cluster.allocator.alloc(64)
        client.write(addr, b"\x55" * 64)  # torn once, healed by retry
        tracer.finish()
        torn = tracer.events_by_kind("torn_write")
        assert len(torn) == 1
        assert torn[0].data["op"] == "write"
        assert torn[0].data["attempt"] == 1
        assert "torn_write=1" in tracer.summary()
        assert "torn_writes=1" in render_fleet(registry)
        assert _node_row(registry, 0)[8] == "1"  # the torn column

    def test_breaker_state_line(self):
        from repro.fabric import BreakerPolicy

        cluster = Cluster(node_count=2, node_size=8 << 20)
        cluster.inject_faults(
            seed=3, plan=FaultPlan().random_timeouts(1.0, node=0)
        )
        client = cluster.client(
            "b",
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_ns=1e12),
        )
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry().observe(tracer)
        addr = cluster.allocator.alloc(64)
        for _ in range(3):
            try:
                client.read_u64(addr)
            except FabricError:
                pass
        tracer.finish()
        rejects = client.metrics.breaker_rejections
        assert rejects == len(tracer.events_by_kind("breaker_reject")) > 0
        assert f"breaker_trips=1 breaker_rejects={rejects}" in render_fleet(registry)
        assert _node_row(registry, 0)[6] == str(rejects)


class TestNodeSummaryLines:
    def test_per_node_breakdown_in_summary(self):
        """`repro trace` prints a registry's node table: one row per
        memory node with its far accesses, tail charge and fault counts."""
        cluster = Cluster(node_count=2, node_size=8 << 20)
        cluster.inject_faults(
            seed=5, plan=FaultPlan().random_timeouts(0.3, node=1)
        )
        client = cluster.client(
            "worker", retry_policy=RetryPolicy(max_attempts=6)
        )
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry().observe(tracer)
        # Spread traffic over both nodes so both rows materialize.
        near = cluster.allocator.alloc_words(1)
        from repro.alloc import on_node

        far = cluster.allocator.alloc_words(1, on_node(1))
        for _ in range(20):
            client.read_u64(near)
            client.read_u64(far)
        tracer.finish()
        node0, node1 = _node_row(registry, 0), _node_row(registry, 1)
        # The faulted node's row owns the timeouts; the clean one has none.
        assert client.metrics.timeouts > 0
        assert node1[5] == str(client.metrics.timeouts)
        assert node0[5] == "0"
        assert node0[3] != "-"  # a p99 charge
        # The rows' far accesses cover all far accesses.
        assert int(node0[1]) + int(node1[1]) == client.metrics.far_accesses

    def test_drained_and_dead_markers(self):
        cluster = Cluster(node_count=2, node_size=1 << 20)
        cluster.add_node()  # empty headroom for the drain
        client = cluster.client("driver")
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry().observe(tracer)
        base = cluster.allocator.alloc(4096)
        client.write_u64(base, 7)
        cluster.drain_node(0, client)
        tracer.finish()
        assert _node_row(registry, 0)[-1] == "drained"


def _node_row(registry, node):
    """``node``'s row of the registry's node table, split into columns:
    node, far, recent, p99, bytes, timeouts, rejects, miss, torn,
    migr in/out, state."""
    line = next(
        line for line in render_nodes(registry).splitlines() if line.split()[0] == f"node{node}"
    )
    return line.split(maxsplit=10)
