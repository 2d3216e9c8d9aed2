"""The event table is the event stream.

``repro.obs.events.EVENTS`` is the one statement of the observer's
vocabulary. These tests drive one scenario per subsystem under a tracer
and hold the stream to the table — every emitted payload passes
:func:`check_payload`, every row is exercised — so a call site cannot
drift from its row (``emit`` takes any keywords; this is the check on
them), and hold the other derivations (``EVENT_KINDS``, DESIGN.md's
taxonomy) to it too.
"""

from pathlib import Path

import pytest

import repro.obs
from repro import Cluster
from repro.fabric import BreakerPolicy, FaultPlan, RetryPolicy
from repro.fabric.client import Client
from repro.fabric.errors import FabricError
from repro.fabric.replication import ReplicatedRegion
from repro.notify.delivery import DeliveryEngine, DeliveryPolicy
from repro.notify.subscription import Notification, NotifyKind, Subscription
from repro.obs import SLOMonitor, TelemetryRegistry, Tracer
from repro.obs.events import ENVELOPE, EVENTS, check_payload
from repro.recovery import RepairCoordinator

NODE = 8 << 20


def _pipeline(tracer):
    """far_access, window, stall."""
    cluster = Cluster(node_count=1, node_size=NODE)
    client = cluster.client("deep", qp_depth=2)
    tracer.attach(client)
    block = cluster.allocator.alloc(64)
    for i in range(4):
        client.submit("write_u64", block + 8 * i, i)


def _faults(tracer):
    """timeout, backoff, breaker_trip, breaker_reject, torn_write."""
    cluster = Cluster(node_count=2, node_size=NODE)
    cluster.inject_faults(seed=3, plan=FaultPlan().random_timeouts(1.0, node=0))
    client = cluster.client(
        "flaky",
        retry_policy=RetryPolicy(max_attempts=2),
        breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_ns=1e12),
    )
    tracer.attach(client)
    addr = cluster.allocator.alloc(64)
    for _ in range(3):
        with pytest.raises(FabricError):
            client.read_u64(addr)
    cluster = Cluster(node_count=1, node_size=NODE)
    cluster.inject_faults(seed=2, plan=FaultPlan().torn_at(0))
    client = cluster.client("torn", breaker_policy=None)
    tracer.attach(client)
    client.write(cluster.allocator.alloc(64), b"\x55" * 64)  # healed by the retry


def _integrity(tracer):
    """corruption_detected, repair_copy, fence_reject."""
    cluster = Cluster(node_count=4, node_size=NODE)
    client = cluster.client("app")
    tracer.attach(client)
    region = ReplicatedRegion.create_framed(
        cluster.allocator, block_payload=32, block_count=6, copies=2
    )
    coordinator = RepairCoordinator(cluster.allocator, home_node=3, chunk_blocks=4)
    coordinator.register(client, region)
    for index in range(6):
        region.write_block(client, index, bytes([index]) * 32)
    location = cluster.fabric.locate(region.replicas[0])
    cluster.fabric.nodes[location.node].corrupt_bit(location.offset + 9, 4)
    stale = region.clone_view()
    assert region.read_block(client, 0) == b"\x00" * 32  # detected, healed
    dead = cluster.fabric.node_of(region.replicas[0])
    cluster.fabric.fail_node(dead)
    coordinator.run(client, dead)
    with pytest.raises(FabricError):
        stale.write_block(client, 1, b"s" * 32)


def _migration(tracer):
    """extent_migrate, remap, drain."""
    cluster = Cluster(node_count=2, node_size=1 << 20)
    client = cluster.client("mover")
    tracer.attach(client)
    cluster.add_node()
    cluster.drain_node(1, client)


def _notify(tracer):
    """notify, with and without its optional keys."""
    cluster = Cluster(node_count=1, node_size=NODE)
    client = cluster.client("subscriber")
    tracer.attach(client)
    engine = DeliveryEngine(
        DeliveryPolicy(coalesce_every=2, bucket_capacity=1, bucket_refill=1)
    )
    sub = Subscription(1, client, NotifyKind.NOTIFY0, 0, 8)
    for seq in range(6):
        if seq == 4:
            engine.tick()  # tokens are back: the next delivery warns of the loss
        engine.offer(sub, Notification(1, NotifyKind.NOTIFY0, 0, 8, seq=seq))


def _txn(tracer):
    """txn_begin, txn_validate, txn_commit, txn_abort."""
    cluster = Cluster(node_count=2, node_size=NODE)
    client = cluster.client("teller")
    tracer.attach(client)
    space = cluster.txn_space(client)
    cell = cluster.allocator.alloc(64)
    space.init_cell(client, cell, bytes(8))
    txn = space.begin(client)
    space.write(client, txn, cell, b"x" * 8)
    space.commit(client, txn)
    space.abort(client, space.begin(client), reason="user")


def _slo(tracer):
    """slo_alert (emitted by the monitor through the same path)."""
    cluster = Cluster(node_count=2, node_size=NODE)
    cluster.inject_faults(seed=11, plan=FaultPlan().random_timeouts(0.25))
    client = cluster.client("burning", retry_policy=RetryPolicy(max_attempts=6))
    tracer.attach(client)
    monitor = SLOMonitor(TelemetryRegistry(window_ns=20_000).observe(tracer))
    addr = cluster.allocator.alloc_words(1)
    for _ in range(200):
        client.read_u64(addr)
    monitor.finish(client)


@pytest.fixture(scope="module")
def stream():
    """Every event the seven scenarios emit, in emission order."""
    Client.reset_ids()
    events = []
    for scenario in (_pipeline, _faults, _integrity, _migration, _notify, _txn, _slo):
        tracer = Tracer()
        scenario(tracer)
        tracer.finish()
        events.extend(tracer.events)
    return events


class TestTableIsTheStream:
    def test_every_emitted_event_matches_its_row(self, stream):
        for event in stream:
            assert check_payload(event.kind, event.data) is None
            assert check_payload(event.kind, event.to_dict(), ENVELOPE) is None

    def test_every_row_is_exercised(self, stream):
        assert {event.kind for event in stream} == set(EVENTS)

    def test_kind_list_is_derived(self):
        assert set(repro.obs.EVENT_KINDS) == set(EVENTS)
        assert repro.obs.EVENTS is EVENTS

    def test_every_kind_is_documented(self):
        design = (Path(__file__).parents[2] / "DESIGN.md").read_text(encoding="utf-8")
        assert [kind for kind in EVENTS if f"`{kind}`" not in design] == []

    def test_rows_are_well_formed(self):
        for kind, row in EVENTS.items():
            assert row.doc and row.fields, kind
            assert len(set(row.fields)) == len(row.fields), kind
            assert set(row.optional) <= set(row.fields), kind


class TestCheckPayload:
    GOOD = {"op": "read", "node": 1, "attempt": 2}

    def test_accepts_the_declared_payload(self):
        assert check_payload("timeout", self.GOOD) is None

    @pytest.mark.parametrize(
        "kind, payload, complaint",
        [
            ("timeuot", GOOD, "undeclared event kind"),
            ("timeout", {"op": "read", "nodes": 1, "attempt": 2}, "undeclared key"),
            ("timeout", {"op": "read", "attempt": 2}, "missing key"),
            ("timeout", {"node": 1, "op": "read", "attempt": 2}, "declared order"),
            ("notify", {"outcome": "delivered", "sub_id": 1}, "missing key"),
        ],
    )
    def test_rejects(self, kind, payload, complaint):
        assert complaint in check_payload(kind, payload)

    def test_optional_keys_may_be_absent_but_not_reordered(self):
        base = {"outcome": "delivered", "sub_id": 1, "watch_addr": 0}
        assert check_payload("notify", base) is None
        assert check_payload("notify", {**base, "loss_warning": True}) is None
        reordered = {**base, "loss_warning": True, "coalesced": 2}
        assert "declared order" in check_payload("notify", reordered)

    def test_record_check_covers_the_envelope(self, stream):
        record = next(e for e in stream if e.kind == "slo_alert").to_dict()
        # Its ts_ns / client sit in the envelope's positions.
        assert check_payload("slo_alert", record, ENVELOPE) is None
        del record["span_id"]
        assert "missing key" in check_payload("slo_alert", record, ENVELOPE)


class TestEmit:
    def test_refuses_an_undeclared_kind_and_an_unattached_client(self):
        cluster = Cluster(node_count=1, node_size=NODE)
        client = cluster.client("c")
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.emit(client, "stall", qp_depth=1)
        tracer.attach(client)
        with pytest.raises(ValueError):
            tracer.emit(client, "stalled", qp_depth=1)
        assert tracer.events == []
        event = tracer.emit(client, "stall", qp_depth=1)
        assert tracer.events == [event] and event.data == {"qp_depth": 1}
        assert tracer.current_span(client).event_count == 1
