"""The fold is the per-event roll-up, by property.

``TelemetryRegistry`` ingests with an append and rolls a batch up when the
fleet window advances or when it is read. Reading after *every* event
therefore is the per-event roll-up, so the same random stream is played
into two worlds — registry A read after each step, registry B only at the
end — and everything either can be asked must be equal: series totals,
per-window values and samples, float sums, the extent → node map, drained
nodes, client names, the window, the monitor's alerts and where each
``slo_alert`` sits in the tracer's stream.

The stream is built to hit what batching could get wrong: three clients on
independent clocks, two of them further behind than the ring reaches (so
rings evict, including a window evicted by its own insertion); every kind
in ``EVENTS``, with ``remap`` and ``far_access`` naming the same extents
(order-sensitive state); charges whose float sum depends on the order;
spans opened and closed mid-batch; an ``SLOMonitor`` whose alerts re-enter
the registry from inside a window advance.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric.client import Client
from repro.obs import EVENTS, SLOMonitor, SLObjective, TelemetryRegistry, Tracer
from repro.obs.telemetry import CounterSeries, HistogramRing

WINDOW_NS = 1_000
RING_WINDOWS = 2
START_NS = (0, 23 * WINDOW_NS, 9 * WINDOW_NS)  # client 0 lags both others
RARE_KINDS = sorted(set(EVENTS) - {"far_access", "window"})
# Drawn more often: the kinds with order-sensitive state or an alert behind them.
WEIGHTED_KINDS = RARE_KINDS + ["remap", "timeout"] * 6 + ["drain", "repair_copy"] * 2
# 1e16 + 1.0 + 1.0 != 1.0 + 1.0 + 1e16: an out-of-order float sum shows.
CHARGES = (0.1, 0.7, 1.0, 3.3, 1e16)

_far = st.tuples(
    st.just("far"),
    st.integers(0, 2),  # node
    st.integers(0, 3),  # extent of addr
    st.one_of(st.none(), st.integers(0, 3)),  # extent of target
    st.sampled_from(CHARGES),
    st.sampled_from((0, 8, 64)),  # nbytes_read
    st.sampled_from((0, 8)),  # nbytes_written
    st.integers(0, 1),  # forward_hops
)
_window = st.tuples(
    st.just("window"),
    st.lists(st.sampled_from(CHARGES), max_size=3),
    st.sampled_from((0.0, 0.3, 1e16)),  # saved_ns
)
_rare = st.tuples(
    st.just("emit"), st.sampled_from(WEIGHTED_KINDS), st.integers(0, 3), st.integers(0, 3)
)
_span = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(("httree.get", "queue.push", "plain"))),
    st.tuples(st.just("close")),
)
_steps = st.lists(
    st.tuples(
        st.integers(0, 2),  # client
        st.sampled_from((0, 1, 400, 1_100, 5_300)),  # clock advance, ns
        st.one_of(_far, _far, _window, _rare, _span),
    ),
    max_size=60,
)


def _payload(kind, a, b):
    """A well-formed ``kind`` payload out of two small integers."""
    values = {
        "node": a % 3, "dead_node": a % 3, "spare_node": b % 3,
        "src_node": a % 3, "dst_node": b % 3, "extent": b, "epoch": a,
        "op": "read", "outcome": "delivered", "reason": "conflict",
        "objective": "drawn", "client": "c0", "backoff_ns": a * 0.3,
        "total": b, "done": a,
    }  # fmt: skip
    row = EVENTS[kind]
    return {
        field: values.get(field, a)
        for field in row.fields
        if field not in row.optional or b % 2
    }


class _World:
    def __init__(self):
        Client.reset_ids()
        self.cluster = Cluster(node_count=3, node_size=1 << 20)
        self.extent_size = self.cluster.fabric.extents.extent_size
        self.tracer = Tracer()
        self.registry = TelemetryRegistry(
            window_ns=WINDOW_NS, ring_windows=RING_WINDOWS
        ).observe(self.tracer)
        objective = SLObjective(
            name="timeouts", budget=0.05, bad_metric="timeouts",
            total_metrics=("far_accesses", "timeouts"), long_windows=2,
        )  # fmt: skip
        self.monitor = SLOMonitor(self.registry, (objective,))
        self.clients = []
        self.open_spans = []
        for index, start_ns in enumerate(START_NS):
            client = self.cluster.client(f"c{index}")
            client.clock.advance(start_ns)
            self.tracer.attach(client)
            self.clients.append(client)
            self.open_spans.append([])

    def play(self, steps, *, read_each):
        for number, (who, advance_ns, action) in enumerate(steps):
            client = self.clients[who]
            client.clock.advance(advance_ns)
            self.step(client, self.open_spans[who], action)
            if read_each:
                READS[number % len(READS)](self.registry)
        for client, spans in zip(self.clients, self.open_spans):
            while spans:
                spans.pop().__exit__(None, None, None)
        self.tracer.finish()
        self.monitor.finish(self.clients[0])
        return self.observe()

    def step(self, client, spans, action):
        tracer = self.tracer
        if action[0] == "far":
            _, node, extent, target, charge, nread, nwritten, hops = action
            tracer.on_far_access(
                client, op="read_u64", charge_ns=charge, node=node,
                nbytes_read=nread, nbytes_written=nwritten, forward_hops=hops,
                segments=1, atomic=False, addr=extent * self.extent_size + 8,
                target=None if target is None else target * self.extent_size,
            )  # fmt: skip
        elif action[0] == "window":
            _, charges, saved = action
            tracer.on_window(
                client, start_ns=client.clock.now_ns, charged_ns=sum(charges),
                serial_ns=sum(charges) + saved, saved_ns=saved, reason="batch",
                window=[("read_u64", charge, None, None) for charge in charges],
            )  # fmt: skip
        elif action[0] == "emit":
            _, kind, a, b = action
            tracer.emit(client, kind, **_payload(kind, a, b))
        elif action[0] == "open":
            span = tracer.span(client, action[1])
            span.__enter__()
            spans.append(span)
        elif spans:
            spans.pop().__exit__(None, None, None)

    def observe(self):
        registry, tracer = self.registry, self.tracer
        return {
            "counters": [
                (scope, name, series.total, series.windows())
                for scope, name, series in registry.counters()
            ],
            "gauges": [
                (scope, name, series.value, series.ts_ns, series.windows())
                for scope, name, series in registry.gauges()
            ],
            "histograms": [
                (scope, name, _hist(ring.total))
                + tuple((w, _hist(ring.window_hist(w))) for w in ring.windows())
                for scope, name, ring in registry.histograms()
            ],
            "extent_node": [registry.extent_node(extent) for extent in range(4)],
            "drained_nodes": registry.drained_nodes(),
            "current_window": registry.current_window,
            "last_ts_ns": registry.last_ts_ns,
            "alerts": list(self.monitor.alerts),
            "alert_positions": [
                index
                for index, event in enumerate(tracer.events)
                if event.kind == "slo_alert"
            ],
            "tracer_hists": [
                [(label, _hist(hist)) for label, hist in family.items()]
                for family in (tracer.span_hist, tracer.op_hist, tracer.node_hist)
            ]
            + [_hist(tracer.window_hist)],
        }


def _hist(hist):
    return hist.samples(), hist.total_ns


# "Any accessor": each step of world A reads through a different one.
READS = (
    lambda registry: registry.counters(),
    lambda registry: registry.current_window,
    lambda registry: registry.extent_node(0),
    lambda registry: registry.histogram_total(("fleet",), "far_latency_ns"),
    lambda registry: registry.gauges(),
    lambda registry: registry.last_ts_ns,
    lambda registry: registry.counter_recent(("fleet",), "far_accesses", 2),
    lambda registry: registry.drained_nodes(),
    lambda registry: registry.node_ids(),
    lambda registry: registry.extent_heat(1),
    lambda registry: registry.gauge_value(("node", 0), "drained"),
    lambda registry: registry.histograms(),
)


# The order-sensitive case a fold can get wrong: within one batch, a far
# access sees extent 2 on node 0, then a remap moves it to node 2.
REMAP_AFTER_FAR = [
    (1, 0, ("far", 1, 0, None, 1.0, 8, 0, 0)),  # opens the window
    (1, 1, ("far", 0, 2, None, 1.0, 8, 0, 0)),
    (1, 1, ("emit", "remap", 0, 2)),
    (1, 1, ("far", 1, 3, None, 1.0, 8, 0, 0)),
]
# Timeouts in one window, then the event that closes it: the monitor fires
# from inside the advance and its ``slo_alert`` re-enters the registry.
ALERT_INSIDE_ADVANCE = [(1, 0, ("emit", "timeout", 1, 1))] * 3 + [
    (1, 1_100, ("far", 0, 0, None, 1.0, 8, 0, 0))
]


@settings(max_examples=120, deadline=None)
@given(_steps)
@example(REMAP_AFTER_FAR)
@example(ALERT_INSIDE_ADVANCE)
def test_reading_after_every_event_changes_nothing(steps):
    assert _World().play(steps, read_each=True) == _World().play(steps, read_each=False)


def test_a_remap_is_not_overwritten_by_an_earlier_far_access():
    world = _World()
    world.play(REMAP_AFTER_FAR, read_each=False)
    assert world.registry.extent_node(2) == 2
    assert world.registry.extent_node(3) == 1


def test_an_alert_fired_inside_an_advance_is_folded_exactly_once():
    world = _World()
    seen = world.play(ALERT_INSIDE_ADVANCE, read_each=False)
    assert len(seen["alerts"]) == 1 and seen["alert_positions"] == [4]
    assert world.registry.counter_total(("fleet",), "slo_alerts") == 1


_amounts = st.lists(st.sampled_from((1, 8, 0.3, 1e16)), min_size=1, max_size=4)
_runs = st.lists(st.tuples(st.integers(0, 12), _amounts), max_size=30)


@settings(max_examples=120, deadline=None)
@given(_runs)
def test_inc_many_is_inc_in_turn(runs):
    """Across ring eviction too — a window older than the ring reaches is
    evicted by its own first sample and re-created by its second."""
    one_by_one, batched = CounterSeries(RING_WINDOWS), CounterSeries(RING_WINDOWS)
    for window, amounts in runs:
        for amount in amounts:
            one_by_one.inc(window, amount)
        batched.inc_many(window, amounts)
        assert one_by_one.windows() == batched.windows()
    assert one_by_one.total == batched.total


@settings(max_examples=120, deadline=None)
@given(_runs)
def test_record_many_is_record_in_turn(runs):
    one_by_one, batched = HistogramRing(RING_WINDOWS), HistogramRing(RING_WINDOWS)
    for window, values in runs:
        for value in values:
            one_by_one.record(window, value)
        batched.record_many(window, values)
    assert _hist(one_by_one.total) == _hist(batched.total)
    assert one_by_one.windows() == batched.windows()
    for window in batched.windows():
        assert _hist(one_by_one.window_hist(window)) == _hist(batched.window_hist(window))


# -- The sink protocol, end to end -------------------------------------------
#
# One registry fed by two tracers through ``watch()``: client "own" brings its
# own tracer, client "carried" rides the registry's carrier. Their real far
# accesses interleave, bursts of timeouts fire the SLO monitor from inside a
# window advance, and a second listener logs every call it gets. The values
# below were recorded before sinks were fed as data; the digest covers every
# series (totals, per-window values, histogram samples).


class _Calls:
    def __init__(self):
        self.calls = []

    def on_window_advance(self, registry, client, ts_ns):
        self.calls.append((client.name, ts_ns))


def _two_tracer_run():
    Client.reset_ids()
    cluster = Cluster(node_count=2, node_size=1 << 16, interleaved=True)
    es = cluster.fabric.extents.extent_size
    own, carried = cluster.client("own"), cluster.client("carried")
    tracer = Tracer()
    tracer.attach(own)
    registry = TelemetryRegistry(window_ns=2_000, ring_windows=4).watch(own).watch(carried)
    objective = SLObjective(
        name="timeouts", budget=0.05, bad_metric="timeouts",
        total_metrics=("far_accesses", "timeouts"), long_windows=2,
    )  # fmt: skip
    monitor = SLOMonitor(registry, (objective,))
    listener = _Calls()
    registry.add_listener(listener)
    carried.clock.advance(1_500)
    for step in range(40):
        client = (own, carried)[step % 2]
        extent = step % 5
        if step % 4 == 0:
            client.write(extent * es + 8 * step, bytes([step]) * 24)
        elif step % 4 == 1:
            client.read(extent * es + es - 8, 16)  # two extents
        else:
            client.faa(extent * es, step)
        client.clock.advance(400 * (step % 5))
        if step % 11 == 4:
            for _ in range(3):
                client._tracer.emit(client, "timeout", **_payload("timeout", step, 1))
    return cluster, registry, tracer, monitor, listener


def _series_digest(registry):
    import hashlib

    seen = (
        [(s, n, x.total, x.windows()) for s, n, x in registry.counters()],
        [(s, n, x.value, x.ts_ns, x.windows()) for s, n, x in registry.gauges()],
        [
            (s, n, _hist(r.total), [(w, _hist(r.window_hist(w))) for w in r.windows()])
            for s, n, r in registry.histograms()
        ],
        registry.current_window,
        registry.last_ts_ns,
    )
    return hashlib.sha256(repr(seen).encode()).hexdigest()[:16]


def test_two_tracers_feed_one_registry_in_emission_order():
    cluster, registry, tracer, monitor, listener = _two_tracer_run()
    assert _series_digest(registry) == "0aa8c3b77a18f03a"
    assert {e: registry.extent_heat(e) for e in registry.extent_ids()} == dict.fromkeys(range(5), 8)
    assert listener.calls == [
        ("carried", 2500.0), ("own", 5400.0), ("carried", 6100.0), ("carried", 8900.0),
        ("own", 10000.0), ("carried", 12900.0), ("carried", 14100.0), ("carried", 16100.0),
        ("own", 18000.0), ("carried", 20500.0), ("carried", 23100.0), ("carried", 24100.0),
        ("carried", 26900.0), ("own", 28000.0), ("carried", 30900.0), ("carried", 32100.0),
        ("carried", 34100.0),
    ]  # fmt: skip
    # Each alert fired inside an advance, was emitted right after the event
    # that advanced the window, joined the next batch and was folded once.
    assert [(alert.client, alert.ts_ns) for alert in monitor.alerts] == [
        ("carried", 6100.0), ("carried", 16100.0), ("carried", 26900.0)
    ]
    positions = [i for i, e in enumerate(registry._carrier.events) if e.kind == "slo_alert"]
    assert positions == [6, 22, 35] and tracer.events_by_kind("slo_alert") == []
    assert registry.counter_total(("fleet",), "slo_alerts") == 3


def test_remove_sink_detaches_the_registry_from_both_tracers():
    cluster, registry, tracer, monitor, listener = _two_tracer_run()
    own, carried = cluster.clients
    before = _series_digest(registry)
    tracer.remove_sink(registry)
    registry._carrier.remove_sink(registry)
    for client in (own, carried):
        client.read(0, 8)
        client.clock.advance(10_000)
        client.read(8, 8)
    assert _series_digest(registry) == before
