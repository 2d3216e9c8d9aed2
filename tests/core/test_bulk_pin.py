"""Pins for the single-op and bulk paths of ``FarQueue``, ``HTTree``,
``FarKVStore`` and ``RefreshableVector``, recorded before each bulk path
(``enqueue_many``, ``dequeue_many``, ``multiget``, ``multistore``, ``multiput``,
``set_many``) reused its single-op steps.

Each scenario is run twice, untraced and with a ``Tracer`` attached, and every
measured step records the acting client's nonzero ``Metrics`` delta and clock
delta, what the step returned, the exception it raised (type and message), the
structure's stats afterwards, and — traced — a digest of the payloads of its
``window`` and ``far_access`` events. Both runs must agree (zero observer
effect) and match ``PINNED``: a change to a bulk or single-op path must leave
the table untouched, so window shapes, addresses and stats are checked, not
only far-access totals."""

import hashlib
from dataclasses import astuple, is_dataclass

import pytest

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.core.blob import pack_blob
from repro.core.ht_tree import HTTreeStats
from repro.core.queue import QueueStats
from repro.core.registry import name_hash
from repro.fabric.client import Client
from repro.obs import Tracer

NODE_SIZE = 8 << 20
KINDS = ("window", "far_access")


def _flat(value):
    """A payload value as text: ``window``'s ``ops`` entries become
    ``op,charge_ns,span_id``."""
    if isinstance(value, dict):
        return ",".join(str(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return " ".join(_flat(item) for item in value)
    return str(value)


def _plain(result):
    """A step's return value as comparable data."""
    if hasattr(result, "tolist"):
        return result.tolist()
    if is_dataclass(result):
        return astuple(result)
    return result


class _Probe:
    """One run of a scenario: makes its clients (traced or not) and records
    each measured step under a label."""

    def __init__(self, traced):
        self.tracer = Tracer() if traced else None
        self.steps = {}

    def client(self, cluster, name, **kwargs):
        client = cluster.client(name, **kwargs)
        if self.tracer is not None:
            self.tracer.attach(client)
        return client

    def act(self, label, client, fn, stats=None):
        before, start_ns = client.metrics.snapshot(), client.clock.now_ns
        first = len(self.tracer.events) if self.tracer is not None else 0
        result = raised = None
        try:
            result = _plain(fn())
        except Exception as err:
            raised = (type(err).__name__, str(err))
        delta = client.metrics.delta(before).as_dict()
        counters = " ".join(f"{key}={value}" for key, value in delta.items() if value)
        step = [
            counters,
            client.clock.now_ns - start_ns,
            result,
            raised,
            None if stats is None else astuple(stats),
        ]
        if self.tracer is not None:
            lines = [
                " ".join([event.kind, *(_flat(v) for v in event.data.values())])
                for event in self.tracer.events[first:]
                if event.client == client.name and event.kind in KINDS
            ]
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
            step.append((len(lines), digest))
        assert label not in self.steps
        self.steps[label] = tuple(step)


def _queue(use_fsaai):
    def scenario(probe):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        queue = cluster.far_queue(
            capacity=16, max_clients=3, clear_batch=3, use_fsaai=use_fsaai
        )
        a = probe.client(cluster, "a", qp_depth=1)
        b = probe.client(cluster, "b", qp_depth=2)
        c = probe.client(cluster, "c", qp_depth=4)

        def act(label, client, fn):
            probe.act(label, client, fn, queue.stats)

        act("a_enqueue", a, lambda: queue.enqueue(a, 1))
        act("b_enqueue_many", b, lambda: queue.enqueue_many(b, list(range(2, 7))))
        act("c_dequeue_many", c, lambda: queue.dequeue_many(c, 3))
        act("a_dequeue", a, lambda: queue.dequeue(a))
        act("b_try_dequeue", b, lambda: queue.try_dequeue(b))
        act("c_size_estimate", c, lambda: queue.size_estimate(c))
        act("c_enqueue_many_full", c, lambda: queue.enqueue_many(c, list(range(10, 22))))
        act("a_enqueue_stale_estimate", a, lambda: queue.enqueue(a, 99))
        act("c_enqueue_full", c, lambda: queue.enqueue(c, 98))
        # Drains the queue; the head lands in slack on an EMPTY slot: b's claim.
        act("b_dequeue_many_drain", b, lambda: queue.dequeue_many(b, 20))
        act("a_dequeue_empty", a, lambda: queue.dequeue(a))
        act("a_enqueue_many_wrap", a, lambda: queue.enqueue_many(a, list(range(30, 36))))
        act("c_dequeue_many_wrap", c, lambda: queue.dequeue_many(c, 12))
        act("b_dequeue_claimed", b, lambda: queue.dequeue(b))
        act("b_flush_clears", b, lambda: queue.flush_clears(b))
        act("c_size_estimate_2", c, lambda: queue.size_estimate(c))
        act("b_ten_pairs", b, lambda: [
            (queue.enqueue(b, 40 + i), queue.try_dequeue(b)) for i in range(10)
        ])
        # Empty, with the head at the slack boundary: a single-op claim.
        act("c_dequeue_claim", c, lambda: queue.dequeue(c))
        act("c_dequeue_many_unfilled", c, lambda: queue.dequeue_many(c, 3))
        act("a_dequeue_many_empty", a, lambda: queue.dequeue_many(a, 4))
        act("b_enqueue_many_fill", b, lambda: queue.enqueue_many(b, list(range(60, 64))))
        act("c_dequeue_many_consume", c, lambda: queue.dequeue_many(c, 2))
        act("a_dequeue_many_rest", a, lambda: queue.dequeue_many(a, 8))
        # Two more laps: slack landings that find an item, on every path.
        act("b_enqueue_many_lap", b, lambda: queue.enqueue_many(b, list(range(70, 78))))
        act("a_dequeue_many_lap", a, lambda: queue.dequeue_many(a, 8))
        act("b_enqueue_lap", b, lambda: [queue.enqueue(b, 80 + i) for i in range(5)])
        act("c_dequeue_many_slack_item", c, lambda: queue.dequeue_many(c, 5))
        act("a_enqueue_many_lap_2", a, lambda: queue.enqueue_many(a, list(range(90, 98))))
        act("c_dequeue_many_lap_2", c, lambda: queue.dequeue_many(c, 8))
        act("a_enqueue_many_lap_3", a, lambda: queue.enqueue_many(a, list(range(100, 108))))
        act("b_dequeue_lap", b, lambda: [queue.dequeue(b) for _ in range(8)])
        act("a_flush_clears", a, lambda: queue.flush_clears(a))
        act("b_size_estimate", b, lambda: queue.size_estimate(b))

    return scenario


def httree(probe):
    cluster = Cluster(node_count=2, node_size=NODE_SIZE)
    tree = cluster.ht_tree(bucket_count=8, max_chain=2)
    a = probe.client(cluster, "a", qp_depth=4)
    b = probe.client(cluster, "b", qp_depth=3)

    def act(label, client, fn):
        probe.act(label, client, fn, tree.stats)

    act("b_get_cold", b, lambda: tree.get(b, 5))
    act("a_multistore", a, lambda: tree.multistore(a, [(k, k * 10) for k in range(6)]))
    act("a_multistore_contended", a, lambda: tree.multistore(
        a, [(k, k + 1) for k in (8, 16, 24, 32, 3, 40)]
    ))
    act("b_multiget_stale", b, lambda: tree.multiget(b, [0, 3, 8, 16, 24, 99, 40, 5]))
    act("b_put_update", b, lambda: tree.put(b, 3, 333))
    act("b_put_insert", b, lambda: tree.put(b, 1000, 1))
    act("a_get_stale", a, lambda: tree.get(a, 1000))
    act("a_multistore_updates", a, lambda: tree.multistore(
        a, [(k, k * 7) for k in (0, 1000, 16, 77, 78, 79, 80)]
    ))
    act("b_multistore_stale", b, lambda: tree.multistore(
        b, [(k, k) for k in (81, 82, 83, 3, 84, 85)]
    ))
    act("a_multiget_stale", a, lambda: tree.multiget(a, list(range(0, 90, 3))))
    act("a_get_chain", a, lambda: tree.get(a, 85))
    act("b_get_miss", b, lambda: tree.get(b, 12345))
    act("b_multiget_empty", b, lambda: tree.multiget(b, []))
    act("a_multistore_bad_key", a, lambda: tree.multistore(a, [(1, 1), (-1, 2)]))
    act("b_multiget_all", b, lambda: tree.multiget(b, [0, 1000, 3, 16, 24, 40, 79, 85, 7]))


def kvstore(probe):
    cluster = Cluster(node_count=2, node_size=NODE_SIZE)
    owner = probe.client(cluster, "owner", qp_depth=4)
    store = FarKVStore.create(cluster, cluster.registry(), owner, "kv", bucket_count=8)
    other = probe.client(cluster, "other", qp_depth=2)

    def act(label, client, fn):
        probe.act(label, client, fn, store.index.stats)

    act("put", owner, lambda: store.put(owner, "alpha", b"one"))
    act("put_again", owner, lambda: store.put(owner, "alpha", b"uno"))
    act("get", other, lambda: store.get(other, "alpha"))
    act("get_missing", other, lambda: store.get(other, "beta"))
    act("multiput", owner, lambda: store.multiput(
        owner, {"beta": b"two", "gamma": b"three" * 9, "alpha": b"1"}
    ))
    act("multiput_empty", owner, lambda: store.multiput(owner, {}))
    act("multiget", other, lambda: store.multiget(other, ["gamma", "zeta", "alpha", "beta"]))
    act("delete", owner, lambda: store.delete(owner, "beta"))
    act("delete_missing", owner, lambda: store.delete(owner, "beta"))
    # Force a collision: "clash" hashes to a blob whose stored key is "alpha".
    store.blobs.put(owner, name_hash("clash"), pack_blob(b"alpha") + b"x")
    act("get_collision", other, lambda: store.get(other, "clash"))
    act("put_collision", owner, lambda: store.put(owner, "clash", b"v"))
    act("delete_collision", owner, lambda: store.delete(owner, "clash"))
    act("multiget_collision", other, lambda: store.multiget(other, ["alpha", "clash"]))
    act("multiput_collision", owner, lambda: store.multiput(
        owner, {"delta": b"4", "clash": b"5"}
    ))
    act("contains", other, lambda: store.contains(other, "gamma"))
    act("total_operations", other, lambda: store.total_operations(other))


def _rvec(element_versions):
    def scenario(probe):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        vector = cluster.refreshable_vector(
            20, group_size=4, element_versions=element_versions
        )
        writer = probe.client(cluster, "writer")
        reader = probe.client(cluster, "reader")
        probe.act("reader_seed", reader, lambda: vector.snapshot(reader))
        probe.act("set_0", writer, lambda: vector.set(writer, 0, 5))
        probe.act("set_7", writer, lambda: vector.set(writer, 7, 9))
        probe.act("set_7_again", writer, lambda: vector.set(writer, 7, 10))
        probe.act("set_19", writer, lambda: vector.set(writer, 19, 2**64 - 1))
        probe.act("set_out_of_range", writer, lambda: vector.set(writer, 20, 1))
        probe.act("set_many", writer, lambda: vector.set_many(writer, {6: 1, 1: 2, 13: 3}))
        probe.act("refresh", reader, lambda: vector.refresh(reader))
        probe.act("snapshot", reader, lambda: vector.snapshot(reader))

    return scenario


SCENARIOS = {
    "queue_fsaai": _queue(True),
    "queue_fig1": _queue(False),
    "httree": httree,
    "kvstore": kvstore,
    "rvec_groups": _rvec(False),
    "rvec_elements": _rvec(True),
}


def _observe(scenario, traced):
    Client.reset_ids()
    probe = _Probe(traced)
    scenario(probe)
    return probe.steps


def observed(name):
    """Every step of scenario ``name``: the untraced run's observations with
    the traced run's event digest appended (the two runs must agree)."""
    bare = _observe(SCENARIOS[name], traced=False)
    traced = _observe(SCENARIOS[name], traced=True)
    assert {label: step[:5] for label, step in traced.items()} == bare
    return traced


#: Recorded before the bulk paths reused their single-op steps: scenario ->
#: step -> (nonzero Metrics delta, clock delta, result, (exception type,
#: message) or None, structure stats or None, (window + far_access event
#: count, sha256 prefix of their payloads)).
PINNED = {
    "queue_fsaai": {
        "a_enqueue": (
            "far_accesses=2 round_trips=2 network_traversals=6 bytes_read=16 bytes_written=16 "
            "atomic_ops=1 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=2 "
            "pipeline_charged_ns=2000",
            2000.0,
            None,
            None,
            (1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (4, "e1a1791584324d95"),
        ),
        "b_enqueue_many": (
            "far_accesses=6 round_trips=6 network_traversals=14 bytes_read=16 bytes_written=80 "
            "atomic_ops=5 pipeline_ops=6 pipeline_flushes=4 pipeline_charged_ns=4100 "
            "overlap_saved_ns=1900",
            4100.0,
            None,
            None,
            (6, 0, 6, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (10, "2902a3e633936dae"),
        ),
        "c_dequeue_many": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=24 bytes_written=48 "
            "atomic_ops=3 pipeline_ops=3 pipeline_flushes=1 pipeline_charged_ns=1100 "
            "overlap_saved_ns=1900",
            1100.0,
            [1, 2, 3],
            None,
            (6, 3, 6, 3, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (4, "1d8fd246e6d2b951"),
        ),
        "a_dequeue": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 bytes_written=16 "
            "atomic_ops=1 pipeline_ops=1 pipeline_flushes=1 pipeline_stalls=1 "
            "pipeline_charged_ns=1000",
            1000.0,
            4,
            None,
            (6, 4, 6, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (2, "d2d546631f50c375"),
        ),
        "b_try_dequeue": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 bytes_written=16 "
            "atomic_ops=1 pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            5,
            None,
            (6, 5, 6, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (2, "4358e556bb0a166c"),
        ),
        "c_size_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            1,
            None,
            (6, 5, 6, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (2, "2d1a291e8f63a440"),
        ),
        "c_enqueue_many_full": (
            "far_accesses=14 round_trips=14 network_traversals=38 bytes_read=80 bytes_written=144 "
            "atomic_ops=9 pipeline_ops=14 pipeline_flushes=11 pipeline_charged_ns=11150 "
            "overlap_saved_ns=2850",
            11150.0,
            None,
            ("QueueFull", "queue at usable capacity 10"),
            (15, 5, 15, 5, 0, 0, 0, 0, 0, 7, 0, 1, 0),
            (25, "5e0ece4c8edf8b95"),
        ),
        "a_enqueue_stale_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_written=16 atomic_ops=1 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_stalls=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            (16, 5, 16, 5, 0, 0, 0, 0, 0, 7, 0, 1, 0),
            (2, "7fce088d67940d95"),
        ),
        "c_enqueue_full": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            ("QueueFull", "queue at usable capacity 10"),
            (16, 5, 16, 5, 0, 0, 0, 0, 0, 8, 0, 2, 0),
            (2, "92bebb14412dfed0"),
        ),
        "b_dequeue_many_drain": (
            "far_accesses=15 round_trips=15 network_traversals=30 bytes_read=120 "
            "bytes_written=208 atomic_ops=14 pipeline_ops=15 pipeline_flushes=9 "
            "pipeline_charged_ns=9300 overlap_saved_ns=5700",
            9300.0,
            [6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 99],
            None,
            (16, 16, 16, 16, 0, 1, 0, 1, 0, 8, 0, 2, 1),
            (24, "35f7866d1a91ac60"),
        ),
        "a_dequeue_empty": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=16 bytes_written=24 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=2 "
            "pipeline_charged_ns=2000",
            2000.0,
            None,
            ("QueueEmpty", "queue empty (head bump undone)"),
            (16, 16, 16, 16, 0, 1, 1, 1, 0, 8, 0, 2, 2),
            (4, "b19a64a9ea72de36"),
        ),
        "a_enqueue_many_wrap": (
            "far_accesses=9 round_trips=9 network_traversals=20 bytes_read=16 bytes_written=120 "
            "atomic_ops=7 pipeline_ops=9 pipeline_flushes=9 pipeline_stalls=3 "
            "pipeline_charged_ns=9000",
            9000.0,
            None,
            None,
            (22, 16, 21, 16, 1, 1, 1, 1, 0, 8, 0, 2, 2),
            (18, "a5a4b6f2a715b64c"),
        ),
        "c_dequeue_many_wrap": (
            "far_accesses=7 round_trips=7 network_traversals=14 bytes_read=56 bytes_written=104 "
            "atomic_ops=7 pipeline_ops=7 pipeline_flushes=3 pipeline_charged_ns=3200 "
            "overlap_saved_ns=3800",
            3200.0,
            [31, 32, 33, 34, 35],
            None,
            (22, 21, 21, 21, 1, 1, 2, 1, 0, 8, 0, 2, 3),
            (10, "ff2ad9e8aa3204a6"),
        ),
        "b_dequeue_claimed": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 bytes_written=8 "
            "atomic_ops=1 pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            30,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 0, 2, 3),
            (2, "6506de8913c4d4a9"),
        ),
        "b_flush_clears": (
            "",
            0.0,
            0,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 0, 2, 3),
            (0, "e3b0c44298fc1c14"),
        ),
        "c_size_estimate_2": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            0,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 0, 2, 3),
            (2, "b710d0ffbd3ba9b6"),
        ),
        "b_ten_pairs": (
            "far_accesses=22 round_trips=22 network_traversals=48 bytes_read=112 "
            "bytes_written=320 atomic_ops=20 pipeline_ops=22 pipeline_flushes=22 "
            "pipeline_charged_ns=22000",
            22000.0,
            [(None, 40),
             (None, 41),
             (None, 42),
             (None, 43),
             (None, 44),
             (None, 45),
             (None, 46),
             (None, 47),
             (None, 48),
             (None, 49)],
            None,
            (32, 32, 31, 31, 1, 1, 2, 1, 1, 10, 0, 2, 3),
            (44, "5e91798bc470023e"),
        ),
        "c_dequeue_claim": (
            "far_accesses=4 round_trips=4 network_traversals=8 bytes_read=32 bytes_written=32 "
            "atomic_ops=3 pipeline_ops=4 pipeline_flushes=4 pipeline_charged_ns=4000",
            4000.0,
            None,
            ("QueueEmpty", "queue empty (claim armed on overshoot slot)"),
            (32, 32, 31, 31, 1, 2, 2, 2, 1, 10, 0, 2, 4),
            (8, "efa6f3341f76cbe1"),
        ),
        "c_dequeue_many_unfilled": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 bytes_written=8 "
            "atomic_ops=1 pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            [],
            None,
            (32, 32, 31, 31, 1, 2, 2, 2, 1, 10, 0, 2, 5),
            (2, "0eefd970fcd1c998"),
        ),
        "a_dequeue_many_empty": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=16 bytes_written=24 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=1 "
            "pipeline_charged_ns=2000",
            2000.0,
            [],
            None,
            (32, 32, 31, 31, 1, 2, 3, 2, 1, 10, 0, 2, 6),
            (4, "69cb9f8e656e2f9e"),
        ),
        "b_enqueue_many_fill": (
            "far_accesses=7 round_trips=7 network_traversals=16 bytes_read=16 bytes_written=88 "
            "atomic_ops=5 pipeline_ops=7 pipeline_flushes=6 pipeline_charged_ns=6050 "
            "overlap_saved_ns=950",
            6050.0,
            None,
            None,
            (36, 32, 34, 31, 2, 2, 3, 2, 1, 10, 0, 2, 6),
            (13, "ba0aa2c3efa28831"),
        ),
        "c_dequeue_many_consume": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=16 bytes_written=24 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2000.0,
            [60, 61],
            None,
            (36, 34, 34, 32, 2, 2, 3, 2, 2, 10, 0, 2, 6),
            (4, "a62cae73f00f08f9"),
        ),
        "a_dequeue_many_rest": (
            "far_accesses=4 round_trips=4 network_traversals=8 bytes_read=32 bytes_written=56 "
            "atomic_ops=4 pipeline_ops=4 pipeline_flushes=4 pipeline_stalls=1 "
            "pipeline_charged_ns=4000",
            4000.0,
            [62, 63],
            None,
            (36, 36, 34, 34, 2, 2, 4, 2, 2, 10, 0, 2, 7),
            (8, "0773b20a92c0c93f"),
        ),
        "b_enqueue_many_lap": (
            "far_accesses=10 round_trips=10 network_traversals=24 bytes_read=32 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=8 pipeline_charged_ns=8100 "
            "overlap_saved_ns=1900",
            8100.0,
            None,
            None,
            (44, 36, 42, 34, 2, 2, 4, 2, 2, 12, 0, 2, 7),
            (18, "d609f41abb3c2ae7"),
        ),
        "a_dequeue_many_lap": (
            "far_accesses=8 round_trips=8 network_traversals=16 bytes_read=64 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=8 pipeline_flushes=8 pipeline_charged_ns=8000",
            8000.0,
            [70, 71, 72, 73, 74, 75, 76, 77],
            None,
            (44, 44, 42, 42, 2, 2, 4, 2, 2, 12, 0, 2, 7),
            (16, "16cbe5df82e2a290"),
        ),
        "b_enqueue_lap": (
            "far_accesses=9 round_trips=9 network_traversals=22 bytes_read=32 bytes_written=104 "
            "atomic_ops=6 pipeline_ops=9 pipeline_flushes=9 pipeline_charged_ns=9000",
            9000.0,
            [None, None, None, None, None],
            None,
            (49, 44, 46, 42, 3, 2, 4, 2, 2, 13, 0, 2, 7),
            (18, "9d4a822ae8e7ffc0"),
        ),
        "c_dequeue_many_slack_item": (
            "far_accesses=8 round_trips=8 network_traversals=16 bytes_read=64 bytes_written=96 "
            "atomic_ops=7 pipeline_ops=8 pipeline_flushes=5 pipeline_charged_ns=5150 "
            "overlap_saved_ns=2850",
            5150.0,
            [80, 81, 82, 83, 84],
            None,
            (49, 49, 46, 46, 3, 3, 4, 2, 2, 13, 0, 2, 7),
            (13, "47ab2805deaa6867"),
        ),
        "a_enqueue_many_lap_2": (
            "far_accesses=10 round_trips=10 network_traversals=24 bytes_read=32 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=10 pipeline_stalls=4 "
            "pipeline_charged_ns=10000",
            10000.0,
            None,
            None,
            (57, 49, 54, 46, 3, 3, 4, 2, 2, 15, 0, 2, 7),
            (20, "409122a520dd07be"),
        ),
        "c_dequeue_many_lap_2": (
            "far_accesses=8 round_trips=8 network_traversals=16 bytes_read=64 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=8 pipeline_flushes=2 pipeline_charged_ns=2300 "
            "overlap_saved_ns=5700",
            2300.0,
            [90, 91, 92, 93, 94, 95, 96, 97],
            None,
            (57, 57, 54, 54, 3, 3, 4, 2, 2, 15, 0, 2, 7),
            (10, "fe68c75bcfc2d232"),
        ),
        "a_enqueue_many_lap_3": (
            "far_accesses=13 round_trips=13 network_traversals=32 bytes_read=48 bytes_written=152 "
            "atomic_ops=9 pipeline_ops=13 pipeline_flushes=13 pipeline_stalls=7 "
            "pipeline_charged_ns=13000",
            13000.0,
            None,
            None,
            (65, 57, 61, 54, 4, 3, 4, 2, 2, 17, 0, 2, 7),
            (26, "c9dd7ba0626c2c60"),
        ),
        "b_dequeue_lap": (
            "far_accesses=11 round_trips=11 network_traversals=22 bytes_read=88 bytes_written=144 "
            "atomic_ops=10 pipeline_ops=11 pipeline_flushes=11 pipeline_charged_ns=11000",
            11000.0,
            [100, 101, 102, 103, 104, 105, 106, 107],
            None,
            (65, 65, 61, 61, 4, 4, 4, 2, 2, 17, 0, 2, 7),
            (22, "e362699d57db434f"),
        ),
        "a_flush_clears": (
            "",
            0.0,
            0,
            None,
            (65, 65, 61, 61, 4, 4, 4, 2, 2, 17, 0, 2, 7),
            (0, "e3b0c44298fc1c14"),
        ),
        "b_size_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            0,
            None,
            (65, 65, 61, 61, 4, 4, 4, 2, 2, 17, 0, 2, 7),
            (2, "cf5aa48d361cf9c5"),
        ),
    },
    "queue_fig1": {
        "a_enqueue": (
            "far_accesses=2 round_trips=2 network_traversals=6 bytes_read=16 bytes_written=16 "
            "atomic_ops=1 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=2 "
            "pipeline_charged_ns=2000",
            2000.0,
            None,
            None,
            (1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (4, "e1a1791584324d95"),
        ),
        "b_enqueue_many": (
            "far_accesses=6 round_trips=6 network_traversals=14 bytes_read=16 bytes_written=80 "
            "atomic_ops=5 pipeline_ops=6 pipeline_flushes=4 pipeline_charged_ns=4100 "
            "overlap_saved_ns=1900",
            4100.0,
            None,
            None,
            (6, 0, 6, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
            (10, "2902a3e633936dae"),
        ),
        "c_dequeue_many": (
            "far_accesses=4 round_trips=4 network_traversals=12 bytes_read=48 bytes_written=24 "
            "atomic_ops=3 pipeline_ops=4 pipeline_flushes=1 pipeline_charged_ns=1150 "
            "overlap_saved_ns=2850",
            1150.0,
            [1, 2, 3],
            None,
            (6, 3, 6, 3, 0, 0, 0, 0, 0, 2, 1, 0, 0),
            (5, "8e0362070825e0e4"),
        ),
        "a_dequeue": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=16 atomic_ops=1 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_stalls=1 pipeline_charged_ns=1000",
            1000.0,
            4,
            None,
            (6, 4, 6, 4, 0, 0, 0, 0, 0, 2, 1, 0, 0),
            (2, "e6689d3b68dad861"),
        ),
        "b_try_dequeue": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=16 atomic_ops=1 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            5,
            None,
            (6, 5, 6, 5, 0, 0, 0, 0, 0, 2, 1, 0, 0),
            (2, "98a0f6d421ce3d61"),
        ),
        "c_size_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            1,
            None,
            (6, 5, 6, 5, 0, 0, 0, 0, 0, 2, 1, 0, 0),
            (2, "00333f68fdb10fa3"),
        ),
        "c_enqueue_many_full": (
            "far_accesses=14 round_trips=14 network_traversals=38 bytes_read=80 bytes_written=144 "
            "atomic_ops=9 pipeline_ops=14 pipeline_flushes=11 pipeline_charged_ns=11150 "
            "overlap_saved_ns=2850",
            11150.0,
            None,
            ("QueueFull", "queue at usable capacity 10"),
            (15, 5, 15, 5, 0, 0, 0, 0, 0, 7, 1, 1, 0),
            (25, "6e77def44e34e120"),
        ),
        "a_enqueue_stale_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_written=16 atomic_ops=1 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_stalls=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            (16, 5, 16, 5, 0, 0, 0, 0, 0, 7, 1, 1, 0),
            (2, "7fce088d67940d95"),
        ),
        "c_enqueue_full": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            ("QueueFull", "queue at usable capacity 10"),
            (16, 5, 16, 5, 0, 0, 0, 0, 0, 8, 1, 2, 0),
            (2, "b9708c643460ff99"),
        ),
        "b_dequeue_many_drain": (
            "far_accesses=19 round_trips=19 network_traversals=54 bytes_read=216 "
            "bytes_written=104 atomic_ops=13 pipeline_ops=19 pipeline_flushes=9 "
            "pipeline_charged_ns=9500 overlap_saved_ns=9500",
            9500.0,
            [6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 99],
            None,
            (16, 16, 16, 16, 0, 1, 0, 1, 0, 8, 5, 2, 1),
            (28, "dc7e2abe5717dc7d"),
        ),
        "a_dequeue_empty": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=24 bytes_written=8 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=2 "
            "pipeline_charged_ns=2000",
            2000.0,
            None,
            ("QueueEmpty", "queue empty (head bump undone)"),
            (16, 16, 16, 16, 0, 1, 1, 1, 0, 8, 5, 2, 2),
            (4, "75b55eec68373a7c"),
        ),
        "a_enqueue_many_wrap": (
            "far_accesses=9 round_trips=9 network_traversals=20 bytes_read=16 bytes_written=120 "
            "atomic_ops=7 pipeline_ops=9 pipeline_flushes=9 pipeline_stalls=3 "
            "pipeline_charged_ns=9000",
            9000.0,
            None,
            None,
            (22, 16, 21, 16, 1, 1, 1, 1, 0, 8, 5, 2, 2),
            (18, "a5a4b6f2a715b64c"),
        ),
        "c_dequeue_many_wrap": (
            "far_accesses=8 round_trips=8 network_traversals=20 bytes_read=104 bytes_written=32 "
            "atomic_ops=7 pipeline_ops=8 pipeline_flushes=3 pipeline_charged_ns=3250 "
            "overlap_saved_ns=4750",
            3250.0,
            [31, 32, 33, 34, 35],
            None,
            (22, 21, 21, 21, 1, 1, 2, 1, 0, 8, 6, 2, 3),
            (11, "f12744dbd9ae6d16"),
        ),
        "b_dequeue_claimed": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            30,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 6, 2, 3),
            (2, "b01b18e82f652fca"),
        ),
        "b_flush_clears": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_written=8 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            1,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 7, 2, 3),
            (2, "7aea983b7d187682"),
        ),
        "c_size_estimate_2": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            0,
            None,
            (22, 22, 21, 21, 1, 1, 2, 1, 1, 8, 7, 2, 3),
            (2, "160139c179a8b625"),
        ),
        "b_ten_pairs": (
            "far_accesses=25 round_trips=25 network_traversals=66 bytes_read=192 "
            "bytes_written=232 atomic_ops=20 pipeline_ops=25 pipeline_flushes=25 "
            "pipeline_charged_ns=25000",
            25000.0,
            [(None, 40),
             (None, 41),
             (None, 42),
             (None, 43),
             (None, 44),
             (None, 45),
             (None, 46),
             (None, 47),
             (None, 48),
             (None, 49)],
            None,
            (32, 32, 31, 31, 1, 1, 2, 1, 1, 10, 10, 2, 3),
            (50, "438648cb62abdd45"),
        ),
        "c_dequeue_claim": (
            "far_accesses=4 round_trips=4 network_traversals=8 bytes_read=40 bytes_written=8 "
            "atomic_ops=2 pipeline_ops=4 pipeline_flushes=4 pipeline_charged_ns=4000",
            4000.0,
            None,
            ("QueueEmpty", "queue empty (claim armed on overshoot slot)"),
            (32, 32, 31, 31, 1, 2, 2, 2, 1, 10, 10, 2, 4),
            (8, "0604b4af77e95681"),
        ),
        "c_dequeue_many_unfilled": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            [],
            None,
            (32, 32, 31, 31, 1, 2, 2, 2, 1, 10, 10, 2, 5),
            (2, "cdc9bdfe7b454d80"),
        ),
        "a_dequeue_many_empty": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=24 bytes_written=8 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=2 pipeline_stalls=1 "
            "pipeline_charged_ns=2000",
            2000.0,
            [],
            None,
            (32, 32, 31, 31, 1, 2, 3, 2, 1, 10, 10, 2, 6),
            (4, "2a86bb747e9c4a4d"),
        ),
        "b_enqueue_many_fill": (
            "far_accesses=7 round_trips=7 network_traversals=16 bytes_read=16 bytes_written=88 "
            "atomic_ops=5 pipeline_ops=7 pipeline_flushes=6 pipeline_charged_ns=6050 "
            "overlap_saved_ns=950",
            6050.0,
            None,
            None,
            (36, 32, 34, 31, 2, 2, 3, 2, 1, 10, 10, 2, 6),
            (13, "e0eef15ca1f64b6d"),
        ),
        "c_dequeue_many_consume": (
            "far_accesses=3 round_trips=3 network_traversals=10 bytes_read=24 bytes_written=24 "
            "atomic_ops=1 pipeline_ops=3 pipeline_flushes=3 pipeline_charged_ns=3000",
            3000.0,
            [60, 61],
            None,
            (36, 34, 34, 32, 2, 2, 3, 2, 2, 10, 11, 2, 6),
            (6, "6ef77219b39dd5b3"),
        ),
        "a_dequeue_many_rest": (
            "far_accesses=5 round_trips=5 network_traversals=14 bytes_read=56 bytes_written=32 "
            "atomic_ops=4 pipeline_ops=5 pipeline_flushes=4 pipeline_stalls=1 "
            "pipeline_charged_ns=4050 overlap_saved_ns=950",
            4050.0,
            [62, 63],
            None,
            (36, 36, 34, 34, 2, 2, 4, 2, 2, 10, 12, 2, 7),
            (9, "928af6a62ef3c961"),
        ),
        "b_enqueue_many_lap": (
            "far_accesses=10 round_trips=10 network_traversals=24 bytes_read=32 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=8 pipeline_charged_ns=8100 "
            "overlap_saved_ns=1900",
            8100.0,
            None,
            None,
            (44, 36, 42, 34, 2, 2, 4, 2, 2, 12, 12, 2, 7),
            (18, "fa6a28a81f76fee3"),
        ),
        "a_dequeue_many_lap": (
            "far_accesses=10 round_trips=10 network_traversals=28 bytes_read=128 bytes_written=48 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=8 pipeline_charged_ns=8100 "
            "overlap_saved_ns=1900",
            8100.0,
            [70, 71, 72, 73, 74, 75, 76, 77],
            None,
            (44, 44, 42, 42, 2, 2, 4, 2, 2, 12, 14, 2, 7),
            (18, "d8a0a3e93bae3f29"),
        ),
        "b_enqueue_lap": (
            "far_accesses=9 round_trips=9 network_traversals=22 bytes_read=32 bytes_written=104 "
            "atomic_ops=6 pipeline_ops=9 pipeline_flushes=9 pipeline_charged_ns=9000",
            9000.0,
            [None, None, None, None, None],
            None,
            (49, 44, 46, 42, 3, 2, 4, 2, 2, 13, 14, 2, 7),
            (18, "4bc92d93fe4b95be"),
        ),
        "c_dequeue_many_slack_item": (
            "far_accesses=10 round_trips=10 network_traversals=28 bytes_read=104 bytes_written=56 "
            "atomic_ops=6 pipeline_ops=10 pipeline_flushes=6 pipeline_charged_ns=6200 "
            "overlap_saved_ns=3800",
            6200.0,
            [80, 81, 82, 83, 84],
            None,
            (49, 49, 46, 46, 3, 3, 4, 2, 2, 13, 16, 2, 7),
            (16, "1cdad11d3c8a2ef8"),
        ),
        "a_enqueue_many_lap_2": (
            "far_accesses=10 round_trips=10 network_traversals=24 bytes_read=32 bytes_written=128 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=10 pipeline_stalls=4 "
            "pipeline_charged_ns=10000",
            10000.0,
            None,
            None,
            (57, 49, 54, 46, 3, 3, 4, 2, 2, 15, 16, 2, 7),
            (20, "ec68370d1f7a0083"),
        ),
        "c_dequeue_many_lap_2": (
            "far_accesses=10 round_trips=10 network_traversals=28 bytes_read=128 bytes_written=48 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=2 pipeline_charged_ns=2400 "
            "overlap_saved_ns=7600",
            2400.0,
            [90, 91, 92, 93, 94, 95, 96, 97],
            None,
            (57, 57, 54, 54, 3, 3, 4, 2, 2, 15, 18, 2, 7),
            (12, "f8f21945e70e42a4"),
        ),
        "a_enqueue_many_lap_3": (
            "far_accesses=13 round_trips=13 network_traversals=32 bytes_read=48 bytes_written=152 "
            "atomic_ops=9 pipeline_ops=13 pipeline_flushes=13 pipeline_stalls=7 "
            "pipeline_charged_ns=13000",
            13000.0,
            None,
            None,
            (65, 57, 61, 54, 4, 3, 4, 2, 2, 17, 18, 2, 7),
            (26, "0cbf7d0fd105add3"),
        ),
        "b_dequeue_lap": (
            "far_accesses=10 round_trips=10 network_traversals=28 bytes_read=120 bytes_written=56 "
            "atomic_ops=8 pipeline_ops=10 pipeline_flushes=10 pipeline_charged_ns=10000",
            10000.0,
            None,
            ("QueueEmpty", "queue empty (head bump undone)"),
            (65, 63, 61, 60, 4, 3, 5, 2, 2, 17, 20, 2, 8),
            (20, "c6b2959efbea9b2c"),
        ),
        "a_flush_clears": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_stalls=1 pipeline_charged_ns=1000",
            1000.0,
            2,
            None,
            (65, 63, 61, 60, 4, 3, 5, 2, 2, 17, 21, 2, 8),
            (2, "b1838e336167b403"),
        ),
        "b_size_estimate": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_read=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            2,
            None,
            (65, 63, 61, 60, 4, 3, 5, 2, 2, 17, 21, 2, 8),
            (2, "b0d5c812af5c795b"),
        ),
    },
    "httree": {
        "b_get_cold": (
            "far_accesses=3 round_trips=3 network_traversals=6 near_accesses=1 bytes_read=88 "
            "pipeline_ops=3 pipeline_flushes=3 pipeline_charged_ns=3000",
            3100.0,
            None,
            None,
            (1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (6, "3a45d92deb01006c"),
        ),
        "a_multistore": (
            "far_accesses=22 round_trips=22 network_traversals=44 near_accesses=6 bytes_read=304 "
            "bytes_written=256 atomic_ops=7 pipeline_ops=22 pipeline_flushes=10 pipeline_stalls=3 "
            "pipeline_charged_ns=10600 overlap_saved_ns=11400 custom.fences=1",
            11200.0,
            None,
            None,
            (1, 0, 1, 6, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0),
            (32, "8179c7afb1b1b94c"),
        ),
        "a_multistore_contended": (
            "far_accesses=37 round_trips=37 network_traversals=108 near_accesses=6 bytes_read=832 "
            "bytes_written=896 atomic_ops=6 pipeline_ops=37 pipeline_flushes=27 pipeline_stalls=3 "
            "pipeline_charged_ns=27500 overlap_saved_ns=9500 custom.fences=2",
            28100.0,
            None,
            None,
            (1, 0, 1, 11, 1, 0, 1, 2, 4, 1, 1, 11, 0, 0),
            (64, "6f195ceca0c32483"),
        ),
        "b_multiget_stale": (
            "far_accesses=19 round_trips=19 network_traversals=38 near_accesses=24 bytes_read=632 "
            "pipeline_ops=19 pipeline_flushes=9 pipeline_stalls=4 pipeline_charged_ns=9500 "
            "overlap_saved_ns=9500",
            11900.0,
            [0, 4, 9, 17, 25, None, 41, 50],
            None,
            (9, 7, 2, 11, 1, 0, 2, 3, 5, 1, 1, 11, 0, 0),
            (28, "6822bbbf050e0c52"),
        ),
        "b_put_update": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=2 bytes_read=32 "
            "bytes_written=8 pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2200.0,
            None,
            None,
            (9, 7, 2, 11, 2, 0, 2, 3, 5, 1, 1, 11, 0, 0),
            (4, "15e1d9f537181356"),
        ),
        "b_put_insert": (
            "far_accesses=3 round_trips=3 network_traversals=6 near_accesses=2 bytes_read=40 "
            "bytes_written=40 atomic_ops=1 pipeline_ops=3 pipeline_flushes=3 "
            "pipeline_charged_ns=3000 custom.fences=1",
            3200.0,
            None,
            None,
            (9, 7, 2, 12, 2, 0, 2, 3, 5, 1, 1, 11, 0, 0),
            (6, "bb3a2ef5c4a32c43"),
        ),
        "a_get_stale": (
            "far_accesses=1 round_trips=1 network_traversals=2 near_accesses=2 bytes_read=32 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1200.0,
            1,
            None,
            (10, 8, 2, 12, 2, 0, 2, 3, 5, 1, 1, 11, 0, 0),
            (2, "4daef003283217b9"),
        ),
        "a_multistore_updates": (
            "far_accesses=20 round_trips=20 network_traversals=40 near_accesses=14 bytes_read=264 "
            "bytes_written=200 atomic_ops=5 pipeline_ops=20 pipeline_flushes=7 pipeline_stalls=3 "
            "pipeline_charged_ns=7650 overlap_saved_ns=12350 custom.fences=1",
            9050.0,
            None,
            None,
            (10, 8, 2, 16, 5, 0, 2, 3, 5, 2, 1, 11, 0, 0),
            (27, "2c165618199ccf81"),
        ),
        "b_multistore_stale": (
            "far_accesses=40 round_trips=40 network_traversals=134 near_accesses=12 "
            "bytes_read=1096 bytes_written=1104 atomic_ops=7 pipeline_ops=40 pipeline_flushes=28 "
            "pipeline_stalls=5 pipeline_charged_ns=28600 overlap_saved_ns=11400 custom.fences=2",
            29800.0,
            None,
            None,
            (10, 8, 2, 21, 6, 0, 4, 5, 7, 3, 2, 27, 0, 0),
            (68, "d5b709dbb668f6c6"),
        ),
        "a_multiget_stale": (
            "far_accesses=69 round_trips=69 network_traversals=148 near_accesses=116 "
            "bytes_read=2264 indirection_forwards=10 pipeline_ops=69 pipeline_flushes=20 "
            "pipeline_stalls=16 pipeline_charged_ns=23650 overlap_saved_ns=48350",
            35250.0,
            [0,
             3,
             None,
             None,
             None,
             None,
             None,
             None,
             25,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             None,
             546,
             81,
             84,
             None],
            None,
            (40, 14, 26, 21, 6, 0, 13, 6, 8, 3, 2, 27, 0, 0),
            (89, "53461a1d392494fb"),
        ),
        "a_get_chain": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=2 bytes_read=64 "
            "pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2200.0,
            85,
            None,
            (41, 15, 26, 21, 6, 0, 14, 6, 8, 3, 2, 27, 0, 0),
            (4, "77edea42fb01223a"),
        ),
        "b_get_miss": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=2 bytes_read=64 "
            "pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2200.0,
            None,
            None,
            (42, 15, 27, 21, 6, 0, 15, 6, 8, 3, 2, 27, 0, 0),
            (4, "faac9244508f8a95"),
        ),
        "b_multiget_empty": (
            "",
            0.0,
            [],
            None,
            (42, 15, 27, 21, 6, 0, 15, 6, 8, 3, 2, 27, 0, 0),
            (0, "e3b0c44298fc1c14"),
        ),
        "a_multistore_bad_key": (
            "",
            0.0,
            None,
            ("ValueError", "keys must be unsigned 64-bit integers"),
            (42, 15, 27, 21, 6, 0, 15, 6, 8, 3, 2, 27, 0, 0),
            (0, "e3b0c44298fc1c14"),
        ),
        "b_multiget_all": (
            "far_accesses=10 round_trips=10 network_traversals=20 near_accesses=18 bytes_read=320 "
            "pipeline_ops=10 pipeline_flushes=4 pipeline_stalls=3 pipeline_charged_ns=4300 "
            "overlap_saved_ns=5700",
            6100.0,
            [0, 7000, 3, 112, 25, 41, 553, 85, None],
            None,
            (51, 23, 28, 21, 6, 0, 16, 6, 8, 3, 2, 27, 0, 0),
            (14, "5f2c2daca632387e"),
        ),
    },
    "kvstore": {
        "put": (
            "far_accesses=9 round_trips=9 network_traversals=18 near_accesses=3 bytes_read=168 "
            "bytes_written=72 atomic_ops=2 pipeline_ops=9 pipeline_flushes=9 "
            "pipeline_charged_ns=9000 custom.fences=2",
            9300.0,
            None,
            None,
            (2, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (18, "89e4a425e9313141"),
        ),
        "put_again": (
            "far_accesses=7 round_trips=7 network_traversals=14 near_accesses=3 bytes_read=360 "
            "bytes_written=40 atomic_ops=1 pipeline_ops=7 pipeline_flushes=7 "
            "pipeline_charged_ns=7000 custom.fences=1",
            7300.0,
            None,
            None,
            (4, 2, 2, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
            (14, "bc37674d4e4da136"),
        ),
        "get": (
            "far_accesses=4 round_trips=4 network_traversals=8 near_accesses=1 bytes_read=344 "
            "pipeline_ops=4 pipeline_flushes=4 pipeline_charged_ns=4000",
            4100.0,
            b"uno",
            None,
            (5, 3, 2, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0),
            (8, "240e19509dda86f9"),
        ),
        "get_missing": (
            "far_accesses=1 round_trips=1 network_traversals=2 near_accesses=1 bytes_read=32 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1100.0,
            None,
            None,
            (6, 3, 3, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0),
            (2, "dd6d8ec506347720"),
        ),
        "multiput": (
            "far_accesses=19 round_trips=19 network_traversals=38 near_accesses=9 bytes_read=568 "
            "bytes_written=207 atomic_ops=3 pipeline_ops=19 pipeline_flushes=9 "
            "pipeline_charged_ns=9500 overlap_saved_ns=9500 custom.fences=2",
            10400.0,
            None,
            None,
            (12, 5, 7, 3, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0),
            (28, "5764dab71d52cfba"),
        ),
        "multiput_empty": (
            "",
            0.0,
            None,
            None,
            (12, 5, 7, 3, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0),
            (0, "e3b0c44298fc1c14"),
        ),
        "multiget": (
            "far_accesses=8 round_trips=8 network_traversals=16 near_accesses=4 bytes_read=928 "
            "pipeline_ops=8 pipeline_flushes=5 pipeline_stalls=3 pipeline_charged_ns=5150 "
            "overlap_saved_ns=2850",
            5550.0,
            [b"threethreethreethreethreethreethreethreethree", None, b"1", b"two"],
            None,
            (16, 8, 8, 3, 2, 0, 1, 0, 2, 0, 0, 0, 0, 0),
            (13, "d7c4312963bc26df"),
        ),
        "delete": (
            "far_accesses=6 round_trips=6 network_traversals=12 near_accesses=3 bytes_read=368 "
            "bytes_written=16 atomic_ops=2 pipeline_ops=6 pipeline_flushes=6 "
            "pipeline_charged_ns=6000",
            6300.0,
            True,
            None,
            (18, 10, 8, 3, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (12, "8300f46622f91206"),
        ),
        "delete_missing": (
            "far_accesses=1 round_trips=1 network_traversals=2 near_accesses=1 bytes_read=32 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1100.0,
            False,
            None,
            (19, 10, 9, 3, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (2, "8fab38568909654d"),
        ),
        "get_collision": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=1 bytes_read=288 "
            "pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2100.0,
            None,
            ("KeyCollisionError", "'clash' collides with 'alpha' in the index"),
            (21, 11, 10, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (4, "95eac57db7cab966"),
        ),
        "put_collision": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=1 bytes_read=288 "
            "pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2100.0,
            None,
            ("KeyCollisionError", "'clash' collides with 'alpha' in the index"),
            (22, 12, 10, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (4, "0f2a259b9e6176c2"),
        ),
        "delete_collision": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=1 bytes_read=288 "
            "pipeline_ops=2 pipeline_flushes=2 pipeline_charged_ns=2000",
            2100.0,
            None,
            ("KeyCollisionError", "'clash' collides with 'alpha' in the index"),
            (23, 13, 10, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (4, "5dbced931c5a2723"),
        ),
        "multiget_collision": (
            "far_accesses=4 round_trips=4 network_traversals=8 near_accesses=2 bytes_read=576 "
            "pipeline_ops=4 pipeline_flushes=2 pipeline_stalls=2 pipeline_charged_ns=2100 "
            "overlap_saved_ns=1900",
            2300.0,
            None,
            ("KeyCollisionError", "'clash' collides with 'alpha' in the index"),
            (25, 15, 10, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (6, "5bc1696a19d7bf1b"),
        ),
        "multiput_collision": (
            "far_accesses=3 round_trips=3 network_traversals=6 near_accesses=2 bytes_read=320 "
            "pipeline_ops=3 pipeline_flushes=2 pipeline_charged_ns=2050 overlap_saved_ns=950",
            2250.0,
            None,
            ("KeyCollisionError", "'clash' collides with 'alpha' in the index"),
            (27, 16, 11, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (5, "2e5a3ad829268360"),
        ),
        "contains": (
            "far_accesses=1 round_trips=1 network_traversals=2 near_accesses=1 bytes_read=32 "
            "pipeline_ops=1 pipeline_flushes=1 pipeline_charged_ns=1000",
            1100.0,
            True,
            None,
            (28, 17, 11, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (2, "5fe42b4ff680a052"),
        ),
        "total_operations": (
            "far_accesses=1 round_trips=1 network_traversals=2 bytes_read=8 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            6,
            None,
            (28, 17, 11, 4, 2, 1, 1, 0, 2, 0, 0, 0, 0, 0),
            (2, "6f2de411eb668b7b"),
        ),
    },
    "rvec_groups": {
        "reader_seed": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=20 bytes_read=200 "
            "pipeline_ops=2 pipeline_flushes=1 pipeline_charged_ns=1050 overlap_saved_ns=950",
            3050.0,
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            None,
            None,
            (3, "32ed3db4f885e846"),
        ),
        "set_0": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "176013defe22ac4e"),
        ),
        "set_7": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "5d8314a7c20a70ed"),
        ),
        "set_7_again": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "2ef951bf977896d3"),
        ),
        "set_19": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "f5d398bcd8840c48"),
        ),
        "set_out_of_range": (
            "",
            0.0,
            None,
            ("AddressError", "address=0x14 length=0: index out of range [0, 20)"),
            None,
            (0, "e3b0c44298fc1c14"),
        ),
        "set_many": (
            "far_accesses=1 round_trips=1 network_traversals=12 bytes_written=48 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "5bdf2045790808ba"),
        ),
        "refresh": (
            "far_accesses=2 round_trips=2 network_traversals=10 bytes_read=168 pipeline_ops=2 "
            "pipeline_flushes=2 pipeline_charged_ns=2000",
            2000.0,
            ("poll", 5, 4, 16, 0, False, None),
            None,
            None,
            (4, "dd019b204db08c4e"),
        ),
        "snapshot": (
            "near_accesses=20",
            2000.0,
            [5, 2, 0, 0, 0, 0, 1, 10, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 18446744073709551615],
            None,
            None,
            (0, "e3b0c44298fc1c14"),
        ),
    },
    "rvec_elements": {
        "reader_seed": (
            "far_accesses=2 round_trips=2 network_traversals=4 near_accesses=20 bytes_read=320 "
            "pipeline_ops=2 pipeline_flushes=1 pipeline_charged_ns=1050 overlap_saved_ns=950",
            3050.0,
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            None,
            None,
            (3, "81f717ca9d9404f2"),
        ),
        "set_0": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "4ec8129e9a724047"),
        ),
        "set_7": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "acf1c9d5228c85df"),
        ),
        "set_7_again": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "09cae7d3736865e9"),
        ),
        "set_19": (
            "far_accesses=1 round_trips=1 network_traversals=4 bytes_written=16 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "c0767f2c195c42d5"),
        ),
        "set_out_of_range": (
            "",
            0.0,
            None,
            ("AddressError", "address=0x14 length=0: index out of range [0, 20)"),
            None,
            (0, "e3b0c44298fc1c14"),
        ),
        "set_many": (
            "far_accesses=1 round_trips=1 network_traversals=12 bytes_written=48 pipeline_ops=1 "
            "pipeline_flushes=1 pipeline_charged_ns=1000",
            1000.0,
            None,
            None,
            None,
            (2, "0e60e57140ff73fe"),
        ),
        "refresh": (
            "far_accesses=2 round_trips=2 network_traversals=14 bytes_read=208 pipeline_ops=2 "
            "pipeline_flushes=2 pipeline_charged_ns=2000",
            2000.0,
            ("poll", 20, 6, 6, 0, False, None),
            None,
            None,
            (4, "4f1269f623f03607"),
        ),
        "snapshot": (
            "near_accesses=20",
            2000.0,
            [5, 2, 0, 0, 0, 0, 1, 10, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 18446744073709551615],
            None,
            None,
            (0, "e3b0c44298fc1c14"),
        ),
    },
}


def test_pins_cover_every_scenario():
    assert set(PINNED) == set(SCENARIOS)


def test_the_scenarios_exercise_what_they_pin():
    for mode in ("queue_fsaai", "queue_fig1"):
        queue = QueueStats(*list(PINNED[mode].values())[-1][4])
        assert queue.enqueue_wraps and queue.dequeue_wraps and queue.empty_undos
        assert queue.claims_registered and queue.claims_consumed and queue.full_rejections
    tree = HTTreeStats(*list(PINNED["httree"].values())[-1][4])
    assert tree.chain_hops and tree.cas_retries and tree.splits and tree.stale_refreshes
    assert PINNED["kvstore"]["multiput_collision"][3][0] == "KeyCollisionError"


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_bulk_and_single_op_steps_match_the_pinned_table(name):
    assert observed(name) == PINNED[name]
