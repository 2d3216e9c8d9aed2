"""Pins for the single-op and bulk paths of ``FarQueue``, ``HTTree``,
``FarKVStore`` and ``RefreshableVector``, recorded before each bulk path
(``enqueue_many``, ``dequeue_many``, ``multiget``, ``multistore``, ``multiput``,
``set_many``) reused its single-op steps.

Each scenario is run twice, untraced and with a ``Tracer`` attached, and every
measured step records the acting client's nonzero ``Metrics`` delta and clock
delta, what the step returned, the exception it raised, the structure's stats
afterwards, and — traced — a digest of its ``window`` and ``far_access``
events (``tests.pins``). Both runs must agree (zero observer effect) and match
``tests/pins/structure_steps.json``: a change to a bulk or single-op path must
leave the file untouched, so window shapes, addresses and stats are checked,
not only far-access totals."""

import pytest

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.core.blob import pack_blob
from repro.core.ht_tree import HTTreeStats
from repro.core.queue import QueueStats
from repro.core.registry import name_hash

from ..pins import load, verify

NODE_SIZE = 8 << 20
KINDS = ("window", "far_access")


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


def test_pins_cover_every_scenario():
    assert list(load("structure_steps")) == list(SCENARIOS)


def test_the_scenarios_exercise_what_they_pin():
    pins = load("structure_steps")
    for mode in ("queue_fsaai", "queue_fig1"):
        queue = QueueStats(*list(pins[mode].values())[-1]["stats"])
        assert queue.enqueue_wraps and queue.dequeue_wraps and queue.empty_undos
        assert queue.claims_registered and queue.claims_consumed and queue.full_rejections
    tree = HTTreeStats(*list(pins["httree"].values())[-1]["stats"])
    assert tree.chain_hops and tree.cas_retries and tree.splits and tree.stale_refreshes
    assert pins["kvstore"]["multiput_collision"]["raised"][0] == "KeyCollisionError"


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_bulk_and_single_op_steps_match_the_pinned_table(name):
    verify(SCENARIOS[name], KINDS, load("structure_steps")[name])
