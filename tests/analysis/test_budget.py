"""@far_budget runtime sanitizer tests: the paper's per-op far-access
prices (C4: HT-tree lookup=1/store=2; C5: queue fast path=1) become
always-on assertions under an active BudgetSanitizer."""

import pytest

from repro import Cluster
from repro.analysis.budget import (
    BudgetSanitizer,
    BudgetViolation,
    far_budget,
)
from repro.apps.kvstore.kvstore import FarKVStore
from repro.core.ht_tree import HTTree, hash_u64
from repro.core.queue import FarQueue
from repro.core.registry import FarRegistry, name_hash
from repro.obs import Tracer

NODE_SIZE = 8 << 20


def _collision_free_keys(count: int, bucket_count: int) -> list[int]:
    """Keys hashing to distinct buckets: the C4 single-probe fast path.

    A chained bucket legitimately costs an extra far access, so the
    exact lookup=1 / store=2 assertions need collision-free keys.
    """
    keys: list[int] = []
    buckets: set[int] = set()
    key = 0
    while len(keys) < count:
        bucket = hash_u64(key) % bucket_count
        if bucket not in buckets:
            buckets.add(bucket)
            keys.append(key)
        key += 1
    return keys


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestC4HTTreeBudgets:
    def test_warm_lookup_is_one_far_access(self, cluster):
        client = cluster.client("c4")
        tree = cluster.ht_tree(bucket_count=1024)
        keys = _collision_free_keys(32, 1024)
        for key in keys:
            tree.put(client, key, key)
        for key in keys:
            tree.get(client, key)  # warm every leaf cache entry
        with BudgetSanitizer() as san:
            for key in keys:
                assert tree.get(client, key) == key
        record = san.records["HTTree.get"]
        assert record.calls == 32
        assert record.max_delta == 1, "C4: lookup must cost 1 far access"
        assert record.fast_fraction == 1.0

    def test_warm_overwrite_is_two_far_accesses(self, cluster):
        client = cluster.client("c4w")
        tree = cluster.ht_tree(bucket_count=1024)
        keys = _collision_free_keys(32, 1024)
        for key in keys:
            tree.put(client, key, key)
        for key in keys:
            tree.get(client, key)  # warm every leaf cache entry
        with BudgetSanitizer() as san:
            for key in keys:
                tree.put(client, key, key + 1)
        record = san.records["HTTree.put"]
        assert record.max_delta == 2, "C4: store must cost 2 far accesses"
        assert record.fast_fraction == 1.0
        assert record.budget.claim == "C4"


class TestC5QueueBudgets:
    def test_fast_path_is_one_far_access(self, cluster):
        client = cluster.client("c5")
        queue = cluster.far_queue(capacity=64, max_clients=4)
        queue.enqueue(client, 1)
        queue.dequeue(client)
        with BudgetSanitizer() as san:
            for i in range(16):
                queue.enqueue(client, i + 1)
            for _ in range(16):
                queue.dequeue(client)
        enq = san.records["FarQueue.enqueue"]
        deq = san.records["FarQueue.dequeue"]
        assert enq.fast_fraction == 1.0, "C5: enqueue fast path must be 1"
        assert deq.fast_fraction == 1.0, "C5: dequeue fast path must be 1"
        assert enq.budget.claim == deq.budget.claim == "C5"


class TestSanitizerMechanics:
    def test_ceiling_violation_raises_under_strict(self, cluster):
        class Chatty:
            @far_budget(0, ceiling=0)
            def op(self, client, addr):
                return client.read_u64(addr)

        client = cluster.client("strict")
        addr = cluster.allocator.alloc(8)
        with BudgetSanitizer() as san:
            with pytest.raises(BudgetViolation, match="exceeds declared"):
                Chatty().op(client, addr)
        assert san.violations

    def test_non_strict_records_instead_of_raising(self, cluster):
        class Chatty:
            @far_budget(0, ceiling=0)
            def op(self, client, addr):
                return client.read_u64(addr)

        client = cluster.client("lax")
        addr = cluster.allocator.alloc(8)
        with BudgetSanitizer(strict=False) as san:
            Chatty().op(client, addr)
            Chatty().op(client, addr)
        assert len(san.violations) == 2
        assert "2 budget violation(s)" in san.report()

    def test_outermost_op_owns_the_delta(self, cluster):
        # FarKVStore.get composes HTTree.get; recording both would
        # double-count the same far accesses.
        client = cluster.client("nest")
        registry = FarRegistry.create(cluster.allocator, capacity=16)
        store = FarKVStore.create(
            cluster, registry, client, "kv", bucket_count=256
        )
        store.put(client, "k", b"v")
        with BudgetSanitizer() as san:
            assert store.get(client, "k") == b"v"
        assert "FarKVStore.get" in san.records
        assert "HTTree.get" not in san.records

    @pytest.mark.parametrize(
        "by_keyword", [(), ("keys",), ("client", "keys")], ids=["positional", "keys", "all"]
    )
    def test_per_item_budget_scales_with_batch_size(self, cluster, by_keyword):
        # However the arguments are passed, one lookup of the items
        # scales the budget and tags the op's span.
        client = cluster.client("bulk")
        tree = cluster.ht_tree(bucket_count=1024)
        for key in range(8):
            tree.put(client, key, key)
        tree.get(client, 0)
        arguments = {"client": client, "keys": list(range(8))}
        args = [value for name, value in arguments.items() if name not in by_keyword]
        kwargs = {name: arguments[name] for name in by_keyword}
        tracer = Tracer().attach(client)
        with BudgetSanitizer() as san:
            tree.multiget(*args, **kwargs)
        record = san.records["HTTree.multiget"]
        assert record.budget.fast == 8
        assert record.fast_hits == 1, "budget scaled to 8 items must hold"
        assert tracer.spans_by_label("httree.multiget")[0].tags == {"n": 8}

    def test_traced_and_sanitized_op_nests_spans_and_records(self, cluster):
        client = cluster.client("both")
        registry = FarRegistry.create(cluster.allocator, capacity=16)
        store = FarKVStore.create(cluster, registry, client, "kv", bucket_count=256)
        store.put(client, "k", b"v")
        tracer = Tracer().attach(client)
        with BudgetSanitizer(strict=True) as san:
            assert store.get(client, "k") == b"v"
        (outer,) = tracer.spans_by_label("get")
        (inner,) = tracer.spans_by_label("httree.get")
        assert inner.parent_id == outer.span_id
        assert inner.tags == {"key": name_hash("k")}
        record = san.records["FarKVStore.get"]
        assert record.calls == 1 and record.max_delta == outer.delta.far_accesses == 2

    def test_inactive_sanitizer_is_a_passthrough(self, cluster):
        client = cluster.client("off")
        tree = cluster.ht_tree(bucket_count=64)
        tree.put(client, 1, 2)
        assert tree.get(client, 1) == 2  # no sanitizer: no recording, no error

    def test_nested_sanitizers_are_rejected(self):
        with BudgetSanitizer():
            with pytest.raises(RuntimeError, match="already active"):
                BudgetSanitizer().__enter__()

    def test_declarations_are_introspectable(self):
        assert HTTree.get.__far_budget__.fast == 1
        assert HTTree.put.__far_budget__.fast == 2
        assert HTTree.get.__far_budget__.claim == "C4"
        assert FarQueue.enqueue.__far_budget__.fast == 1
        assert FarQueue.enqueue.__far_budget__.claim == "C5"


def _ht_tree_spans(cluster, client):
    tree = cluster.ht_tree(bucket_count=64)
    tree.put(client, 1, 10)
    tree.get(client, key=1)
    tree.multiget(client, [1, 2])
    tree.multistore(client, pairs=[(2, 20), (3, 30)])
    tree.delete(client, 3)
    tree.scan(client, 0, high=9)
    return [
        ("httree.put", {"key": 1}),
        ("httree.get", {"key": 1}),
        ("httree.multiget", {"n": 2}),
        ("httree.multistore", {"n": 2}),
        ("httree.delete", {"key": 3}),
        ("httree.scan", {"low": 0, "high": 9}),
    ]


def _queue_spans(cluster, client):
    queue = cluster.far_queue(capacity=16, max_clients=2)
    queue.enqueue(client, 1)
    queue.enqueue_many(client, [2, 3])
    queue.dequeue(client)
    queue.dequeue_many(client, max_items=2)
    queue.try_dequeue(client)  # certified, declares no span (its dequeue does)
    return [
        ("queue.enqueue", {}),
        ("queue.enqueue_many", {"n": 2}),
        ("queue.dequeue", {}),
        ("queue.dequeue_many", {"max_items": 2}),
        ("queue.dequeue", {}),
    ]


def _vector_spans(cluster, client):
    vector = cluster.refreshable_vector(8)
    vector.set(client, 0, 5)
    vector.set_many(client, {1: 6, 2: 7})
    vector.refresh(client)
    vector.get(client, 1)  # certified, declares no span
    return [("rvec.set", {"index": 0}), ("rvec.set_many", {"n": 2}), ("rvec.refresh", {})]


def _kv_spans(cluster, client):
    store = FarKVStore.create(cluster, cluster.registry(), client, "kv", bucket_count=64)
    store.put(client, "a", b"1")
    store.get(client, "a")
    store.multiput(client, {"b": b"2"})
    store.multiget(client, ["a", "b"])
    store.delete(client, "b")
    store.contains(client, "a")  # certified, declares no span (its lookup does)
    return [
        ("put", {}),
        ("get", {}),
        ("multiput", {}),
        ("multiget", {}),
        ("delete", {}),
        ("httree.get", {"key": name_hash("a")}),
    ]


class TestSpanDeclarations:
    @pytest.mark.parametrize("scenario", [_ht_tree_spans, _queue_spans, _vector_spans, _kv_spans])
    def test_each_declared_span_opens_once_with_its_tags(self, cluster, scenario):
        client = cluster.client("spans")
        tracer = Tracer().attach(client)
        expected = scenario(cluster, client)
        root = tracer.current_span(client)
        assert root.is_root  # every op span closed
        opened = [(s.label, s.tags) for s in tracer.spans if s.parent_id == root.span_id]
        assert opened == expected

    def test_a_span_naming_no_parameter_fails_at_declaration(self):
        with pytest.raises(ValueError):

            class Typo:
                @far_budget(1, span="typo.get keys")
                def get(self, client, key):
                    return key
