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
from repro.core.registry import FarRegistry

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

    def test_per_item_budget_scales_with_batch_size(self, cluster):
        client = cluster.client("bulk")
        tree = cluster.ht_tree(bucket_count=1024)
        for key in range(8):
            tree.put(client, key, key)
        tree.get(client, 0)
        with BudgetSanitizer() as san:
            tree.multiget(client, list(range(8)))
        record = san.records["HTTree.multiget"]
        assert record.fast_hits == 1, "budget scaled to 8 items must hold"

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
