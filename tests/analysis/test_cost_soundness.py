"""Soundness bridge between fmcost and the runtime BudgetSanitizer.

For randomized workloads on every registered structure, each operation's
runtime far-access delta (as metered by the sanitizer) must stay within
the statically inferred worst-case bound from the cost certificate:
static >= dynamic, always. Operations whose static worst is T
(unbounded) or retry-exempt carry no finite claim and are vacuously
sound; everything else is checked exactly.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.analysis.budget import BudgetSanitizer
from repro.analysis.fmcost import analyze_paths, build_certificate
from repro.apps.kvstore.kvstore import FarKVStore
from repro.fabric.client import Client
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import RepairCoordinator

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
NODE_SIZE = 8 << 20

_CERT_BY_KEY = {
    f"{record['structure']}.{record['op']}": record
    for record in build_certificate(analyze_paths([str(SRC)]))["records"]
}

_WORKLOAD_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_sound(san: BudgetSanitizer, n_max: int = 1) -> None:
    """Every observed delta <= the static worst bound for that op."""
    checked = 0
    for key, observed in san.records.items():
        record = _CERT_BY_KEY.get(key)
        if record is None:
            continue  # helper of an unregistered structure
        inferred = record["inferred"]
        if inferred["worst_unbounded"] or inferred["retry_exempt"]:
            continue  # no finite static claim to violate
        bound = inferred["worst_const"] + inferred["worst_per_item"] * max(
            n_max, 1
        )
        assert observed.max_delta <= bound, (
            f"{key}: observed {observed.max_delta} far accesses exceeds "
            f"static worst {inferred['worst']}"
        )
        checked += 1
    assert checked, "workload never hit a statically-bounded operation"


@pytest.fixture
def cluster():
    Client.reset_ids()
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestCounterAndMutex:
    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.sampled_from(
                ["increment", "decrement", "read", "set", "add", "cas"]
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_counter_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-ctr")
        counter = cluster.far_counter()
        with BudgetSanitizer(strict=False) as san:
            counter.read(client)  # primer: one bounded op always runs
            for op in ops:
                if op == "increment":
                    counter.increment(client)
                elif op == "decrement":
                    counter.decrement(client)
                elif op == "read":
                    counter.read(client)
                elif op == "set":
                    counter.set(client, 7)
                elif op == "add":
                    counter.add(client, 3)
                else:
                    counter.compare_and_set(client, 0, 1)
        _assert_sound(san)

    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.sampled_from(["try_acquire", "release", "holder"]),
            min_size=1,
            max_size=40,
        )
    )
    def test_mutex_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-mtx")
        mutex = cluster.far_mutex()
        held = False
        with BudgetSanitizer(strict=False) as san:
            mutex.holder(client)  # primer: one bounded op always runs
            for op in ops:
                if op == "try_acquire":
                    held = mutex.try_acquire(client) or held
                elif op == "release" and held:
                    mutex.release(client)
                    held = False
                elif op == "holder":
                    mutex.holder(client)
        _assert_sound(san)


class TestQueue:
    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "try_dequeue", "size"]),
                st.integers(min_value=0, max_value=2**32),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_queue_ops_stay_within_static_bounds(self, ops):
        from repro.fabric.errors import QueueFull

        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-q")
        queue = cluster.far_queue(capacity=64, max_clients=4)
        with BudgetSanitizer(strict=False) as san:
            queue.size_estimate(client)  # primer: one bounded op always runs
            for op, value in ops:
                if op == "enqueue":
                    try:
                        queue.enqueue(client, value)
                    except QueueFull:
                        pass
                elif op == "try_dequeue":
                    queue.try_dequeue(client)
                else:
                    queue.size_estimate(client)
        _assert_sound(san)


class TestHTTreeAndKVStore:
    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete", "cache_bytes"]),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_httree_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-ht")
        tree = cluster.ht_tree(bucket_count=256)
        with BudgetSanitizer(strict=False) as san:
            tree.cache_bytes(client)  # primer: one bounded op always runs
            for op, key in ops:
                if op == "put":
                    tree.put(client, key, key * 3)
                elif op == "get":
                    tree.get(client, key)
                elif op == "delete":
                    tree.delete(client, key)
                else:
                    tree.cache_bytes(client)
        _assert_sound(san)

    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete", "contains"]),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_kvstore_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-kv")
        registry = cluster.registry()
        store = FarKVStore.create(cluster, registry, client, "sound")
        with BudgetSanitizer(strict=False) as san:
            store.total_operations(client)  # primer: one bounded op always runs
            for op, key_index in ops:
                key = f"k{key_index}"
                if op == "put":
                    store.put(client, key, b"v" * (key_index + 1))
                elif op == "get":
                    store.get(client, key)
                elif op == "delete":
                    store.delete(client, key)
                else:
                    store.contains(client, key)
        _assert_sound(san)


class TestVectorAndReplication:
    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["set", "get", "snapshot", "refresh", "mode"]
                ),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_vector_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        client = cluster.client("sound-vec")
        vector = cluster.refreshable_vector(length=16)
        with BudgetSanitizer(strict=False) as san:
            vector.reader_mode(client)  # primer: one bounded op always runs
            for op, index in ops:
                if op == "set":
                    vector.set(client, index, index + 1)
                elif op == "get":
                    vector.get(client, index)
                elif op == "snapshot":
                    vector.snapshot(client)
                elif op == "refresh":
                    vector.refresh(client)
                else:
                    vector.reader_mode(client)
        _assert_sound(san)

    @_WORKLOAD_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write_block", "read_block", "rejoin"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_replicated_region_ops_stay_within_static_bounds(self, ops):
        Client.reset_ids()
        cluster = Cluster(node_count=2, node_size=NODE_SIZE)
        client = cluster.client("sound-rep")
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=8, block_count=4, copies=2
        )
        # Registered, so every write pays its fence read and rejoin runs.
        RepairCoordinator(cluster.allocator).register(client, region)
        with BudgetSanitizer(strict=False) as san:
            region.write_block(client, 0, b"x" * 8)  # primer: one bounded op always runs
            for op, index in ops:
                if op == "write_block":
                    region.write_block(client, index, bytes([index]) * 8)
                elif op == "read_block":
                    region.read_block(client, index)
                else:
                    region.rejoin(client)
        _assert_sound(san)
