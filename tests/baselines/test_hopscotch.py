"""Unit + property tests for the FaRM-style hopscotch baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.baselines import HopscotchHashMap

NODE_SIZE = 8 << 20


@pytest.fixture
def table(cluster):
    return HopscotchHashMap.create(cluster.allocator, slot_count=256, neighborhood=8)


class TestOperations:
    def test_put_get(self, cluster, table):
        c = cluster.client()
        table.put(c, 1, 10)
        assert table.get(c, 1) == 10

    def test_miss(self, cluster, table):
        assert table.get(cluster.client(), 123) is None

    def test_update(self, cluster, table):
        c = cluster.client()
        table.put(c, 1, 10)
        table.put(c, 1, 20)
        assert table.get(c, 1) == 20
        assert len(table) == 1

    def test_delete(self, cluster, table):
        c = cluster.client()
        table.put(c, 1, 10)
        assert table.delete(c, 1)
        assert table.get(c, 1) is None
        assert not table.delete(c, 1)

    def test_fills_with_displacement(self, cluster):
        table = HopscotchHashMap.create(
            cluster.allocator, slot_count=64, neighborhood=8
        )
        c = cluster.client()
        stored = {}
        for k in range(1, 45):  # ~70% load factor
            table.put(c, k, k + 1)
            stored[k] = k + 1
        for k, v in stored.items():
            assert table.get(c, k) == v, k

    def test_reserved_key_rejected(self, cluster, table):
        from repro.baselines.hopscotch import EMPTY_KEY

        with pytest.raises(ValueError):
            table.put(cluster.client(), EMPTY_KEY, 1)

    def test_overfull_triggers_resize(self, cluster):
        table = HopscotchHashMap.create(cluster.allocator, slot_count=8, neighborhood=4)
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        for k in range(1, 100):
            table.put(c, k, k)
        # The FaRM-style recovery: the table doubled (possibly repeatedly)
        # and every key survived.
        assert table.stats.resizes >= 1
        assert table.slot_count > 8
        for k in range(1, 100):
            assert table.get(c, k) == k
        # Resizing is disruptive (section 5.2): it moved the whole table.
        assert c.metrics.delta(snapshot).bytes_written > 8 * 16

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            HopscotchHashMap.create(cluster.allocator, slot_count=4, neighborhood=8)


class TestFaRMTradeoffs:
    """Section 8: one wide read per lookup, at a bandwidth premium."""

    def test_lookup_is_one_far_access(self, cluster, table):
        c = cluster.client()
        table.put(c, 42, 1)
        snapshot = c.metrics.snapshot()
        table.get(c, 42)
        assert c.metrics.delta(snapshot).far_accesses == 1

    def test_lookup_reads_whole_neighborhood(self, cluster, table):
        c = cluster.client()
        table.put(c, 42, 1)
        snapshot = c.metrics.snapshot()
        table.get(c, 42)
        # 8 slots x 16 bytes: the "items that will not be used" bandwidth.
        assert c.metrics.delta(snapshot).bytes_read == 8 * 16

    def test_wrapping_neighborhood_read(self, cluster):
        table = HopscotchHashMap.create(cluster.allocator, slot_count=16, neighborhood=8)
        c = cluster.client()
        # Find keys whose home is in the last 8 slots so the read wraps.
        from repro.core.ht_tree import hash_u64

        wrap_keys = [k for k in range(1, 500) if hash_u64(k) % 16 >= 12][:4]
        for k in wrap_keys:
            table.put(c, k, k * 3)
        for k in wrap_keys:
            assert table.get(c, k) == k * 3


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(min_value=1, max_value=60),
                st.integers(min_value=0, max_value=1 << 30),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_matches_model_dict(self, script):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        table = HopscotchHashMap.create(
            cluster.allocator, slot_count=256, neighborhood=8
        )
        client = cluster.client()
        model: dict[int, int] = {}
        for op, key, value in script:
            if op == "put":
                table.put(client, key, value)
                model[key] = value
            elif op == "get":
                assert table.get(client, key) == model.get(key)
            else:
                assert table.delete(client, key) == (key in model)
                model.pop(key, None)
        for key, value in model.items():
            assert table.get(client, key) == value
