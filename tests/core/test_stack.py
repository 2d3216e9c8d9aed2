"""Unit + property tests for the far stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.alloc import EpochReclaimer
from repro.core.stack import FarStack

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


@pytest.fixture
def stack(cluster):
    return FarStack.create(cluster.allocator)


class TestOperations:
    def test_lifo_order(self, cluster, stack):
        c = cluster.client()
        for i in range(5):
            stack.push(c, i)
        assert [stack.pop(c) for _ in range(5)] == [4, 3, 2, 1, 0]

    def test_pop_empty_returns_none(self, cluster, stack):
        assert stack.pop(cluster.client()) is None
        assert stack.stats.empty_pops == 1

    def test_peek(self, cluster, stack):
        c = cluster.client()
        assert stack.peek(c) is None
        stack.push(c, 7)
        assert stack.peek(c) == 7
        assert len(stack) == 1

    def test_shared_between_clients(self, cluster, stack):
        a, b = cluster.client(), cluster.client()
        stack.push(a, 1)
        stack.push(b, 2)
        assert stack.pop(a) == 2
        assert stack.pop(b) == 1

    def test_push_cost(self, cluster, stack):
        c = cluster.client()
        snapshot = c.metrics.snapshot()
        stack.push(c, 1)
        # top read + node write + CAS (the documented 3; load0 cannot help
        # a *linking* operation).
        assert c.metrics.delta(snapshot).far_accesses == 3

    def test_pop_cost_is_two(self, cluster, stack):
        c = cluster.client()
        stack.push(c, 1)
        snapshot = c.metrics.snapshot()
        stack.pop(c)
        # load0 (node fetch through the top pointer) + CAS.
        assert c.metrics.delta(snapshot).far_accesses == 2

    def test_reclaimer_frees_popped_nodes(self, cluster):
        reclaimer = EpochReclaimer(cluster.allocator)
        stack = FarStack.create(cluster.allocator, reclaimer=reclaimer)
        c = cluster.client()
        pid = reclaimer.register()
        for i in range(10):
            stack.push(c, i)
        for _ in range(10):
            stack.pop(c)
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        assert reclaimer.stats.reclaimed == 10


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(min_value=0, max_value=1 << 30)),
                st.tuples(st.just("pop"), st.just(0)),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_model_list(self, script):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        stack = FarStack.create(cluster.allocator)
        client = cluster.client()
        model: list[int] = []
        for op, value in script:
            if op == "push":
                stack.push(client, value)
                model.append(value)
            else:
                got = stack.pop(client)
                expected = model.pop() if model else None
                assert got == expected
        assert len(stack) == len(model)
