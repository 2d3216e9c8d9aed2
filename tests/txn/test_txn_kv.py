"""Transactional FarKVStore tests: buffered puts, read-modify-write,
conflicts between stores' clients, and crash recovery that replays the
sealed KV pointers through ``recover(stores=...)``."""

import pytest

from repro import TxnConflictError
from repro.apps.kvstore import FarKVStore
from repro.fabric.errors import FabricError

from .conftest import seed_cells


@pytest.fixture
def setup(cluster):
    client = cluster.client("kv")
    registry = cluster.registry()
    store = FarKVStore.create(cluster, registry, client, "bank", bucket_count=64)
    space = cluster.txn_space(client)
    return cluster, client, store, space


class TestKvTxn:
    def test_multiput_commits_atomically(self, setup):
        cluster, c1, store, space = setup
        store.put(c1, "a", b"old")
        c2 = cluster.client()
        txn = space.begin(c1)
        store.txn_multiput(c1, space, txn, [("a", b"new"), ("b", b"born")])
        # Buffered: our reads see it, the other client does not.
        assert store.txn_get(c1, space, txn, "a") == b"new"
        assert store.get(c2, "a") == b"old"
        assert store.get(c2, "b") is None
        space.commit(c1, txn)
        assert store.get(c2, "a") == b"new"
        assert store.get(c2, "b") == b"born"

    def test_update_is_read_modify_write(self, setup):
        _, c1, store, space = setup
        store.put(c1, "n", (7).to_bytes(8, "little"))
        txn = space.begin(c1)
        current = int.from_bytes(store.txn_get(c1, space, txn, "n"), "little")
        store.txn_multiput(c1, space, txn, [("n", (current + 5).to_bytes(8, "little"))])
        space.commit(c1, txn)
        assert int.from_bytes(store.get(c1, "n"), "little") == 12

    def test_update_default_for_missing_key(self, setup):
        _, c1, store, space = setup
        txn = space.begin(c1)
        current = store.txn_get(c1, space, txn, "fresh")
        assert current is None  # a missing key reads as None; the caller supplies the default
        store.txn_multiput(c1, space, txn, [("fresh", (current or b"hi") + b"!")])
        space.commit(c1, txn)
        assert store.get(c1, "fresh") == b"hi!"

    def test_abort_discards_and_frees_regions(self, setup):
        _, c1, store, space = setup
        store.put(c1, "k", b"keep")
        txn = space.begin(c1)
        store.txn_multiput(c1, space, txn, [("k", b"drop")])
        space.abort(c1, txn)
        assert store.get(c1, "k") == b"keep"
        assert not txn.kv_puts or txn.state == "aborted"

    def test_rival_commit_aborts_conflicting_update(self, setup):
        cluster, c1, store, space = setup
        store.put(c1, "x", b"0")
        c2 = cluster.client()
        txn = space.begin(c1)
        store.txn_get(c1, space, txn, "x")

        rival = space.begin(c2)
        store.txn_multiput(c2, space, rival, [("x", b"1")])
        space.commit(c2, rival)

        with pytest.raises(TxnConflictError):
            store.txn_multiput(c1, space, txn, [("x", b"2")])
            space.commit(c1, txn)
        # run() drives the retry to success.
        space.run(
            c1,
            lambda t: store.txn_multiput(c1, space, t, [("x", b"2")]),
        )
        assert store.get(c1, "x") == b"2"

    def test_mixed_cells_and_kv_commit_together(self, setup):
        cluster, c1, store, space = setup
        (cell,) = seed_cells(cluster, space, c1, 1)
        txn = space.begin(c1)
        space.write(c1, txn, cell, b"C" * 8)
        store.txn_multiput(c1, space, txn, [("both", b"yes")])
        space.commit(c1, txn)
        assert c1.read_verified(cell, 8)[1] == b"C" * 8
        assert store.get(c1, "both") == b"yes"


class TestKvCrashRecovery:
    def _crash_after_seal(self, setup):
        cluster, victim, store, space = setup
        store.put(victim, "bal", b"100")
        txn = space.begin(victim)
        store.txn_multiput(victim, space, txn, [("bal", b"42"), ("new", b"n")])
        victim.crash_after(4)  # register, 2 locks and the seal land
        with pytest.raises(FabricError):
            space.commit(victim, txn)
        return cluster, victim, store, space

    def test_sealed_kv_rolls_forward(self, setup):
        cluster, victim, store, space = self._crash_after_seal(setup)
        surgeon = cluster.client("surgeon")
        report = space.recover(
            surgeon, victim.client_id, stores={store.txn_tag: store}
        )
        assert report.action == "rollforward"
        assert report.kv_replayed == 2
        assert store.get(surgeon, "bal") == b"42"
        assert store.get(surgeon, "new") == b"n"

    def test_recover_without_store_mapping_raises(self, setup):
        cluster, victim, store, space = self._crash_after_seal(setup)
        surgeon = cluster.client("surgeon")
        with pytest.raises(ValueError, match="store tag"):
            space.recover(surgeon, victim.client_id)
