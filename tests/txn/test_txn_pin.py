"""Pins for every commit step of ``TxnSpace``, recorded before lock,
validate, unlock, roll-back and roll-forward shared one posting primitive.

Each scenario is run twice, untraced and with a ``Tracer`` attached, and
every measured step records the acting client's full ``Metrics`` delta and
clock delta, the exception it raised (type, message, ``reason``, ``slot``,
``__cause__`` type), the ``TxnRecoveryReport`` it returned, and — traced —
a digest of its ``window`` / ``txn_validate`` / ``txn_abort`` /
``txn_commit`` events (``tests.pins``). Both runs must agree (zero observer
effect) and match ``tests/pins/commit.json``; a change to the commit path
must leave the file untouched, so window shapes and abort causes are
checked, not only end states and far-access totals."""

import pytest

from repro.apps.kvstore import FarKVStore
from repro.fabric import FaultPlan, RetryPolicy

from ..pins import load, verify
from .conftest import PAYLOAD, seed_cells, txn_cluster

KINDS = ("window", "txn_validate", "txn_abort", "txn_commit")
#: A crash phase -> how many of the commit's posts land before the owner
#: dies. The warm W=2, R=1 commit posts 2 lock CAS, 1 validate FAA, the
#: seal, then 2 write-back scatters; the KV commit 3 lock CAS, then the seal.
PHASES = {"before_lock": 0, "after_lock": 2, "after_seal": 4, "mid_writeback": 5}
KV_PHASES = {"after_lock": 3, "after_seal": 4}
#: Far accesses of the warm W=2, R=1 cell commit: 2 lock CAS, 1 validate
#: FAA, the seal, 2 write-back scatters, 2 unlocks and the tombstone.
COMMIT_ACCESSES = 9


def _space(probe, cells=3, **kwargs):
    cluster = txn_cluster()
    owner = probe.client(cluster, "owner", **kwargs)
    space = cluster.txn_space(owner)
    addrs = seed_cells(cluster, space, owner, cells)
    space.register(owner)
    return cluster, owner, space, addrs


def _stores(cluster, owner):
    registry = cluster.registry()
    return [
        FarKVStore.create(cluster, registry, owner, name, bucket_count=64)
        for name in ("left", "right")
    ]


def _w2_r1(space, client, addrs):
    a, b, r = addrs
    txn = space.begin(client)
    space.read(client, txn, r, PAYLOAD)
    space.write(client, txn, a, b"A" * PAYLOAD)
    space.write(client, txn, b, b"B" * PAYLOAD)
    return txn


def _kv_puts(space, client, stores):
    left, right = stores
    txn = space.begin(client)
    left.txn_multiput(client, space, txn, [("x", b"1"), ("y", b"22")])
    right.txn_multiput(client, space, txn, [("z", b"333")])
    return txn


def commit_w2_r1(probe):
    _, owner, space, addrs = _space(probe)
    txn = _w2_r1(space, owner, addrs)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def commit_kv(probe):
    cluster, owner, space, (cell,) = _space(probe, cells=1)
    stores = _stores(cluster, owner)
    txn = _kv_puts(space, owner, stores)
    space.write(owner, txn, cell, b"C" * PAYLOAD)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def commit_read_only(probe):
    _, owner, space, (a, b) = _space(probe, cells=2)
    txn = space.begin(owner)
    space.read(owner, txn, a, PAYLOAD)
    space.read(owner, txn, b, PAYLOAD)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def lock_conflict(probe):
    cluster, owner, space, addrs = _space(probe)
    rival = probe.client(cluster, "rival")
    txn = _w2_r1(space, owner, addrs)
    other = space.begin(rival)
    space.write(rival, other, addrs[0], b"R" * PAYLOAD)
    space.commit(rival, other)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def validate_conflict(probe):
    cluster, owner, space, addrs = _space(probe)
    rival = probe.client(cluster, "rival")
    txn = _w2_r1(space, owner, addrs)
    other = space.begin(rival)
    space.write(rival, other, addrs[2], b"R" * PAYLOAD)
    space.commit(rival, other)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def _timeout_at(index):
    def scenario(probe):
        cluster, owner, space, addrs = _space(
            probe, retry_policy=RetryPolicy(max_attempts=1), breaker_policy=None
        )
        txn = _w2_r1(space, owner, addrs)
        cluster.inject_faults(plan=FaultPlan().timeout_at(index))
        probe.act("commit", owner, lambda: space.commit(owner, txn))

    return scenario


def _crash(posts):
    def scenario(probe):
        cluster, owner, space, addrs = _space(probe)
        txn = _w2_r1(space, owner, addrs)
        owner.crash_after(posts)
        probe.act("commit", owner, lambda: space.commit(owner, txn))
        surgeon = probe.client(cluster, "surgeon")
        probe.act("recover", surgeon, lambda: space.recover(surgeon, owner.client_id))

    return scenario


def _kv_crash(posts):
    def scenario(probe):
        cluster, owner, space, _ = _space(probe, cells=0)
        stores = _stores(cluster, owner)
        txn = _kv_puts(space, owner, stores)
        owner.crash_after(posts)
        probe.act("commit", owner, lambda: space.commit(owner, txn))
        surgeon = probe.client(cluster, "surgeon")
        low, _ = sorted(stores, key=lambda store: store.txn_tag)
        every = {store.txn_tag: store for store in stores}
        # A mapping that misses a sealed tag replays the tags before it,
        # then refuses; a second call with every store completes the job.
        probe.act(
            "recover_one_store",
            surgeon,
            lambda: space.recover(surgeon, owner.client_id, stores={low.txn_tag: low}),
        )
        probe.act(
            "recover_every_store",
            surgeon,
            lambda: space.recover(surgeon, owner.client_id, stores=every),
        )

    return scenario


SCENARIOS = {
    "commit_w2_r1": commit_w2_r1,
    "commit_kv": commit_kv,
    "commit_read_only": commit_read_only,
    "lock_conflict": lock_conflict,
    "validate_conflict": validate_conflict,
    **{f"timeout_at_{k}": _timeout_at(k) for k in range(COMMIT_ACCESSES)},
    **{f"crash_{phase}": _crash(posts) for phase, posts in PHASES.items()},
    **{f"kv_crash_{phase}": _kv_crash(posts) for phase, posts in KV_PHASES.items()},
}


def test_pins_cover_every_scenario():
    pins = load("commit")
    assert list(pins) == list(SCENARIOS)
    assert f"far_accesses={COMMIT_ACCESSES} " in pins["commit_w2_r1"]["commit"]["delta"]


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_commit_steps_match_the_pinned_table(name):
    verify(SCENARIOS[name], KINDS, load("commit")[name])
