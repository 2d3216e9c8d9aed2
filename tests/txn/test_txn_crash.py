"""Crash-stop tests at every post of a commit: a client killed at any of
its commit's far accesses must leave no torn state once
:meth:`TxnSpace.recover` runs — pre-seal crashes roll back (old values),
post-seal crashes roll forward (new values) — one owner's recovery never
touches another owner's locks, and a ``recover`` that itself dies of a
fabric fault is resumed by re-calling it."""

import pytest

from repro.fabric import FaultPlan
from repro.fabric.errors import ClientDeadError, FabricError, FarCorruptionError
from repro.fabric.wire import WORD, decode_u64

from .conftest import PAYLOAD, seed_cells, txn_cluster

OLD = (bytes([1]) * PAYLOAD, bytes([2]) * PAYLOAD)
NEW = (b"A" * PAYLOAD, b"B" * PAYLOAD)


def _buffered(cluster):
    """A fresh (unregistered) owner's transaction with ``NEW`` buffered
    over two cells; returns (space, victim, cells, txn)."""
    victim = cluster.client("victim")
    space = cluster.txn_space(victim)
    cells = seed_cells(cluster, space, victim, 2)
    txn = space.begin(victim)
    for addr, payload in zip(cells, NEW):
        space.write(victim, txn, addr, payload)
    return space, victim, cells, txn


def _crash_commit(cluster, posts):
    """Commit the two-cell transaction, the owner dying once ``posts`` of
    its commit's posts have landed; returns (space, victim, cells)."""
    space, victim, cells, txn = _buffered(cluster)
    victim.crash_after(posts)
    with pytest.raises(ClientDeadError):
        space.commit(victim, txn)
    return space, victim, cells


def _commit_posts():
    """The posts of the uncrashed twin's commit: the registration CAS,
    2 lock CAS, the seal, 2 write-back scatters, 2 unlocks, the tombstone."""
    space, victim, _, txn = _buffered(txn_cluster())
    before = victim.metrics.pipeline_ops
    space.commit(victim, txn)
    return victim.metrics.pipeline_ops - before


COMMIT_POSTS = _commit_posts()

#: Posts landed before the owner died -> what one uninterrupted ``recover``
#: does: its action, the locks it releases, the cells it rewrites, and its
#: far accesses — the registration read (once registered, the table and
#: record reads too), an unlock per held lock (roll-back) or a read, a
#: rewrite and an unlock per still-locked cell (roll-forward), the tombstone.
RECOVERY = {
    0: ("none", 0, 0, 1),  # not even registered
    1: ("none", 0, 0, 3),  # registered, no lock taken
    2: ("rollback", 1, 0, 5),  # half the lock set
    3: ("rollback", 2, 0, 6),
    4: ("rollforward", 2, 2, 10),  # sealed
    5: ("rollforward", 2, 2, 10),  # one cell written back
    6: ("rollforward", 2, 2, 10),
    7: ("rollforward", 1, 1, 7),  # one lock advanced
    8: ("rollforward", 0, 0, 4),  # both advanced, the record not yet tombstoned
}


def _state(client, space, cells):
    payloads = tuple(client.read_verified(addr, PAYLOAD)[1] for addr in cells)
    words = tuple(
        decode_u64(client.read(space.version_addr(space.slot_for_addr(a)), WORD))
        for a in cells
    )
    return payloads, words


class TestCrashAtEveryPost:
    def test_the_sweep_covers_every_post(self, cluster):
        space, victim, cells, txn = _buffered(cluster)
        victim.crash_after(COMMIT_POSTS)
        space.commit(victim, txn)  # every post lands: the crash comes after
        assert _state(cluster.client("reader"), space, cells) == (NEW, (2, 2))
        assert list(RECOVERY) == list(range(COMMIT_POSTS))

    @pytest.mark.parametrize("posts", range(COMMIT_POSTS))
    def test_recover_ends_old_or_new_idempotently(self, cluster, posts):
        space, victim, cells = _crash_commit(cluster, posts)
        surgeon = cluster.client("surgeon")
        report = space.recover(surgeon, victim.client_id)
        action = RECOVERY[posts][0]
        assert (
            report.action,
            report.slots_released,
            report.cells_written,
            surgeon.metrics.far_accesses,
        ) == RECOVERY[posts]
        assert surgeon.metrics.txn_rollbacks == (action == "rollback")
        assert surgeon.metrics.txn_rollforwards == (action == "rollforward")
        ended = (NEW, (2, 2)) if action == "rollforward" else (OLD, (0, 0))
        assert _state(surgeon, space, cells) == ended
        again = space.recover(surgeon, victim.client_id)
        assert (again.action, again.slots_released) == ("none", 0)
        assert _state(surgeon, space, cells) == ended
        txn = space.begin(surgeon)  # and the cells stay writable
        for addr in cells:
            space.write(surgeon, txn, addr, b"S" * PAYLOAD)
        space.commit(surgeon, txn)
        words = tuple(word + 2 for word in ended[1])
        assert _state(surgeon, space, cells) == ((b"S" * PAYLOAD,) * 2, words)

    def test_unknown_owner_is_a_noop(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        report = space.recover(c1, 999)
        assert report.action == "none"

    def test_healthy_registered_owner_is_a_noop(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        txn = space.begin(c1)
        space.write(c1, txn, a, b"H" * PAYLOAD)
        space.commit(c1, txn)  # clean commit: record tombstoned
        surgeon = cluster.client("surgeon")
        report = space.recover(surgeon, c1.client_id)
        assert report.action == "none"
        _, payload = surgeon.read_verified(a, PAYLOAD)
        assert payload == b"H" * PAYLOAD

    def test_recover_touches_only_its_owners_locks(self, cluster):
        a, b = cluster.client("a"), cluster.client("b")
        space = cluster.txn_space(a)
        cells = seed_cells(cluster, space, a, 4)
        owned = {a: cells[:2], b: cells[2:]}
        for owner, crash_after in ((a, 2), (b, 3)):  # a unsealed, b sealed
            space.register(owner)
            txn = space.begin(owner)
            for addr, payload in zip(owned[owner], NEW):
                space.write(owner, txn, addr, payload)
            owner.crash_after(crash_after)  # 2 locks (and, for b, the seal)
            with pytest.raises(ClientDeadError):
                space.commit(owner, txn)
        surgeon = cluster.client("surgeon")
        held = _state(surgeon, space, owned[b])
        assert all(word & 1 for word in held[1])

        report = space.recover(surgeon, a.client_id)
        assert (report.action, report.slots_released) == ("rollback", 2)
        assert _state(surgeon, space, owned[a]) == (OLD, (0, 0))
        assert _state(surgeon, space, owned[b]) == held, "b's locks are not a's to release"

        report = space.recover(surgeon, b.client_id)
        assert (report.action, report.slots_released) == ("rollforward", 2)
        assert _state(surgeon, space, owned[b]) == (NEW, (2, 2))


class TestRecoverIsResumable:
    @pytest.mark.parametrize(
        "posts, fault_at",
        [(posts, at) for posts, row in RECOVERY.items() for at in range(row[3])],
    )
    def test_fault_at_any_access_then_rerun_ends_like_one_clean_run(
        self, cluster, posts, fault_at
    ):
        space, victim, cells = _crash_commit(cluster, posts)
        surgeon = cluster.client("surgeon", retry_policy=None, breaker_policy=None)
        cluster.inject_faults(plan=FaultPlan().timeout_at(fault_at))
        with pytest.raises(FabricError):
            space.recover(surgeon, victim.client_id)
        cluster.fabric.set_fault_injector(None)

        space.recover(surgeon, victim.client_id)
        action, _, _, accesses = RECOVERY[posts]
        assert _state(surgeon, space, cells) == (
            (NEW, (2, 2)) if action == "rollforward" else (OLD, (0, 0))
        )
        # The victim registered first, so its commit record is frame 0, and
        # it is unsealed again: a tombstone — or, where the owner never
        # sealed and either held no lock or the fault ate the tombstone
        # write itself, the never-written frame recover reads the same way.
        try:
            record = surgeon.read_verified(space.record_addr(0), space.record_capacity)
        except FarCorruptionError:
            last = fault_at == accesses - 1
            assert action == "none" or (action == "rollback" and last)
        else:
            assert record == (0, bytes(space.record_capacity))
        assert space.recover(surgeon, victim.client_id).action == "none"
