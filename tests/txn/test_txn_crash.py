"""Crash-stop tests for every commit phase: a client killed before the
lock, holding locks, after the seal, or mid write-back must leave no
torn state once :meth:`TxnSpace.recover` runs — pre-seal crashes roll
back (old values), post-seal crashes roll forward (new values) — and a
``recover`` that itself dies of a fabric fault is resumed by re-calling it."""

import pytest

from repro.fabric import FaultPlan
from repro.fabric.errors import FabricError, FarCorruptionError
from repro.fabric.wire import WORD, decode_u64

from .conftest import PAYLOAD, seed_cells

OLD = (bytes([1]) * PAYLOAD, bytes([2]) * PAYLOAD)
NEW = (b"A" * PAYLOAD, b"B" * PAYLOAD)


def _crash_commit(cluster, phase):
    """Run a two-cell transaction whose owner crashes at ``phase``;
    returns (space, victim, cells)."""
    victim = cluster.client("victim")
    space = cluster.txn_space(victim)
    cells = seed_cells(cluster, space, victim, 2)

    def hook(at, client):
        if at == phase:
            space.crash_hook = None
            client.crash()

    space.crash_hook = hook
    txn = space.begin(victim)
    for addr, payload in zip(cells, NEW):
        space.write(victim, txn, addr, payload)
    with pytest.raises(FabricError):
        space.commit(victim, txn)
    return space, victim, cells


def _state(client, space, cells):
    payloads = tuple(
        client.read_verified(addr, PAYLOAD)[1] for addr in cells
    )
    words = tuple(
        decode_u64(client.read(space.version_addr(space.slot_for_addr(a)), WORD))
        for a in cells
    )
    return payloads, words


class TestCrashPhases:
    @pytest.mark.parametrize("phase", ["before_lock", "after_lock"])
    def test_pre_seal_crash_rolls_back(self, cluster, phase):
        space, victim, cells = _crash_commit(cluster, phase)
        surgeon = cluster.client("surgeon")
        report = space.recover(surgeon, victim.client_id)
        assert report.action == ("none" if phase == "before_lock" else "rollback")
        payloads, words = _state(surgeon, space, cells)
        assert payloads == OLD, "pre-seal crash must leave old values"
        assert words == (0, 0), "every lock restored to its even version"
        assert report.cells_written == 0
        if phase == "after_lock":
            assert report.slots_released == 2
            assert surgeon.metrics.txn_rollbacks == 1

    @pytest.mark.parametrize("phase", ["after_seal", "mid_writeback"])
    def test_post_seal_crash_rolls_forward(self, cluster, phase):
        space, victim, cells = _crash_commit(cluster, phase)
        surgeon = cluster.client("surgeon")
        report = space.recover(surgeon, victim.client_id)
        assert report.action == "rollforward"
        payloads, words = _state(surgeon, space, cells)
        assert payloads == NEW, "post-seal crash must complete the commit"
        assert words == (2, 2), "every lock advanced past the commit"
        assert report.slots_released == 2
        assert report.cells_written == 2  # idempotent rewrite of both
        assert surgeon.metrics.txn_rollforwards == 1

    @pytest.mark.parametrize("phase", ["after_lock", "after_seal"])
    def test_recovery_is_idempotent(self, cluster, phase):
        space, victim, cells = _crash_commit(cluster, phase)
        surgeon = cluster.client("surgeon")
        first = space.recover(surgeon, victim.client_id)
        assert first.action in ("rollback", "rollforward")
        again = space.recover(surgeon, victim.client_id)
        assert again.action == "none"
        assert again.slots_released == 0
        _, words = _state(surgeon, space, cells)
        assert words == ((0, 0) if phase == "after_lock" else (2, 2))

    def test_cells_stay_writable_after_recovery(self, cluster):
        space, victim, cells = _crash_commit(cluster, "after_lock")
        surgeon = cluster.client("surgeon")
        space.recover(surgeon, victim.client_id)
        txn = space.begin(surgeon)
        for addr in cells:
            space.write(surgeon, txn, addr, b"S" * PAYLOAD)
        space.commit(surgeon, txn)
        payloads, words = _state(surgeon, space, cells)
        assert payloads == (b"S" * PAYLOAD,) * 2
        assert words == (2, 2)

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


#: Far accesses of one uninterrupted ``recover`` per crash phase (two
#: cells in two extents): the registration, table and record reads, then
#: two unlocks (rollback) or two cell reads, two rewrites and two unlocks
#: (roll-forward), then the tombstone.
RECOVER_ACCESSES = {"after_lock": 6, "after_seal": 10, "mid_writeback": 10}


class TestRecoverIsResumable:
    @pytest.mark.parametrize("phase", RECOVER_ACCESSES)
    def test_the_matrix_below_covers_every_access(self, cluster, phase):
        space, victim, _ = _crash_commit(cluster, phase)
        surgeon = cluster.client("surgeon")
        space.recover(surgeon, victim.client_id)
        assert surgeon.metrics.far_accesses == RECOVER_ACCESSES[phase]

    @pytest.mark.parametrize(
        "phase, fault_at",
        [(phase, at) for phase, n in RECOVER_ACCESSES.items() for at in range(n)],
    )
    def test_fault_at_any_access_then_rerun_ends_like_one_clean_run(
        self, cluster, phase, fault_at
    ):
        space, victim, cells = _crash_commit(cluster, phase)
        surgeon = cluster.client("surgeon", retry_policy=None, breaker_policy=None)
        cluster.inject_faults(plan=FaultPlan().timeout_at(fault_at))
        with pytest.raises(FabricError):
            space.recover(surgeon, victim.client_id)
        cluster.fabric.set_fault_injector(None)

        space.recover(surgeon, victim.client_id)
        rolled_back = phase == "after_lock"
        assert _state(surgeon, space, cells) == (
            (OLD, (0, 0)) if rolled_back else (NEW, (2, 2))
        )
        # The victim registered first, so its commit record is frame 0, and
        # it is unsealed again: a tombstone — or, where the owner died
        # before ever sealing and the fault ate the tombstone write itself,
        # the never-written frame that recover reads the same way.
        try:
            record = surgeon.read_verified(space.record_addr(0), space.record_capacity)
        except FarCorruptionError:
            assert (phase, fault_at) == ("after_lock", RECOVER_ACCESSES[phase] - 1)
        else:
            assert record == (0, bytes(space.record_capacity))
        assert space.recover(surgeon, victim.client_id).action == "none"
