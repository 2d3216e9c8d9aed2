"""repro.txn protocol tests: atomic visibility, conflicts, exact
far-access costs (the DESIGN.md §15 commit formula), budgets under the
sanitizer, retry/backoff, stale-epoch aborts, and trace events."""

import pytest

from repro import Transaction, TxnAbortError, TxnConflictError, TxnSpace
from repro.analysis.budget import BudgetSanitizer
from repro.fabric import MigrationWritePolicy
from repro.fabric.integrity import frame_size
from repro.fabric.wire import WORD, decode_u64, encode_u64
from repro.obs import Tracer
from repro.txn.txn import _RUN_RETRY

from .conftest import EXTENT, PAYLOAD, seed_cells, txn_cluster


def _word(client, space, slot):
    return decode_u64(client.read(space.version_addr(slot), WORD))


def _locked(owner_id, version):
    """A held lock word: owner + 1 in the high half, version + 1 low."""
    return ((owner_id + 1) << 32) | (version + 1)


class TestProtocol:
    def test_commit_is_atomic_and_versioned(self, cluster):
        c1 = cluster.client("writer")
        c2 = cluster.client("reader")
        space = cluster.txn_space(c1)
        a, b = seed_cells(cluster, space, c1, 2)

        txn = space.begin(c1)
        space.write(c1, txn, a, b"A" * PAYLOAD)
        space.write(c1, txn, b, b"B" * PAYLOAD)
        # Nothing is visible before commit.
        _, old_a = c2.read_verified(a, PAYLOAD)
        assert old_a == bytes([1]) * PAYLOAD
        space.commit(c1, txn)
        assert txn.state == "committed"

        version_a, new_a = c2.read_verified(a, PAYLOAD)
        version_b, new_b = c2.read_verified(b, PAYLOAD)
        assert (new_a, new_b) == (b"A" * PAYLOAD, b"B" * PAYLOAD)
        # Both guarding words advanced by exactly 2 and are unlocked.
        assert version_a == 2 and version_b == 2
        for addr in (a, b):
            assert _word(c1, space, space.slot_for_addr(addr)) == 2

    def test_read_your_writes_and_read_only_reads(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        txn = space.begin(c1)
        assert space.read(c1, txn, a, PAYLOAD) == bytes([1]) * PAYLOAD
        space.write(c1, txn, a, b"N" * PAYLOAD)
        assert space.read(c1, txn, a, PAYLOAD) == b"N" * PAYLOAD
        space.commit(c1, txn)

    def test_abort_discards_buffered_writes(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        txn = space.begin(c1)
        space.write(c1, txn, a, b"X" * PAYLOAD)
        before = c1.metrics.far_accesses
        space.abort(c1, txn)
        assert c1.metrics.far_accesses == before  # abort is free
        assert txn.state == "aborted"
        assert c1.metrics.txn_aborts == 1
        _, payload = c1.read_verified(a, PAYLOAD)
        assert payload == bytes([1]) * PAYLOAD
        with pytest.raises(TxnAbortError) as err:
            space.read(c1, txn, a, PAYLOAD)
        assert not err.value.retryable

    def test_read_write_conflict_aborts_reader(self, cluster):
        c1 = cluster.client("reader")
        c2 = cluster.client("writer")
        space = cluster.txn_space(c1)
        a, b = seed_cells(cluster, space, c1, 2)

        txn = space.begin(c1)
        space.read(c1, txn, a, PAYLOAD)
        space.write(c1, txn, b, b"B" * PAYLOAD)

        other = space.begin(c2)
        space.write(c2, other, a, b"Z" * PAYLOAD)
        space.commit(c2, other)

        with pytest.raises(TxnConflictError) as err:
            space.commit(c1, txn)
        assert err.value.reason == "version_changed"
        assert c1.metrics.txn_conflicts == 1
        # The aborted writer's lock was restored: slot b is even again.
        assert _word(c1, space, space.slot_for_addr(b)) == 0

    def test_write_write_conflict_fails_lock(self, cluster):
        c1 = cluster.client()
        c2 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)

        txn1 = space.begin(c1)
        space.write(c1, txn1, a, b"1" * PAYLOAD)
        txn2 = space.begin(c2)
        space.write(c2, txn2, a, b"2" * PAYLOAD)
        space.commit(c1, txn1)
        with pytest.raises(TxnConflictError) as err:
            space.commit(c2, txn2)
        assert err.value.reason == "lock_failed"
        # Loser retries cleanly against the new version.
        retry = space.begin(c2, attempt=2)
        assert space.read(c2, retry, a, PAYLOAD) == b"1" * PAYLOAD
        space.write(c2, retry, a, b"2" * PAYLOAD)
        space.commit(c2, retry)
        _, payload = c1.read_verified(a, PAYLOAD)
        assert payload == b"2" * PAYLOAD

    def test_locked_slot_blocks_new_tracker(self, cluster):
        c1 = cluster.client()
        c2 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        slot = space.slot_for_addr(a)
        # Hand-hold the lock the way a mid-commit owner would.
        c1.write_u64(space.version_addr(slot), _locked(c1.client_id, 0))
        txn = space.begin(c2)
        with pytest.raises(TxnConflictError) as err:
            space.read(c2, txn, a, PAYLOAD)
        assert err.value.reason == "locked"

    def test_record_overflow_is_clean_and_final(self, cluster):
        c1 = cluster.client()
        space = TxnSpace.create(
            cluster.allocator, c1, n_slots=16, record_capacity=64
        )
        (a,) = seed_cells(cluster, space, c1, 1)
        txn = space.begin(c1)
        space.write(c1, txn, a, b"x" * PAYLOAD)
        txn.cell_writes[a] = b"y" * 128  # larger than the record
        with pytest.raises(TxnAbortError) as err:
            space.commit(c1, txn)
        assert err.value.reason.startswith("record_overflow")
        assert not err.value.retryable
        assert txn.state == "aborted"
        # Nothing was locked and nothing moved.
        assert _word(c1, space, space.slot_for_addr(a)) == 0

    def test_registration_full_is_clean_and_final(self, cluster):
        c1 = cluster.client()
        c2 = cluster.client()
        space = TxnSpace.create(cluster.allocator, c1, max_clients=1)
        a, b = seed_cells(cluster, space, c1, 2)
        txn = space.begin(c1)
        space.write(c1, txn, a, b"1" * PAYLOAD)
        space.commit(c1, txn)  # claims the only registration slot

        txn2 = space.begin(c2)
        space.write(c2, txn2, b, b"2" * PAYLOAD)
        with pytest.raises(TxnAbortError) as err:
            space.commit(c2, txn2)
        assert err.value.reason == "registration_full"
        assert not err.value.retryable
        assert _word(c1, space, space.slot_for_addr(b)) == 0  # no lock leaked


class TestCommitCost:
    """The §15 formula: commit = W + R + C + W + 2 (warm, registered)."""

    def test_cell_commit_matches_formula(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        a, b, r = seed_cells(cluster, space, c1, 3)
        space.register(c1)  # pre-pay the one-time registration probe

        txn = space.begin(c1)
        space.read(c1, txn, r, PAYLOAD)  # R = 1
        space.write(c1, txn, a, b"A" * PAYLOAD)  # W slots: a, b (distinct
        space.write(c1, txn, b, b"B" * PAYLOAD)  # extents -> 2 runs too)
        before = c1.metrics.far_accesses
        space.commit(c1, txn)
        delta = c1.metrics.far_accesses - before
        W, R, C = 2, 1, 2
        assert delta == W + R + C + W + 2

    def test_contiguous_cells_share_one_scatter(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        base = cluster.allocator.alloc(EXTENT)
        space.init_cell(c1, base, bytes(PAYLOAD))
        space.init_cell(c1, base + frame_size(PAYLOAD), bytes(PAYLOAD))
        space.register(c1)

        txn = space.begin(c1)
        space.write(c1, txn, base, b"a" * PAYLOAD)
        space.write(c1, txn, base + frame_size(PAYLOAD), b"b" * PAYLOAD)
        before = c1.metrics.far_accesses
        space.commit(c1, txn)
        # Same extent: one shared slot (W=1), one contiguous run (C=1).
        assert c1.metrics.far_accesses - before == 1 + 0 + 1 + 1 + 2

    def test_read_only_commit_costs_validation_only(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        a, b = seed_cells(cluster, space, c1, 2)
        txn = space.begin(c1)
        space.read(c1, txn, a, PAYLOAD)
        space.read(c1, txn, b, PAYLOAD)
        before = c1.metrics.far_accesses
        space.commit(c1, txn)
        assert c1.metrics.far_accesses - before == 2  # R, no seal/record

    def test_empty_commit_is_free(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        txn = space.begin(c1)
        before = c1.metrics.far_accesses
        space.commit(c1, txn)
        assert c1.metrics.far_accesses - before == 0
        assert txn.state == "committed"

    def test_budgets_hold_under_sanitizer(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        a, b = seed_cells(cluster, space, c1, 2)
        space.register(c1)
        with BudgetSanitizer() as san:
            txn = space.begin(c1)
            space.read(c1, txn, a, PAYLOAD)
            space.write(c1, txn, b, b"W" * PAYLOAD)
            space.read(c1, txn, b, PAYLOAD)  # buffered: free
            space.commit(c1, txn)
        assert san.records["TxnSpace.read"].max_delta <= 2
        assert san.records["TxnSpace.write"].max_delta <= 1
        assert "TxnSpace.commit" in san.records


class TestComposition:
    def test_context_manager_commits_on_exit(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        with space.transaction(c1) as txn:
            space.write(c1, txn, a, b"C" * PAYLOAD)
        assert txn.state == "committed"
        _, payload = c1.read_verified(a, PAYLOAD)
        assert payload == b"C" * PAYLOAD

    def test_context_manager_aborts_on_exception(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        with pytest.raises(RuntimeError):
            with space.transaction(c1) as txn:
                space.write(c1, txn, a, b"X" * PAYLOAD)
                raise RuntimeError("boom")
        assert txn.state == "aborted"
        _, payload = c1.read_verified(a, PAYLOAD)
        assert payload == bytes([1]) * PAYLOAD

    def test_run_retries_conflicts_with_backoff(self, cluster):
        c1 = cluster.client()
        c2 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        attempts = []

        def body(txn):
            attempts.append(txn.attempt)
            space.read(c1, txn, a, PAYLOAD)
            if len(attempts) == 1:
                # A rival commits between our read and our commit.
                rival = space.begin(c2)
                space.write(c2, rival, a, b"R" * PAYLOAD)
                space.commit(c2, rival)
            space.write(c1, txn, a, b"M" * PAYLOAD)
            return "done"

        assert space.run(c1, body) == "done"
        assert attempts == [1, 2]
        assert c1.metrics.retries == 1
        assert c1.metrics.backoff_ns > 0
        assert c1.metrics.txn_conflicts == 1 and c1.metrics.txn_commits == 1

    def test_run_gives_up_after_max_attempts(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        slot = space.slot_for_addr(a)
        c1.write_u64(space.version_addr(slot), _locked(9, 0))
        with pytest.raises(TxnConflictError):
            space.run(c1, lambda txn: space.read(c1, txn, a, PAYLOAD))
        attempts = _RUN_RETRY.max_attempts
        assert c1.metrics.txn_aborts == attempts
        assert c1.metrics.retries == attempts - 1

    def test_run_does_not_retry_final_aborts(self, cluster):
        c1 = cluster.client()
        space = TxnSpace.create(cluster.allocator, c1, record_capacity=64)
        (a,) = seed_cells(cluster, space, c1, 1)
        calls = []

        def body(txn):
            calls.append(txn.attempt)
            space.write(c1, txn, a, b"x" * PAYLOAD)
            txn.cell_writes[a] = b"y" * 128

        with pytest.raises(TxnAbortError):
            space.run(c1, body)
        assert calls == [1]


class TestStaleEpoch:
    def test_fenced_extent_aborts_cleanly_then_retries(self, cluster):
        c1 = cluster.client()
        space = cluster.txn_space(c1)
        (a,) = seed_cells(cluster, space, c1, 1)
        spare = cluster.add_node()
        table_extent = space.table // EXTENT
        handle = cluster.migration.begin(
            c1, table_extent, spare, policy=MigrationWritePolicy.FENCE
        )
        handle.step()
        txn = space.begin(c1)
        with pytest.raises(TxnAbortError) as err:
            space.read(c1, txn, a, PAYLOAD)
        assert err.value.reason == "stale_epoch"
        assert txn.state == "aborted"
        handle.run()  # migration commits; the epoch fence lifts
        retry = space.begin(c1, attempt=2)
        assert space.read(c1, retry, a, PAYLOAD) == bytes([1]) * PAYLOAD
        space.commit(c1, retry)


class TestTraceEvents:
    def test_commit_and_abort_emit_events(self, cluster):
        c1 = cluster.client()
        tracer = Tracer()
        tracer.attach(c1)
        space = cluster.txn_space(c1)
        a, b = seed_cells(cluster, space, c1, 2)

        txn = space.begin(c1)
        space.read(c1, txn, a, PAYLOAD)
        space.write(c1, txn, b, b"T" * PAYLOAD)
        space.commit(c1, txn)
        space.abort(c1, space.begin(c1), reason="user")

        begin = tracer.events_by_kind("txn_begin")
        assert begin and begin[0].data["txn_id"] == txn.txn_id
        validate = tracer.events_by_kind("txn_validate")
        assert validate[0].data == {
            "txn_id": txn.txn_id,
            "read_slots": 1,
            "write_slots": 1,
            "ok": True,
        }
        commit = tracer.events_by_kind("txn_commit")
        assert commit[0].data["cells"] == 1 and commit[0].data["runs"] == 1
        abort = tracer.events_by_kind("txn_abort")
        assert abort[0].data["reason"] == "user"

    def test_tracing_has_zero_observer_effect(self):
        def workload(traced):
            cluster = txn_cluster()
            c1 = cluster.client("t")
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.attach(c1)
            space = cluster.txn_space(c1)
            a, b = seed_cells(cluster, space, c1, 2)
            txn = space.begin(c1)
            space.read(c1, txn, a, PAYLOAD)
            space.write(c1, txn, b, encode_u64(7))
            space.commit(c1, txn)
            return c1.metrics, c1.clock

        base_metrics, base_clock = workload(traced=False)
        traced_metrics, traced_clock = workload(traced=True)
        assert traced_metrics.as_dict() == base_metrics.as_dict()
        assert traced_clock.now_ns == base_clock.now_ns


class TestExports:
    def test_public_surface(self):
        import repro

        for name in ("Transaction", "TxnAbortError", "TxnConflictError", "TxnSpace"):
            assert name in repro.__all__ and hasattr(repro, name)
        assert issubclass(TxnConflictError, TxnAbortError)
        assert Transaction(txn_id=1, client_id=0).read_only
