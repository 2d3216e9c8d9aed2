"""Happens-before race detector tests: synthetic traces for each
synchronization edge (atomics, reads-from, notify) plus the seeded racy
example end to end through the CLI."""

import json

from repro.__main__ import main
from repro.analysis import races
from repro.analysis.races import WORD, detect_races, detect_races_in_file
from repro.fabric.ops import FAR_OPS, WORD_OPS


def _access(client, op, addr, *, target=None, atomic=False, ts=0.0):
    record = {
        "type": "event",
        "kind": "far_access",
        "client": client,
        "op": op,
        "addr": addr,
        "atomic": atomic,
        "ts_ns": ts,
    }
    if target is not None:
        record["target"] = target
    return record


def _notify(client, watch_addr, outcome="delivered"):
    return {
        "type": "event",
        "kind": "notify",
        "client": client,
        "watch_addr": watch_addr,
        "outcome": outcome,
    }


COUNTER = 0x100
LOCK = 0x200
DATA = 0x208
HEAD = 0x300
SLOT = 0x308


class TestOpVocabulary:
    def test_every_table_row_is_classified_exactly_once(self):
        # A far_access event's ``op`` field is a table row name; a row in
        # no set would be invisible to the detector.
        sets = (races.ATOMIC_OPS, races.READ_OPS, races.WRITE_OPS)
        for name in FAR_OPS:
            assert sum(name in ops for ops in sets) == 1, name
        assert set().union(*sets) == set(FAR_OPS)

    def test_only_names_a_trace_event_can_carry(self):
        # The word conveniences trace as the op they issue (load0, ...);
        # write_phys traces with no address and is skipped before lookup.
        assert not set(WORD_OPS) & set().union(races.READ_OPS, races.WRITE_OPS)
        assert "write_phys" in races.WRITE_OPS
        report = detect_races(
            [
                _access("c0", "write_phys", None),
                _access("c1", "write_phys", None),
            ]
        )
        assert report.races == [] and report.accesses_seen == 0


class TestRacyTraces:
    def test_lost_update_is_two_errors(self):
        # Both clients read 0, both write 1: the textbook lost update.
        report = detect_races(
            [
                _access("alice", "read_u64", COUNTER),
                _access("bob", "read_u64", COUNTER),
                _access("alice", "write_u64", COUNTER),
                _access("bob", "write_u64", COUNTER),
            ]
        )
        kinds = sorted((r.first.kind, r.second.kind) for r in report.errors)
        assert kinds == [("read", "write"), ("write", "write")]
        assert all(r.word == COUNTER // WORD for r in report.errors)

    def test_blind_write_write_is_an_error(self):
        report = detect_races(
            [
                _access("alice", "write_u64", DATA),
                _access("bob", "write_u64", DATA),
            ]
        )
        assert len(report.errors) == 1
        assert "write-write" in report.errors[0].format()

    def test_atomic_vs_plain_is_a_warning_not_error(self):
        # A designed racy read of an atomically-updated word (the
        # refreshable-vector pattern) is surfaced but not fatal.
        report = detect_races(
            [
                _access("alice", "read_u64", COUNTER),
                _access("bob", "faa", COUNTER, atomic=True),
            ]
        )
        assert report.errors == []
        assert len(report.warnings) == 1


class TestSynchronizedTraces:
    def test_atomic_counter_is_race_free(self):
        report = detect_races(
            [
                _access("alice", "faa", COUNTER, atomic=True),
                _access("bob", "faa", COUNTER, atomic=True),
                _access("bob", "read_u64", COUNTER),
            ]
        )
        assert report.races == []

    def test_mutex_protected_writes_are_race_free(self):
        # Release/acquire through the lock word orders the data writes.
        report = detect_races(
            [
                _access("alice", "cas", LOCK, atomic=True),
                _access("alice", "write_u64", DATA),
                _access("alice", "cas", LOCK, atomic=True),
                _access("bob", "cas", LOCK, atomic=True),
                _access("bob", "write_u64", DATA),
            ]
        )
        assert report.races == []

    def test_reads_from_orders_publish_then_discover(self):
        # bob's read observed alice's write; bob's later write is ordered.
        report = detect_races(
            [
                _access("alice", "write_u64", DATA),
                _access("bob", "read_u64", DATA),
                _access("bob", "write_u64", DATA),
            ]
        )
        assert report.races == []

    def test_queue_handoff_through_slot_target_is_race_free(self):
        # C5: producer saai and consumer fsaai resolve to the same slot
        # word (the ``target``); the handoff orders the plain payload
        # accesses even though the atomics issue on the shared head word.
        report = detect_races(
            [
                _access("producer", "write_u64", SLOT),
                _access("producer", "saai", HEAD, target=SLOT, atomic=True),
                _access("consumer", "fsaai", HEAD, target=SLOT, atomic=True),
                _access("consumer", "read_u64", SLOT),
                _access("consumer", "write_u64", SLOT),
            ]
        )
        assert report.races == []

    def test_notify_acquires_the_watched_word(self):
        racy = [
            _access("writer", "write_u64", DATA),
            _access("watcher", "write_u64", DATA),
        ]
        assert len(detect_races(racy).errors) == 1
        synced = [
            _access("writer", "write_u64", DATA),
            _notify("watcher", DATA),
            _access("watcher", "write_u64", DATA),
        ]
        assert detect_races(synced).races == []


class TestReportAndCli:
    def test_report_counts_and_truncation(self):
        records = [
            _access(client, "write_u64", DATA + i * WORD)
            for i in range(4)
            for client in ("a", "b")
        ]
        report = detect_races(records)
        assert report.events_seen == 8
        assert len(report.errors) == 4
        text = report.format(max_rows=2)
        assert "... 2 more" in text
        assert "4 error(s)" in text

    def test_cli_flags_the_seeded_racy_example(self, tmp_path, capsys):
        assert main(["trace", "lost_update", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        trace = tmp_path / "lost_update.trace.jsonl"
        assert main(["races", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out

        # The library sees the same thing: the racy half and only it.
        report = detect_races_in_file(str(trace))
        assert len(report.errors) == 2
        assert {r.first.op for r in report.errors} <= {"read_u64", "write_u64"}

    def test_cli_passes_a_clean_trace(self, tmp_path, capsys):
        clean = tmp_path / "clean.trace.jsonl"
        records = [
            _access("alice", "faa", COUNTER, atomic=True),
            _access("bob", "faa", COUNTER, atomic=True),
            _access("bob", "read_u64", COUNTER),
        ]
        clean.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["races", str(clean)]) == 0
        assert "0 error(s)" in capsys.readouterr().out
