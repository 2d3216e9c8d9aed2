"""Offline happens-before race detection over exported traces.

The fabric gives every client one-sided access to the same words; nothing
stops two clients doing plain read-modify-write on a shared counter and
losing an update. This pass replays an exported ``repro-trace-v1`` JSONL
stream (``python -m repro trace <example>``) and reports pairs of far
accesses to the same words, from different clients, where at least one is
a write and *no synchronization orders them* — the classic
happens-before definition of a data race, computed with vector clocks.

Happens-before is built from exactly the synchronization the structures
use:

* **program order** — each client's events in emission order;
* **atomic operations** (``cas``/``faa``/``swap``/``faai``/``saai``/
  ``fsaai``/``add0..2``) — acquire-release on their issue word *and*,
  for indirect ops, on the resolved ``target`` word, so a producer's
  ``saai`` into a queue slot synchronizes with the consumer's ``fsaai``
  out of it (the C5 handoff);
* **reads-from** — a plain read acquires the clock of the write whose
  value it observed (every write publishes its clock on the written
  words), so publish-then-discover flows (write a record, hand its
  pointer over atomically, read it on the other side) are ordered, and
* **notifications acquire** — a delivered notify event joins the
  subscriber's clock with the watched word's publish clock (the write
  that triggered it is then visible, exactly the notifye contract).

Because reads-from edges follow the *observed* interleaving, what
survives is the serious residue: a write concurrent with reads whose
values it may invalidate (the lost update) and blind write-write
conflicts where the second writer never observed the first. Conflicts
where one side is an atomic are reported as warnings (often a deliberate
design point, e.g. version-stamped racy reads); conflicts between two
plain accesses are errors.

Accesses are tracked per 8-byte word. For each word only the most recent
write and the most recent read *per client* are kept (a FastTrack-style
compression): a race with an older access implies one with the newer or
was already reported.

The detector is trace-order deterministic: same trace in, same report
out. Known limits, by construction: scatter/gather extents are taken
from the issue address plus byte counts (iovec gaps are smeared), and
unwatched plain-read visibility is not modeled beyond happens-before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..fabric.ops import FAR_OPS

WORD = 8

#: Ops that synchronize (atomic read-modify-write at the memory node).
ATOMIC_OPS = frozenset(op.name for op in FAR_OPS.values() if op.atomic)

#: Plain ops that read their addressed words.
READ_OPS = frozenset(op.name for op in FAR_OPS.values() if op.reads and not op.atomic)

#: Plain ops that write their addressed words.
WRITE_OPS = frozenset(op.name for op in FAR_OPS.values() if op.writes and not op.atomic)


class VectorClock(dict):
    """client -> logical time; missing entries are 0."""

    def copy(self) -> "VectorClock":
        return VectorClock(self)

    def join(self, other: "VectorClock") -> None:
        for key, value in other.items():
            if value > self.get(key, 0):
                self[key] = value

    def happens_before(self, other: "VectorClock") -> bool:
        return all(value <= other.get(key, 0) for key, value in self.items())


@dataclass(frozen=True)
class Access:
    """One far access to one word by one client."""

    client: str
    op: str
    kind: str  # "read" | "write"
    atomic: bool
    ts_ns: float
    line: int  # 1-indexed JSONL record number, for report anchoring


@dataclass(frozen=True)
class Race:
    """An unsynchronized conflicting pair on one word."""

    word: int
    first: Access
    second: Access
    severity: str  # "error" | "warning"

    def format(self) -> str:
        return (
            f"{self.severity.upper()}: word 0x{self.word * WORD:x}: "
            f"{self.first.client}:{self.first.op}"
            f"{' (atomic)' if self.first.atomic else ''} "
            f"[record {self.first.line}] is concurrent with "
            f"{self.second.client}:{self.second.op}"
            f"{' (atomic)' if self.second.atomic else ''} "
            f"[record {self.second.line}] "
            f"({self.first.kind}-{self.second.kind})"
        )


@dataclass
class _WordState:
    """Per-word access history (compressed) and its release/publish clock.

    ``clock`` carries everything later accesses may acquire from this
    word: atomic releases and the publish clocks of plain writes.
    """

    clock: VectorClock = field(default_factory=VectorClock)
    last_write: Optional[tuple[Access, VectorClock]] = None
    reads: dict[str, tuple[Access, VectorClock]] = field(default_factory=dict)


@dataclass
class RaceReport:
    races: list[Race]
    events_seen: int
    accesses_seen: int
    clients: list[str]

    @property
    def errors(self) -> list[Race]:
        return [race for race in self.races if race.severity == "error"]

    @property
    def warnings(self) -> list[Race]:
        return [race for race in self.races if race.severity == "warning"]

    def format(self, max_rows: int = 40) -> str:
        lines = [
            f"race detector: {self.events_seen} events, "
            f"{self.accesses_seen} word accesses, "
            f"{len(self.clients)} clients ({', '.join(self.clients)})",
        ]
        shown = self.races[:max_rows]
        for race in shown:
            lines.append("  " + race.format())
        if len(self.races) > len(shown):
            lines.append(f"  ... {len(self.races) - len(shown)} more")
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


class RaceDetector:
    """Feed events in trace order; read ``report()`` at the end."""

    def __init__(self) -> None:
        self._clocks: dict[str, VectorClock] = {}
        self._words: dict[int, _WordState] = {}
        self.races: list[Race] = []
        self._reported: set[tuple] = set()
        self.events_seen = 0
        self.accesses_seen = 0

    # -- clock plumbing --------------------------------------------------

    def _clock(self, client: str) -> VectorClock:
        clock = self._clocks.get(client)
        if clock is None:
            clock = self._clocks[client] = VectorClock({client: 1})
        return clock

    def _tick(self, client: str) -> None:
        clock = self._clock(client)
        clock[client] = clock.get(client, 0) + 1

    def _word(self, word: int) -> _WordState:
        state = self._words.get(word)
        if state is None:
            state = self._words[word] = _WordState()
        return state

    # -- event intake ----------------------------------------------------

    def consume(self, record: dict, line: int) -> None:
        if record.get("type") != "event":
            return
        self.events_seen += 1
        kind = record.get("kind")
        if kind == "far_access":
            self._on_far_access(record, line)
        elif kind == "notify":
            self._on_notify(record)

    def _on_far_access(self, record: dict, line: int) -> None:
        client = record.get("client", "?")
        op = record.get("op", "external")
        addr = record.get("addr")
        if addr is None:
            return  # pre-addr trace or an external charge: nothing to key on
        target = record.get("target")
        atomic = bool(record.get("atomic")) or op in ATOMIC_OPS
        self._tick(client)
        clock = self._clock(client)

        if atomic:
            # Acquire-release on the issue word and the resolved target
            # word: this is what orders saai (producer) with fsaai
            # (consumer) even though they issue on different pointers.
            # Join every sync var before releasing into any, or the first
            # release misses components acquired from the second.
            sync_words = {a // WORD for a in (addr, target) if a is not None}
            for word in sync_words:
                clock.join(self._word(word).clock)
            for word in sync_words:
                self._word(word).clock.join(clock)
            self._record_access(
                addr // WORD,
                Access(client, op, "write", True, record.get("ts_ns", 0.0), line),
            )
            if target is not None and target != addr:
                self._record_access(
                    target // WORD,
                    Access(
                        client, op, "write", True, record.get("ts_ns", 0.0), line
                    ),
                )
            return

        reads = op in READ_OPS
        writes = op in WRITE_OPS
        if not reads and not writes:
            return
        access_kind = "write" if writes else "read"
        nbytes = max(
            record.get("nbytes_read", 0), record.get("nbytes_written", 0), WORD
        )
        words = range(addr // WORD, (addr + nbytes + WORD - 1) // WORD)
        # Indirect plain ops (load0/store0...) read the pointer at the
        # issue address and touch the data at ``target``.
        if target is not None:
            self._record_access(
                addr // WORD,
                Access(client, op, "read", False, record.get("ts_ns", 0.0), line),
            )
            words = range(target // WORD, (target + nbytes + WORD - 1) // WORD)
        for word in words:
            self._record_access(
                word,
                Access(
                    client, op, access_kind, False, record.get("ts_ns", 0.0), line
                ),
            )

    def _on_notify(self, record: dict) -> None:
        watch_addr = record.get("watch_addr")
        if watch_addr is None or record.get("outcome") not in (
            None,
            "delivered",
            "coalesced",
        ):
            return
        client = record.get("client", "?")
        self._tick(client)
        clock = self._clock(client)
        clock.join(self._word(watch_addr // WORD).clock)

    # -- the core check --------------------------------------------------

    def _record_access(self, word: int, access: Access) -> None:
        self.accesses_seen += 1
        state = self._word(word)
        clock = self._clock(access.client)

        if access.kind == "write":
            if state.last_write is not None:
                self._check(word, state.last_write, access, clock)
            for other_client, entry in state.reads.items():
                if other_client != access.client:
                    self._check(word, entry, access, clock)
            state.last_write = (access, clock.copy())
            state.reads.clear()
            # Publish: a later reads-from (or notify) acquires this write.
            state.clock.join(clock)
        else:
            # Reads-from: this read observed the last write's value, so
            # the write (and everything it released) is ordered before
            # us. Join first — a read can only race with a *later* write,
            # which the write-side check against ``reads`` catches.
            clock.join(state.clock)
            state.reads[access.client] = (access, clock.copy())

    def _check(
        self,
        word: int,
        prior: tuple[Access, VectorClock],
        access: Access,
        clock: VectorClock,
    ) -> None:
        prior_access, prior_clock = prior
        if prior_access.client == access.client:
            return  # program order
        if prior_access.kind == "read" and access.kind == "read":
            return
        if prior_clock.happens_before(clock):
            return
        severity = (
            "warning" if (prior_access.atomic or access.atomic) else "error"
        )
        key = (
            word,
            prior_access.client,
            prior_access.op,
            access.client,
            access.op,
            severity,
        )
        if key in self._reported:
            return
        self._reported.add(key)
        self.races.append(Race(word, prior_access, access, severity))

    def report(self) -> RaceReport:
        return RaceReport(
            races=list(self.races),
            events_seen=self.events_seen,
            accesses_seen=self.accesses_seen,
            clients=sorted(self._clocks),
        )


def detect_races(records: Iterable[dict]) -> RaceReport:
    """Run the detector over an iterable of ``repro-trace-v1`` records."""
    detector = RaceDetector()
    for line, record in enumerate(records, start=1):
        detector.consume(record, line)
    return detector.report()


def detect_races_in_file(path: str) -> RaceReport:
    """Run the detector over a ``.trace.jsonl`` export; raises
    ``ValueError`` naming the first line that is not JSON."""

    def _iter() -> Iterable[dict]:
        with open(path, "r", encoding="utf-8") as fh:
            for number, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if raw:
                    try:
                        yield json.loads(raw)
                    except json.JSONDecodeError:
                        raise ValueError(f"line {number}: not JSON") from None

    return detect_races(_iter())
