"""Optimistic one-sided transactions with a crash-recoverable commit.

The paper's structures are each single-op atomic; this module adds
multi-word, multi-structure atomicity in the style of Storm's
transactional dataplane, built entirely from the one-sided primitives
the fabric already meters.

Concurrency control is optimistic (OCC). A :class:`TxnSpace` owns a
table of **version/lock words**, one per hash slot; every transactional
address maps to a slot via its extent (``slot_for_addr``), and every
transactional KV key via its store tag + key hash (``slot_for_key``).
A word is *unlocked* when even (the value is the slot's version) and
*locked* when odd (``(owner_id + 1) << 32 | version + 1``). Reads
record the slot version in the transaction's read set; writes are
buffered locally. Nothing is visible to other clients before commit.

Commit is a pipelined protocol (DESIGN.md §15):

1. **Lock** — one CAS per write slot (sorted order, one completion-
   queue window): ``version -> locked(owner, version)``.
2. **Validate** — one zero-delta FAA per read-only slot, batched in one
   window; the atomic read doubles as a release of the reader's clock
   into the word, so the race detector orders every committed write
   after the reads it invalidates.
3. **Seal** — the whole write set (lock expectations, framed cell
   payloads, KV region pointers) is written as ONE framed commit
   record; the CRC is the seal, so a torn record *is* an unsealed
   record. After the fence behind the seal the transaction is
   logically committed.
4. **Write-back** — dirty cells are grouped into contiguous runs and
   scattered (``wscatter``) with integrity framing; buffered KV pairs
   are applied via ``HTTree.multistore``.
5. **Unlock** — each write slot advances to ``version + 2`` (plain
   writes, pipelined), then the record is cleared to a tombstone.

A crash anywhere mid-commit is recoverable by a
``RepairCoordinator``-style scan (:meth:`TxnSpace.recover`): if the
crashed owner's record is sealed the write set rolls **forward**
(idempotently — already-unlocked slots are skipped), otherwise the
held locks roll **back** to their pre-lock versions; either way no
torn state survives. ``StaleEpochError`` from a migrating extent
aborts the transaction cleanly before the seal (FENCE raises before
any byte moves), so a transaction never writes through a stale
placement.

Far-access cost of a warm cell-only commit (client already
registered), with W write slots, R read-only slots, and C contiguous
dirty runs::

    commit = W (lock CAS) + R (validate FAA) + C (write-back scatters)
             + W (unlocks) + 2 (record seal + clear)

``bench_a11_txn.py`` asserts this formula against the live metrics and
the fmcost certificate. The first commit by a client additionally pays
the registration CAS probe(s); KV write-back adds the index upsert
cost (and bypasses the store's ``ops_counter``, which counts the
non-transactional API).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from ..analysis.budget import far_budget
from ..fabric.errors import (
    FabricError,
    FarCorruptionError,
    StaleEpochError,
)
from ..fabric.integrity import frame_block, frame_size
from ..fabric.wire import U64, WORD, Layout, encode_u64, unpack_words

if TYPE_CHECKING:
    from ..alloc.allocator import FarAllocator, PlacementHint
    from ..fabric.client import Client

# The commit record, inside one frame: RECORD, n_locks x LOCK, a count
# word, that many (CELL + payload bytes), a count word, that many KV_PUT.
RECORD = Layout("seq n_locks")
LOCK = Layout("slot expected")
CELL = Layout("addr length")
KV_PUT = Layout("tag key_hash region")


class TxnAbortError(FabricError):
    """The transaction aborted; ``retryable`` says whether a fresh
    attempt can succeed (conflicts and epoch fences: yes; a write set
    that overflows the commit record: no)."""

    def __init__(
        self,
        reason: str,
        *,
        slot: Optional[int] = None,
        retryable: bool = True,
    ) -> None:
        detail = f" (slot {slot})" if slot is not None else ""
        super().__init__(f"transaction aborted: {reason}{detail}")
        self.reason = reason
        self.slot = slot
        self.retryable = retryable


class TxnConflictError(TxnAbortError):
    """Optimistic validation failed: a slot in the read or write set
    changed (or was locked) since the transaction first observed it."""


@dataclass
class _KvWrite:
    """A buffered transactional KV put (region already written, index
    pointer deferred to commit write-back)."""

    store: Any
    key: str
    value: bytes
    region: int
    slot: int


@dataclass
class Transaction:
    """A single optimistic attempt: read set + buffered write set.

    ``snapshots`` maps version-word slot -> the even version observed
    when the transaction first touched the slot; ``cell_writes`` maps
    framed-cell address -> buffered payload; ``kv_puts`` maps
    ``(store_tag, key_hash)`` -> buffered KV write.
    """

    txn_id: int
    client_id: int
    attempt: int = 1
    state: str = "open"
    snapshots: dict[int, int] = field(default_factory=dict)
    cell_writes: dict[int, bytes] = field(default_factory=dict)
    kv_puts: dict[tuple[int, int], _KvWrite] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.state == "open"

    @property
    def read_only(self) -> bool:
        return not self.cell_writes and not self.kv_puts

    def buffer_kv(
        self,
        *,
        store: Any,
        key: str,
        key_hash: int,
        value: bytes,
        region: int,
        slot: int,
    ) -> None:
        """Record a buffered KV put (called by ``FarKVStore.txn_*``; the
        region bytes are already written, the index pointer is deferred
        to commit write-back)."""
        self.kv_puts[(store.txn_tag, key_hash)] = _KvWrite(
            store=store,
            key=key,
            value=value,
            region=region,
            slot=slot,
        )


@dataclass
class TxnRecoveryReport:
    """What :meth:`TxnSpace.recover` found and did for one owner."""

    owner_id: int
    action: str  # "none" | "rollback" | "rollforward"
    slots_released: int = 0
    cells_written: int = 0
    kv_replayed: int = 0


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: deterministic slot hashing (never Python's
    salted ``hash``, which would desynchronise slots across runs)."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


_VERSION_MASK = 0xFFFFFFFF


class TxnSpace:
    """A shared arena of version/lock words + per-client commit records.

    One space serializes transactions over any set of framed cells
    (:meth:`init_cell`) and any transactional :class:`FarKVStore` ops
    routed through it. All state lives in far memory; any client that
    can reach the fabric can run, commit, and *recover* transactions.
    """

    def __init__(
        self,
        allocator: "FarAllocator",
        *,
        table: int,
        n_slots: int,
        reg_base: int,
        max_clients: int,
        records_base: int,
        record_capacity: int,
    ) -> None:
        self.allocator = allocator
        self.table = table
        self.n_slots = n_slots
        self.reg_base = reg_base
        self.max_clients = max_clients
        self.records_base = records_base
        self.record_capacity = record_capacity
        self.extent_size = allocator.fabric.extents.extent_size
        # client_id -> registration slot (a local cache of a far claim).
        self._reg_slots: dict[int, int] = {}
        self._next_seq = 0
        # Crash-injection seam for the recovery tests: called with
        # (phase, client) at "before_lock" / "after_lock" /
        # "after_seal" / "mid_writeback". No-op in production.
        self.crash_hook: Optional[Callable[[str, "Client"], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        allocator: "FarAllocator",
        client: "Client",
        *,
        n_slots: int = 64,
        max_clients: int = 8,
        record_capacity: int = 2048,
        hint: Optional["PlacementHint"] = None,
    ) -> "TxnSpace":
        """Provision the version-word table, the registration array and
        the commit-record slab (two far writes zero the hot words; the
        record slab needs none — an all-zero frame never verifies, which
        reads as "no sealed record")."""
        table = allocator.alloc_words(n_slots, hint)
        reg_base = allocator.alloc_words(max_clients, hint)
        records_base = allocator.alloc(
            max_clients * frame_size(record_capacity), hint
        )
        client.write(table, bytes(n_slots * WORD))
        client.write(reg_base, bytes(max_clients * WORD))
        return cls(
            allocator,
            table=table,
            n_slots=n_slots,
            reg_base=reg_base,
            max_clients=max_clients,
            records_base=records_base,
            record_capacity=record_capacity,
        )

    @far_budget(None)
    def register(self, client: "Client") -> int:
        """Claim (or re-find) this client's registration slot, which
        names its commit-record address. Cached locally after the first
        call; the far claim survives the client crashing, so recovery
        can locate the crashed owner's record."""
        cached = self._reg_slots.get(client.client_id)
        if cached is not None:
            return cached
        marker = client.client_id + 1
        for index in range(self.max_clients):
            old, ok = client.cas(self.reg_base + index * WORD, 0, marker)
            if ok or old == marker:
                self._reg_slots[client.client_id] = index
                return index
        raise TxnAbortError("registration_full", retryable=False)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def version_addr(self, slot: int) -> int:
        """Far address of a slot's version/lock word."""
        return self.table + slot * WORD

    def record_addr(self, reg_slot: int) -> int:
        """Far address of a registered client's commit-record frame."""
        return self.records_base + reg_slot * frame_size(self.record_capacity)

    def slot_for_addr(self, address: int) -> int:
        """Version-word slot guarding ``address`` (per-extent mapping:
        every cell in one extent shares a slot, so a migrating extent
        conflicts as a unit)."""
        return _mix64(address // self.extent_size) % self.n_slots

    def slot_for_key(self, store_tag: int, key_hash: int) -> int:
        """Version-word slot guarding one KV key of one store."""
        return _mix64(store_tag ^ _mix64(key_hash)) % self.n_slots

    @staticmethod
    def locked_word(owner_id: int, version: int) -> int:
        """The odd lock encoding: owner in the high half, version+1 low."""
        return ((owner_id + 1) << 32) | ((version + 1) & _VERSION_MASK)

    # ------------------------------------------------------------------
    # Transaction body
    # ------------------------------------------------------------------

    def begin(self, client: "Client", *, attempt: int = 1) -> Transaction:
        """Open a transaction (purely local: no far access)."""
        self._next_seq += 1
        txn = Transaction(
            txn_id=((client.client_id + 1) << 20) | (self._next_seq & 0xFFFFF),
            client_id=client.client_id,
            attempt=attempt,
        )
        tracer = client._tracer
        if tracer is not None:
            tracer.emit(client, "txn_begin", txn_id=txn.txn_id, attempt=attempt)
        return txn

    @far_budget(1, ceiling=1)
    def init_cell(self, client: "Client", address: int, payload: bytes) -> None:
        """Seed a framed cell outside any transaction (one far write).
        The cell occupies ``frame_size(len(payload))`` bytes."""
        client.write_framed(address, payload, version=0)

    @far_budget(0, ceiling=1)
    def track_slot(self, client: "Client", txn: Transaction, slot: int) -> int:
        """Record ``slot``'s current version in the read set (one FAA;
        free if already tracked). The zero-delta FAA is atomic on the
        version word, which *releases* everything this client read so
        far into the word — a later writer's lock CAS acquires it, so
        committed writes are ordered after the reads they invalidate."""
        self._require_open(txn)
        prior = txn.snapshots.get(slot)
        if prior is not None:
            return prior
        try:
            word = client.faa(self.version_addr(slot), 0)
        except StaleEpochError as err:
            self._abort_for(client, txn, "stale_epoch", err)
        if word & 1:
            self._conflict(client, txn, "locked", slot)
        txn.snapshots[slot] = word
        return word

    @far_budget(0, ceiling=2)
    def read(
        self, client: "Client", txn: Transaction, address: int, payload_len: int
    ) -> bytes:
        """Transactionally read a framed cell: buffered writes are
        returned directly (read-your-writes, no far access); otherwise
        one verified read + the slot's tracking FAA."""
        self._require_open(txn)
        buffered = txn.cell_writes.get(address)
        if buffered is not None:
            return buffered
        slot = self.slot_for_addr(address)
        revalidate = slot in txn.snapshots
        try:
            _, payload = client.read_verified(address, payload_len)
        except StaleEpochError as err:
            self._abort_for(client, txn, "stale_epoch", err)
        if revalidate:
            # The slot was already tracked: the cell read above is only
            # serializable if the slot still holds the snapshot version.
            try:
                word = client.faa(self.version_addr(slot), 0)
            except StaleEpochError as err:
                self._abort_for(client, txn, "stale_epoch", err)
            if word != txn.snapshots[slot]:
                self._conflict(client, txn, "version_changed", slot)
        else:
            self.track_slot(client, txn, slot)
        return payload

    @far_budget(0, ceiling=1)
    def write(
        self, client: "Client", txn: Transaction, address: int, payload: bytes
    ) -> None:
        """Buffer a framed-cell write (visible to this transaction's own
        reads only). The slot is tracked so commit knows the version its
        lock CAS must expect."""
        self._require_open(txn)
        self.track_slot(client, txn, self.slot_for_addr(address))
        txn.cell_writes[address] = bytes(payload)

    def abort(
        self, client: "Client", txn: Transaction, *, reason: str = "user"
    ) -> None:
        """Abort: drop buffered writes, free any buffered KV regions
        (they were never reachable), count + trace. No far access."""
        if not txn.is_open:
            return
        txn.state = "aborted"
        for write in txn.kv_puts.values():
            write.store.blobs.allocator.free(write.region)
        client.metrics.txn_aborts += 1
        tracer = client._tracer
        if tracer is not None:
            tracer.emit(
                client, "txn_abort", txn_id=txn.txn_id, reason=reason, attempt=txn.attempt
            )

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------

    @far_budget(0, claim="C2")
    def commit(self, client: "Client", txn: Transaction) -> None:
        """Run the five-phase commit (module docstring has the cost
        formula). Pre-seal failures abort cleanly (locks restored);
        once the record's fence lands the transaction is logically
        committed and any later crash is completed by :meth:`recover`.
        """
        self._require_open(txn)
        if not txn.snapshots and txn.read_only:
            self._finish_commit(client, txn, runs=0)
            return
        write_slots = self._write_slots(txn)
        read_only = sorted(set(txn.snapshots) - set(write_slots))
        reg_slot = 0
        record = b""
        if write_slots:
            # Encode + register BEFORE taking any lock: an oversized
            # write set aborts with nothing to undo, and a crash while
            # holding locks is guaranteed to leave a registration slot
            # recovery can find the commit record by.
            try:
                record = self._encode_record(txn, write_slots)
                reg_slot = self.register(client)
            except TxnAbortError as err:
                self.abort(client, txn, reason=err.reason)
                raise

        acquired: list[tuple[int, int]] = []
        self._checkpoint("before_lock", client)
        if write_slots:
            acquired = self._lock_phase(client, txn, write_slots)
        self._checkpoint("after_lock", client)
        self._validate_phase(client, txn, read_only, write_slots, acquired)
        if not write_slots:
            self._finish_commit(client, txn, runs=0)
            return

        try:
            client.write_framed(
                self.record_addr(reg_slot), record, version=txn.txn_id
            )
            client.fence()  # the seal: past this point we roll forward
        except StaleEpochError as err:
            # FENCE raises before any byte moves: the seal never landed.
            self._release(client, acquired)
            self._abort_for(client, txn, "stale_epoch", err)
        self._checkpoint("after_seal", client)

        runs = self._writeback_phase(client, txn)
        if txn.kv_puts:
            puts = sorted(txn.kv_puts.items())
            entries = [(tag, key_hash, write.region) for (tag, key_hash), write in puts]
            stores = {tag: write.store for (tag, _), write in reversed(puts)}  # first put's handle
            self._apply_kv(client, entries, stores)
        client.fence()  # write-back durable before the locks advance
        self._set_versions(client, acquired, plus=2)
        client.write_framed(
            self.record_addr(reg_slot), bytes(self.record_capacity), version=0
        )
        self._finish_commit(client, txn, runs=runs)

    def _finish_commit(self, client: "Client", txn: Transaction, *, runs: int) -> None:
        txn.state = "committed"
        client.metrics.txn_commits += 1
        if client._tracer is not None:
            client._tracer.emit(
                client,
                "txn_commit",
                txn_id=txn.txn_id,
                cells=len(txn.cell_writes),
                kv_pairs=len(txn.kv_puts),
                runs=runs,
            )

    def _write_slots(self, txn: Transaction) -> list[int]:
        slots = {self.slot_for_addr(addr) for addr in txn.cell_writes}
        slots.update(write.slot for write in txn.kv_puts.values())
        missing = slots - set(txn.snapshots)
        assert not missing, f"write slots without snapshots: {missing}"
        return sorted(slots)

    def _lock_phase(
        self, client: "Client", txn: Transaction, write_slots: list[int]
    ) -> list[tuple[int, int]]:
        """CAS every write slot from its snapshot version to the locked
        word, pipelined in one window. On any conflict or fabric fault
        the acquired subset is restored and the transaction aborts."""
        owner, snapshots = txn.client_id, txn.snapshots
        calls = [
            (self.version_addr(slot), snapshots[slot], self.locked_word(owner, snapshots[slot]))
            for slot in write_slots
        ]
        outcomes = self._post(client, "cas", calls)
        acquired: list[tuple[int, int]] = []
        failed = []
        for slot, outcome in zip(write_slots, outcomes):
            # A CAS that swapped saw the snapshot; a fault never equals it.
            if outcome == (snapshots[slot], True):
                acquired.append((slot, snapshots[slot]))
            else:
                failed.append(slot)
        if failed:
            self._fail_phase(client, txn, "lock_failed", acquired, outcomes, failed[0])
        return acquired

    def _validate_phase(
        self,
        client: "Client",
        txn: Transaction,
        read_only: list[int],
        write_slots: list[int],
        acquired: list[tuple[int, int]],
    ) -> None:
        """Re-read every read-only slot's version word (zero-delta FAAs,
        one window); any drift from the snapshot aborts. Write slots
        need no re-check — their lock CAS validated atomically."""
        outcomes = self._post(client, "faa", [(self.version_addr(slot), 0) for slot in read_only])
        failed = []
        for slot, outcome in zip(read_only, outcomes):
            # A fault never equals a snapshot version: it fails its slot too.
            if outcome != txn.snapshots[slot]:
                failed.append(slot)
        if client._tracer is not None:
            client._tracer.emit(
                client,
                "txn_validate",
                txn_id=txn.txn_id,
                read_slots=len(read_only),
                write_slots=len(write_slots),
                ok=not failed,
            )
        if failed:
            self._fail_phase(client, txn, "version_changed", acquired, outcomes, failed[0])

    def _fail_phase(
        self,
        client: "Client",
        txn: Transaction,
        conflict: str,
        acquired: list[tuple[int, int]],
        outcomes: list[Any],
        slot: int,
    ) -> None:
        """The lock / validate failure tail: restore the acquired locks, then
        abort — on a captured fault (the last one, raised as the cause) as
        ``stale_epoch`` or ``fabric_fault``, otherwise as the phase's
        ``conflict`` at ``slot``, its first failing slot."""
        self._release(client, acquired)
        faults = [outcome for outcome in outcomes if isinstance(outcome, FabricError)]
        if faults:
            fault = faults[-1]
            reason = "stale_epoch" if isinstance(fault, StaleEpochError) else "fabric_fault"
            self._abort_for(client, txn, reason, fault)
        self._conflict(client, txn, conflict, slot)

    def _writeback_phase(self, client: "Client", txn: Transaction) -> int:
        """Scatter the buffered cells as framed blocks, one ``wscatter``
        per *contiguous ascending run* (exact address coverage, so the
        race detector's write smear matches what was written)."""
        runs = self._runs(txn)
        futures = []
        for index, (iovec, data) in enumerate(runs):
            if index:
                self._checkpoint("mid_writeback", client)
            futures.append(client.submit("wscatter", iovec, data, signaled=False))
        for future in futures:
            future.result()
        return len(runs)

    def _runs(self, txn: Transaction) -> list[tuple[list[tuple[int, int]], bytes]]:
        runs: list[tuple[list[tuple[int, int]], bytes]] = []
        iovec: list[tuple[int, int]] = []
        data = bytearray()
        next_addr: Optional[int] = None
        for addr in sorted(txn.cell_writes):
            payload = txn.cell_writes[addr]
            version = txn.snapshots[self.slot_for_addr(addr)] + 2
            frame = frame_block(payload, version)
            if next_addr is not None and addr != next_addr:
                runs.append((iovec, bytes(data)))
                iovec, data = [], bytearray()
            iovec.append((addr, len(frame)))
            data += frame
            next_addr = addr + len(frame)
        if iovec:
            runs.append((iovec, bytes(data)))
        return runs

    @staticmethod
    def _apply_kv(client: "Client", entries: list[tuple[int, int, int]], stores: dict) -> None:
        """Flip sealed KV index pointers, commit write-back and roll-forward
        alike: ``entries`` are ``(tag, key_hash, region)`` in record order
        (each region was written at buffer time and fenced with the seal);
        one ``multistore`` per tag, ascending, through ``stores[tag]``."""
        by_tag: dict[int, list[tuple[int, int]]] = {}
        for tag, key_hash, region in entries:
            by_tag.setdefault(tag, []).append((key_hash, region))
        for tag in sorted(by_tag):
            if tag not in stores:
                raise ValueError(
                    f"sealed record references store tag {tag}; "
                    "pass stores={tag: FarKVStore} to recover it"
                )
            stores[tag].index.multistore(client, by_tag[tag])

    def _release(self, client: "Client", acquired: list[tuple[int, int]]) -> None:
        """Best-effort restore of pre-lock versions on the abort path
        (ABA-safe: nothing is written before the seal, so restoring the
        identical even version is correct)."""
        if not acquired:
            return
        try:
            self._set_versions(client, acquired)
        except FabricError:
            # Advisory: if the fabric is unreachable the locks stay held
            # and recover() rolls them back from the (unsealed) record.
            pass

    def _set_versions(self, client: "Client", pairs: list[tuple[int, int]], plus: int = 0) -> None:
        """Write ``version + plus`` to each ``(slot, version)`` pair's word in
        one window: ``plus=2`` unlocks past a commit (commit, roll forward),
        ``plus=0`` restores the pre-lock version (release, roll back)."""
        calls = [(self.version_addr(slot), version + plus) for slot, version in pairs]
        self._post(client, "write_u64", calls, capture=False)

    @staticmethod
    def _post(client: "Client", op: str, calls: list[tuple], *, capture: bool = True) -> list[Any]:
        """Submit one phase's unsignaled ``op`` calls (an argument tuple each)
        in one window, then reap them in order, each into its value or the
        :class:`FabricError` it failed with — or, with ``capture=False`` (ops
        that must all land), raise the first fault. A failed submit raises."""
        outcomes: list[Any] = [client.submit(op, *args, signaled=False) for args in calls]
        for index, future in enumerate(outcomes):
            try:
                outcomes[index] = future.result()
            except FabricError as err:
                if not capture:
                    raise
                outcomes[index] = err
        return outcomes

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @far_budget(None, claim="C2")
    @contextmanager
    def transaction(
        self, client: "Client", *, attempt: int = 1
    ) -> Iterator[Transaction]:
        """Single-attempt transaction scope: commit on clean exit, abort
        on any exception. Compose with :meth:`run` for bounded retry."""
        txn = self.begin(client, attempt=attempt)
        try:
            yield txn
        except BaseException:
            self.abort(client, txn, reason="exception")
            raise
        self.commit(client, txn)

    @far_budget(None, claim="C2")
    def run(
        self,
        client: "Client",
        fn: Callable[[Transaction], Any],
        *,
        max_attempts: int = 8,
        base_backoff_ns: int = 2_000,
        max_backoff_ns: int = 200_000,
    ) -> Any:
        """Run ``fn(txn)`` with bounded abort/retry. Conflicts back off
        exponentially with deterministic jitter; the backoff is charged
        through the client's clock the same way the fabric retry ladder
        charges its own, so it folds into the op's window charge."""
        last: Optional[TxnAbortError] = None
        for attempt in range(1, max_attempts + 1):
            txn = self.begin(client, attempt=attempt)
            try:
                result = fn(txn)
                self.commit(client, txn)
                return result
            except TxnAbortError as err:
                self.abort(client, txn, reason=err.reason)
                if not err.retryable:
                    raise
                last = err
                if attempt < max_attempts:
                    backoff = min(
                        base_backoff_ns * (1 << (attempt - 1)), max_backoff_ns
                    )
                    jitter = (
                        (client.client_id * 1_000_003 + attempt * 7_919) % 997
                    ) / 997.0
                    delay = backoff * (0.5 + 0.5 * jitter)
                    client.metrics.retries += 1
                    client.metrics.backoff_ns += int(delay)
                    client._advance(delay)
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @far_budget(None)
    def recover(
        self,
        client: "Client",
        owner_id: int,
        *,
        stores: Optional[dict[int, Any]] = None,
    ) -> TxnRecoveryReport:
        """Complete or undo a crashed owner's in-flight commit.

        RepairCoordinator-style scan: one batched read each of the
        registration array and the version-word table finds the locks
        the owner still holds; the owner's commit record decides the
        direction. Sealed (CRC verifies, nonzero sequence) -> roll
        **forward**: rewrite the recorded cells whose slots are still
        locked, replay the recorded KV pairs (``stores`` maps store tag
        -> FarKVStore) when no unlock had started, then advance those
        locks. Unsealed or torn -> roll **back**: restore every held
        lock to its pre-lock version (the write set never touched far
        memory before the seal). Idempotent: already-unlocked slots are
        skipped, so recovering twice (or racing a slow-but-alive owner's
        own completion) is harmless.
        """
        reg = client.read(self.reg_base, self.max_clients * WORD)
        reg_slot = None
        for index, marker in enumerate(unpack_words(reg)):
            if marker == owner_id + 1:
                reg_slot = index
                break
        if reg_slot is None:
            return TxnRecoveryReport(owner_id=owner_id, action="none")

        table = client.read(self.table, self.n_slots * WORD)
        held: dict[int, int] = {}
        for slot, word in enumerate(unpack_words(table)):
            if word & 1 and (word >> 32) == owner_id + 1:
                held[slot] = (word & _VERSION_MASK) - 1

        sealed = None
        try:
            seq, payload = client.read_verified(
                self.record_addr(reg_slot), self.record_capacity
            )
            if seq:
                sealed = self._decode_record(payload)
        except FarCorruptionError:
            sealed = None  # torn or never-written record == unsealed

        if sealed is None and not held:
            return TxnRecoveryReport(owner_id=owner_id, action="none")

        report = TxnRecoveryReport(
            owner_id=owner_id,
            action="rollback" if sealed is None else "rollforward",
        )
        if sealed is None:
            self._set_versions(client, sorted(held.items()))
            report.slots_released = len(held)
            client.metrics.txn_rollbacks += 1
        else:
            locks, cells, kv_entries = sealed
            still = {slot: expected for slot, expected in locks if held.get(slot) == expected}
            targets = [cell for cell in cells if self.slot_for_addr(cell[0]) in still]
            # Read each cell before rewriting it: the read observes —
            # and therefore orders the rewrite after — any write-back
            # the crashed owner already landed there, so the idempotent
            # rewrite is synchronized, not a blind overwrite.
            reads = [(addr, frame_size(len(payload))) for addr, payload in targets]
            self._post(client, "read", reads, capture=False)
            writes = [
                (addr, frame_block(payload, still[self.slot_for_addr(addr)] + 2))
                for addr, payload in targets
            ]
            self._post(client, "write", writes, capture=False)
            report.cells_written = len(targets)
            if kv_entries and len(still) == len(locks):
                # No unlock had started, so the KV pointers may be
                # missing; replaying the multistore is idempotent.
                self._apply_kv(client, kv_entries, stores or {})
                report.kv_replayed = len(kv_entries)
            client.fence()  # rolled-forward bytes land before the unlocks
            self._set_versions(client, sorted(still.items()), plus=2)
            report.slots_released = len(still)
            client.metrics.txn_rollforwards += 1

        client.write_framed(
            self.record_addr(reg_slot), bytes(self.record_capacity), version=0
        )
        return report

    # ------------------------------------------------------------------
    # Commit record codec
    # ------------------------------------------------------------------

    def _encode_record(self, txn: Transaction, write_slots: list[int]) -> bytes:
        """``seq | locks | framed-cell payloads | kv triples``, padded to
        ``record_capacity`` (fixed-size frames keep the tombstone and
        the sealed record byte-compatible at the reader)."""
        parts = [RECORD.pack(txn.txn_id, len(write_slots))]
        for slot in write_slots:
            parts.append(LOCK.pack(slot, txn.snapshots[slot]))
        parts.append(encode_u64(len(txn.cell_writes)))
        for addr in sorted(txn.cell_writes):
            payload = txn.cell_writes[addr]
            parts.append(CELL.pack(addr, len(payload)))
            parts.append(payload)
        parts.append(encode_u64(len(txn.kv_puts)))
        for (tag, key_hash), write in sorted(txn.kv_puts.items()):
            parts.append(KV_PUT.pack(tag, key_hash, write.region))
        blob = b"".join(parts)
        if len(blob) > self.record_capacity:
            raise TxnAbortError(
                f"record_overflow ({len(blob)} > {self.record_capacity} bytes)",
                retryable=False,
            )
        return blob + bytes(self.record_capacity - len(blob))

    @staticmethod
    def _decode_record(
        payload: bytes,
    ) -> tuple[
        list[tuple[int, int]],
        list[tuple[int, bytes]],
        list[tuple[int, int, int]],
    ]:
        _seq, n_locks = RECORD.unpack_from(payload)  # authoritative seq: the frame version
        offset = RECORD.size
        locks = []
        for _ in range(n_locks):
            locks.append(LOCK.unpack_from(payload, offset))
            offset += LOCK.size
        (n_cells,) = U64.unpack_from(payload, offset)
        offset += U64.size
        cells = []
        for _ in range(n_cells):
            addr, length = CELL.unpack_from(payload, offset)
            offset += CELL.size
            cells.append((addr, payload[offset : offset + length]))
            offset += length
        (n_kv,) = U64.unpack_from(payload, offset)
        offset += U64.size
        kv_entries = []
        for _ in range(n_kv):
            kv_entries.append(KV_PUT.unpack_from(payload, offset))
            offset += KV_PUT.size
        return locks, cells, kv_entries

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _checkpoint(self, phase: str, client: "Client") -> None:
        if self.crash_hook is not None:
            self.crash_hook(phase, client)

    @staticmethod
    def _require_open(txn: Transaction) -> None:
        if not txn.is_open:
            raise TxnAbortError(
                f"transaction already {txn.state}", retryable=False
            )

    def _conflict(
        self,
        client: "Client",
        txn: Transaction,
        reason: str,
        slot: Optional[int],
    ) -> None:
        client.metrics.txn_conflicts += 1
        self.abort(client, txn, reason=reason)
        raise TxnConflictError(reason, slot=slot)

    def _abort_for(
        self, client: "Client", txn: Transaction, reason: str, cause: Exception
    ) -> None:
        self.abort(client, txn, reason=reason)
        raise TxnAbortError(reason) from cause
