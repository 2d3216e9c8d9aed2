"""The six wallclock workloads: seeded inputs, set-up, the timed request loop, the oracle.

Every workload is a closed loop driven by one thread. ``generate`` turns the
seed into plain data before any timing starts; ``setup`` builds a fresh
cluster, preloads it and returns the :class:`Run` (this is what ``setup_s``
times); ``execute`` issues a slice of the generated requests back-to-back
and is the only thing inside a timed chunk; ``verify`` replays the oracle
afterwards.

A *request* is one driver-level call. It is usually one *op*; a
``raw_fabric`` window request posts ``WINDOW_DEPTH`` far ops and a
``txn_transfer`` round commits two transfers, so ops are counted per request.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro import Cluster, TxnAbortError
from repro.fabric.client import Client
from repro.fabric.errors import FabricError
from repro.fabric.faults import FaultPlan
from repro.fabric.retry import BreakerPolicy, RetryPolicy
from repro.fabric.wire import WORD, decode_u64, encode_u64, wrap_add
from repro.obs import TelemetryRegistry, Tracer

ZIPF_S = 1.1
# The rank -> key permutation is the same for every seed. Measured on
# kv_read (1 500 keys, 6 000 requests): the hottest key takes 17.7 % of the
# requests, the second 8.1 %, the third 5.0 % (model: 17.3 / 8.1 / 5.2 %), so
# letting the seed also pick *which* keys are hot (and hence how deep they sit
# in their collision chains) spread far accesses/op over a 20.7 % range across
# seeds 101-110, against 0.9 % with the permutation fixed. The seed picks the
# draws, the op kinds and the values; the hot set is a property of the workload.
_RANK_PERMUTATION_SEED = 0x5EED
WINDOW_DEPTH = 16
TELEMETRY_WINDOW_NS = 50_000


def normalize(result: Any) -> Any:
    """Make one recorded result comparable across passes and cheap to keep."""
    if isinstance(result, (bytes, bytearray)) and len(result) > 32:
        return ("crc", len(result), zlib.crc32(result))
    if isinstance(result, FabricError):
        return ("error", type(result).__name__)
    if isinstance(result, list):
        return [normalize(item) for item in result]
    return result


def is_error(result: Any) -> bool:
    return isinstance(result, tuple) and len(result) == 2 and result[0] == "error"


@dataclass
class Verdict:
    """What the oracle found: ops attempted, ops that raised a typed fabric
    error, and results the oracle rejects."""

    attempted: int
    failed: int
    mismatches: int
    first_mismatch: Optional[str] = None


@dataclass
class Run:
    """One pass's live state. ``clients`` are the drivers whose clocks and
    metrics make up the simulated measurements."""

    cluster: Cluster
    clients: list[Client]
    requests: list
    tree: Any = None
    space: Any = None
    cells: Any = None
    tracer: Optional[Tracer] = None
    injector: Any = None
    base: int = 0  # raw_fabric: far address of the region

    def __post_init__(self) -> None:
        self.results = [None] * len(self.requests)
        self.clocks = [None] * len(self.requests)

    def settle(self, lo: int, hi: int) -> None:
        """Outside the timed chunk: shrink bulky results, name exceptions."""
        results = self.results
        for i in range(lo, hi):
            results[i] = normalize(results[i])


class Workload:
    """Interface the harness drives; see the module docstring."""

    name: str

    def generate(self, seed: int, smoke: bool) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any) -> Run:
        raise NotImplementedError

    def execute(self, run: Run, lo: int, hi: int) -> None:
        raise NotImplementedError

    def ops_in(self, inputs: Any, lo: int, hi: int) -> int:
        """Ops issued by requests ``[lo, hi)``."""
        return hi - lo

    def request_deltas(self, clocks: list, start_clocks: tuple) -> list[float]:
        """Simulated ns each request took on its own client's clock."""
        deltas = []
        previous = start_clocks[0]
        for now in clocks:
            deltas.append(now - previous)
            previous = now
        return deltas

    def verify(self, inputs: Any, run: Run) -> Verdict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# HT-tree key-value workloads
# ----------------------------------------------------------------------


@dataclass
class KvInputs:
    seed: int
    keys: int
    requests: list  # (is_put, key, value)


def zipf_weights(keys: int) -> np.ndarray:
    """Zipf bounded to ``keys`` ranks: rank r has probability r^-s / sum.
    (``numpy``'s unbounded ``zipf`` clipped to ``keys``, which is also what
    ``repro.workloads.Zipf`` does, folds the whole tail onto the last rank:
    42 % of the draws at s = 1.1 over 3 000 keys.)"""
    weights = np.arange(1, keys + 1, dtype=float) ** -ZIPF_S
    return weights / weights.sum()


def _preload_value(key: int) -> int:
    return (key * 2654435761 + 1) & 0xFFFFFFFF


class KvWorkload(Workload):
    """YCSB over one HT-tree: zipfian keys, ``read_share`` gets, the rest
    in-place puts to preloaded keys."""

    def __init__(
        self,
        name: str,
        *,
        read_share: float,
        ops: int,
        nodes: int = 1,
        observed: bool = False,
        faulty: bool = False,
    ) -> None:
        self.name = name
        self.read_share = read_share
        self.ops = ops
        self.nodes = nodes
        self.observed = observed
        self.faulty = faulty

    def generate(self, seed: int, smoke: bool) -> KvInputs:
        keys = 400 if smoke else 1_500
        ops = self.ops // (25 if smoke else 1)
        rng = np.random.default_rng(seed)
        ranks = rng.choice(keys, size=ops, p=zipf_weights(keys))
        rank_to_key = np.random.default_rng(_RANK_PERMUTATION_SEED).permutation(keys)
        is_put = rng.random(ops) >= self.read_share
        values = rng.integers(1, 1 << 32, size=ops)
        requests = list(zip(is_put.tolist(), rank_to_key[ranks].tolist(), values.tolist()))
        return KvInputs(seed, keys, requests)

    def setup(self, inputs: KvInputs) -> Run:
        Client.reset_ids()
        # On a multi-node cluster every hinted alloc walks the whole extent
        # table (ExtentTable.node_extent_runs), which made the 2-node preload
        # 6x slower than the 1-node one with 64 MiB nodes; small nodes keep
        # kv_faulty's set-up inside the run budget.
        node_size = (64 << 20) if self.nodes == 1 else (4 << 20)
        cluster = Cluster(node_count=self.nodes, node_size=node_size)
        tree = cluster.ht_tree()
        loader = cluster.client("loader", retry_policy=None, breaker_policy=None)
        for key in range(inputs.keys):
            tree.put(loader, key, _preload_value(key))
        if self.faulty:
            client = cluster.client(
                "driver",
                retry_policy=RetryPolicy(max_attempts=5),
                breaker_policy=BreakerPolicy(),
            )
        else:
            client = cluster.client("driver", retry_policy=None, breaker_policy=None)
        tree.get(client, 0)  # load the driver's tree cache before the clock starts
        run = Run(cluster, [client], inputs.requests, tree=tree)
        if self.observed:
            run.tracer = Tracer()
            run.tracer.attach(client)
            TelemetryRegistry(window_ns=TELEMETRY_WINDOW_NS).observe(run.tracer)
        if self.faulty:
            plan = (
                FaultPlan()
                .random_timeouts(0.02)
                .random_spikes(0.01, multiplier=4.0)
                .random_flaky(0.0005, duration=1)
            )
            run.injector = cluster.inject_faults(seed=inputs.seed, plan=plan)
        return run

    def execute(self, run: Run, lo: int, hi: int) -> None:
        tree, client = run.tree, run.clients[0]
        get, put, clock = tree.get, tree.put, client.clock
        requests, results, clocks = run.requests, run.results, run.clocks
        for i in range(lo, hi):
            is_put, key, value = requests[i]
            try:
                results[i] = put(client, key, value) if is_put else get(client, key)
            except FabricError as err:
                results[i] = err
            clocks[i] = clock.now_ns

    def verify(self, inputs: KvInputs, run: Run) -> Verdict:
        # A put that raised may or may not have landed: until the next
        # successful put the oracle accepts either value.
        model = {key: {_preload_value(key)} for key in range(inputs.keys)}
        verdict = Verdict(attempted=len(run.requests), failed=0, mismatches=0)
        for i, ((is_put, key, value), result) in enumerate(zip(run.requests, run.results)):
            if is_error(result):
                verdict.failed += 1
                if is_put:
                    model[key].add(value)
            elif is_put:
                model[key] = {value}
            elif result not in model[key]:
                verdict.mismatches += 1
                if verdict.first_mismatch is None:
                    verdict.first_mismatch = (
                        f"request {i}: get({key}) returned {result!r}, oracle has {model[key]}"
                    )
        return verdict


# ----------------------------------------------------------------------
# raw_fabric: the fabric stack with no data structure on top
# ----------------------------------------------------------------------

RAW_EXTENT = 4096
# A window request is WINDOW_DEPTH submitted word/block ops reaped by one
# completion-queue drain. Their number is exact and only their positions are
# the seed's: a window is 16 ops for little simulated time, so drawing their
# number too spread ops per request, and with it sim_ns_per_op, by 2.2 %
# (quartile distance, 40 seeds) while the simulated total moved 0.7 %.
WINDOW_SHARE = 0.15
RAW_KINDS = (  # (name, weight) of the single-op requests
    ("read_u64", 0.24),
    ("write_u64", 0.16),
    ("cas", 0.10),
    ("faa", 0.10),
    ("read_256", 0.12),
    ("write_256", 0.10),
    ("read_8k", 0.03),
)
_WINDOW_SUBOPS = ("read_u64", "write_u64", "read_256", "faa")


@dataclass
class RawInputs:
    seed: int
    region: int  # bytes
    requests: list  # (kind, args) with region-relative offsets
    expected: list  # what the shadow bytearray says each request returns
    ops: list  # cumulative op count before each request, plus the total


class _Shadow:
    """The oracle for raw_fabric: the same ops on a local bytearray."""

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)

    def word(self, off: int) -> int:
        return decode_u64(bytes(self.data[off : off + WORD]))

    def apply(self, kind: str, args: tuple) -> Any:
        data = self.data
        if kind == "read_u64":
            return self.word(args[0])
        if kind == "write_u64":
            data[args[0] : args[0] + WORD] = encode_u64(args[1])
            return None
        if kind == "cas":
            old = self.word(args[0])
            if old == args[1]:
                data[args[0] : args[0] + WORD] = encode_u64(args[2])
            return (old, old == args[1])
        if kind == "faa":
            old = self.word(args[0])
            data[args[0] : args[0] + WORD] = encode_u64(wrap_add(old, args[1]))
            return old
        if kind == "read":
            return bytes(data[args[0] : args[0] + args[1]])
        if kind == "write":
            data[args[0] : args[0] + len(args[1])] = args[1]
            return None
        raise ValueError(kind)


class RawFabricWorkload(Workload):
    """No data structure: word, atomic, 256 B, 8 KiB and 16-deep windowed
    far ops over a region of an interleaved cluster in which set-up migrated
    every 4th extent to an added node."""

    name = "raw_fabric"

    def generate(self, seed: int, smoke: bool) -> RawInputs:
        region = (256 << 10) if smoke else (2 << 20)
        count = 400 if smoke else 10_000
        rng = np.random.default_rng(seed)
        names = [name for name, _ in RAW_KINDS]
        weights = np.array([weight for _, weight in RAW_KINDS])
        kinds = rng.choice(len(names), size=count, p=weights / weights.sum()).tolist()
        is_window = rng.permutation(np.arange(count) < round(count * WINDOW_SHARE)).tolist()
        pool = rng.bytes(1 << 16)
        shadow = _Shadow(region)
        requests, expected, ops = [], [], [0]

        def one(name: str) -> tuple:
            if name in ("read_256", "write_256", "read_8k"):
                length = 8192 if name == "read_8k" else 256
                off = int(rng.integers(0, (region - length) // WORD)) * WORD
                if name == "write_256":
                    start = int(rng.integers(0, len(pool) - length))
                    return ("write", (off, pool[start : start + length]))
                return ("read", (off, length))
            off = int(rng.integers(0, region // WORD)) * WORD
            if name == "read_u64":
                return (name, (off,))
            if name == "write_u64":
                return (name, (off, int(rng.integers(0, 1 << 62))))
            if name == "faa":
                return (name, (off, int(rng.integers(1, 1 << 16))))
            # cas: half the time expect the current value, so half succeed
            current = shadow.word(off)
            guess = current if rng.random() < 0.5 else current + 1
            return (name, (off, guess, int(rng.integers(0, 1 << 62))))

        for index, window in zip(kinds, is_window):
            if window:
                subs = []
                for pick in rng.integers(0, len(_WINDOW_SUBOPS), size=WINDOW_DEPTH).tolist():
                    subs.append(one(_WINDOW_SUBOPS[pick]))
                requests.append(("window", tuple(subs)))
                expected.append(normalize([shadow.apply(k, a) for k, a in subs]))
                ops.append(ops[-1] + WINDOW_DEPTH)
            else:
                kind, args = one(names[index])
                requests.append((kind, args))
                expected.append(normalize(shadow.apply(kind, args)))
                ops.append(ops[-1] + 1)
        return RawInputs(seed, region, requests, expected, ops)

    def setup(self, inputs: RawInputs) -> Run:
        Client.reset_ids()
        cluster = Cluster(
            node_count=4,
            node_size=inputs.region,
            interleaved=True,
            interleave_granularity=RAW_EXTENT,
            extent_size=RAW_EXTENT,
        )
        base = cluster.allocator.alloc(inputs.region)
        spare = cluster.add_node()
        mover = cluster.client("mover", retry_policy=None, breaker_policy=None)
        first = base // RAW_EXTENT
        for extent in range(first, first + inputs.region // RAW_EXTENT, 4):
            cluster.migration.migrate_extent(mover, extent, spare)
        client = cluster.client(
            "driver", retry_policy=None, breaker_policy=None, qp_depth=WINDOW_DEPTH
        )
        # Bind every request to its far address once, outside the timed loop.
        bound = []
        for kind, args in inputs.requests:
            if kind == "window":
                bound.append((kind, tuple((k, (base + a[0],) + a[1:]) for k, a in args)))
            else:
                bound.append((kind, (base + args[0],) + args[1:]))
        return Run(cluster, [client], bound, base=base)

    def execute(self, run: Run, lo: int, hi: int) -> None:
        client = run.clients[0]
        clock, submit, drain = client.clock, client.submit, client.cq.wait_all
        call = {
            "read_u64": client.read_u64,
            "write_u64": client.write_u64,
            "cas": client.cas,
            "faa": client.faa,
            "read": client.read,
            "write": client.write,
        }
        requests, results, clocks = run.requests, run.results, run.clocks
        for i in range(lo, hi):
            kind, args = requests[i]
            try:
                if kind == "window":
                    futures = [submit(k, *a) for k, a in args]
                    drain()
                    results[i] = [future.result() for future in futures]
                else:
                    results[i] = call[kind](*args)
            except FabricError as err:
                results[i] = err
            clocks[i] = clock.now_ns

    def ops_in(self, inputs: RawInputs, lo: int, hi: int) -> int:
        return inputs.ops[hi] - inputs.ops[lo]

    def verify(self, inputs: RawInputs, run: Run) -> Verdict:
        verdict = Verdict(attempted=inputs.ops[-1], failed=0, mismatches=0)
        for i, (result, want) in enumerate(zip(run.results, inputs.expected)):
            if is_error(result):
                verdict.failed += inputs.ops[i + 1] - inputs.ops[i]
            elif result != want:
                verdict.mismatches += 1
                if verdict.first_mismatch is None:
                    verdict.first_mismatch = (
                        f"request {i} {inputs.requests[i][0]}: got {result!r}, shadow has {want!r}"
                    )
        return verdict


# ----------------------------------------------------------------------
# txn_transfer: two rivals moving money through TxnSpace
# ----------------------------------------------------------------------

TXN_ACCOUNTS = 64
TXN_OPENING = 1_000
TXN_EXTENT = 64 << 10
TXN_OVERLAP = 0.5


@dataclass
class TxnInputs:
    seed: int
    requests: list  # rounds: (pair_a, amount_a, pair_b, amount_b, amount_retry, overlap)


class TxnTransferWorkload(Workload):
    """Two rival clients commit 2-account transfers over 64 cells; half the
    rounds collide, the loser aborts and retries (bench A11's shape)."""

    name = "txn_transfer"

    def generate(self, seed: int, smoke: bool) -> TxnInputs:
        count = 60 if smoke else 1_000
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(count):
            pair_a = rng.choice(TXN_ACCOUNTS, size=2, replace=False).tolist()
            overlap = bool(rng.random() < TXN_OVERLAP)
            if overlap:
                pair_b = list(pair_a)
            else:
                rest = [i for i in range(TXN_ACCOUNTS) if i not in pair_a]
                pair_b = rng.choice(rest, size=2, replace=False).tolist()
            amounts = rng.integers(1, 11, size=3).tolist()
            rounds.append((tuple(pair_a), amounts[0], tuple(pair_b), *amounts[1:], overlap))
        return TxnInputs(seed, rounds)

    def setup(self, inputs: TxnInputs) -> Run:
        Client.reset_ids()
        cluster = Cluster(node_count=2, node_size=16 << 20, extent_size=TXN_EXTENT)
        teller = cluster.client("setup", retry_policy=None, breaker_policy=None)
        space = cluster.txn_space(teller, n_slots=4 * TXN_ACCOUNTS)
        cells, used = [], set()
        while len(cells) < TXN_ACCOUNTS:  # one version slot per account, as in bench A11
            addr = cluster.allocator.alloc(TXN_EXTENT)
            slot = space.slot_for_addr(addr)
            if slot in used:
                continue
            used.add(slot)
            space.init_cell(teller, addr, encode_u64(TXN_OPENING))
            cells.append(addr)
        rivals = [
            cluster.client(name, retry_policy=None, breaker_policy=None)
            for name in ("rival-a", "rival-b")
        ]
        for rival in rivals:
            space.register(rival)
        return Run(cluster, rivals, inputs.requests, space=space, cells=cells)

    @staticmethod
    def _open(space, client, cells, pair, amount):
        txn = space.begin(client)
        src, dst = cells[pair[0]], cells[pair[1]]
        src_balance = decode_u64(space.read(client, txn, src, WORD))
        dst_balance = decode_u64(space.read(client, txn, dst, WORD))
        moved = min(amount, src_balance)
        space.write(client, txn, src, encode_u64(src_balance - moved))
        space.write(client, txn, dst, encode_u64(dst_balance + moved))
        return txn

    def execute(self, run: Run, lo: int, hi: int) -> None:
        space, cells = run.space, run.cells
        a, b = run.clients
        clock_a, clock_b = a.clock, b.clock
        begin, commit = self._open, space.commit
        requests, results, clocks = run.requests, run.results, run.clocks
        for i in range(lo, hi):
            pair_a, amount_a, pair_b, amount_b, amount_retry, _ = requests[i]
            try:
                txn_a = begin(space, a, cells, pair_a, amount_a)
                txn_b = begin(space, b, cells, pair_b, amount_b)
                commit(a, txn_a)
                try:
                    commit(b, txn_b)
                    results[i] = False
                except TxnAbortError:
                    # the loser retries on fresh reads and must now win
                    commit(b, begin(space, b, cells, pair_b, amount_retry))
                    results[i] = True
            except FabricError as err:
                results[i] = err
            clocks[i] = (clock_a.now_ns, clock_b.now_ns)

    def ops_in(self, inputs: TxnInputs, lo: int, hi: int) -> int:
        return 2 * (hi - lo)

    def request_deltas(self, clocks: list, start_clocks: tuple) -> list[float]:
        deltas = []
        previous = start_clocks
        for now in clocks:
            deltas.extend(n - p for n, p in zip(now, previous))
            previous = now
        return deltas

    def verify(self, inputs: TxnInputs, run: Run) -> Verdict:
        ledger = [TXN_OPENING] * TXN_ACCOUNTS
        verdict = Verdict(attempted=2 * len(inputs.requests), failed=0, mismatches=0)

        def move(pair, amount):
            moved = min(amount, ledger[pair[0]])
            ledger[pair[0]] -= moved
            ledger[pair[1]] += moved

        for i, (round_, aborted) in enumerate(zip(inputs.requests, run.results)):
            pair_a, amount_a, pair_b, amount_b, amount_retry, overlap = round_
            if is_error(aborted):
                verdict.failed += 2
                continue
            move(pair_a, amount_a)
            move(pair_b, amount_retry if aborted else amount_b)
            if aborted != overlap:
                verdict.mismatches += 1
                verdict.first_mismatch = verdict.first_mismatch or (
                    f"round {i}: aborted={aborted}, rivals overlap={overlap}"
                )
        reader = run.clients[0]
        balances = [decode_u64(reader.read_verified(addr, WORD)[1]) for addr in run.cells]
        if verdict.failed == 0 and balances != ledger:
            verdict.mismatches += 1
            verdict.first_mismatch = verdict.first_mismatch or "final balances differ from ledger"
        if sum(balances) != TXN_ACCOUNTS * TXN_OPENING:
            verdict.mismatches += 1
            verdict.first_mismatch = verdict.first_mismatch or "total balance not conserved"
        return verdict


# ----------------------------------------------------------------------
# The registry, in the order BENCHMARK.json lists the workloads (which is
# also where each one's one-line why lives; README.md has the long form).
# ----------------------------------------------------------------------

_KV_OPS = 6_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        KvWorkload("kv_read", read_share=1.0, ops=_KV_OPS),  # YCSB-C
        KvWorkload("kv_update", read_share=0.5, ops=_KV_OPS),  # YCSB-A
        RawFabricWorkload(),
        # kv_read's exact stream, observer attached
        KvWorkload("kv_read_observed", read_share=1.0, ops=_KV_OPS, observed=True),
        KvWorkload("kv_faulty", read_share=0.95, ops=2 * _KV_OPS, nodes=2, faulty=True),  # YCSB-B
        TxnTransferWorkload(),
    )
}
