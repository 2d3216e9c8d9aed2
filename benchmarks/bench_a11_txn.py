"""Experiment A11 — optimistic transactions: serializability, abort
rate vs. contention, and the certified commit cost.

Three properties of ``repro.txn`` (DESIGN.md §15):

1. **Serializability** — interleaved rival transfers at every
   contention level leave the bank's total balance exactly conserved
   (zero invariant violations): the loser's validation fails instead of
   losing an update.
2. **Abort rate is monotone in contention** — rivals that overlap the
   same accounts with probability ``c`` abort ~``c`` of the time; more
   overlap can only abort more.
3. **Commit cost is the certified formula** — a warm W=2/R=1/C=2
   commit costs exactly ``W + R + C + W + 2`` far accesses, the empty
   commit costs exactly its declared fast cost (0), and both agree
   with the fmcost certificate for ``TxnSpace.commit``.

``FM_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro import Cluster, TxnAbortError
from repro.analysis.fmcost import analyze_paths, build_certificate
from repro.fabric.client import Client
from repro.fabric.wire import WORD, decode_u64, encode_u64
from repro.txn import TxnSpace

from helpers import get_seed, print_table, record, run_once

SMOKE = bool(os.environ.get("FM_BENCH_SMOKE"))
ROUNDS = 40 if SMOKE else 200
ACCOUNTS = 8
OPENING = 100
EXTENT = 64 << 10
CONTENTION = [0.0, 0.25, 0.5]
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bank(cluster):
    """A txn space plus ACCOUNTS balance cells in distinct extents (so
    every account has its own version slot)."""
    setup = cluster.client("setup")
    space = cluster.txn_space(setup)
    cells, used = [], set()
    while len(cells) < ACCOUNTS:
        addr = cluster.allocator.alloc(EXTENT)
        slot = space.slot_for_addr(addr)
        if slot in used:
            continue
        used.add(slot)
        space.init_cell(setup, addr, encode_u64(OPENING))
        cells.append(addr)
    return space, cells


def _transfer_txn(space, client, cells, src, dst, amount):
    """Open a transfer but do not commit (returns the open txn)."""
    txn = space.begin(client)
    src_bal = decode_u64(space.read(client, txn, cells[src], WORD))
    dst_bal = decode_u64(space.read(client, txn, cells[dst], WORD))
    moved = min(amount, src_bal)
    space.write(client, txn, cells[src], encode_u64(src_bal - moved))
    space.write(client, txn, cells[dst], encode_u64(dst_bal + moved))
    return txn


def _contention_round(space, cells, a, b, rng, overlap):
    """Two rivals build transfers concurrently; A commits first. With
    probability ``overlap`` B uses A's accounts (guaranteed conflict),
    else a disjoint pair. Returns True when B aborted."""
    pair_a = rng.sample(range(ACCOUNTS), 2)
    if rng.random() < overlap:
        pair_b = pair_a
    else:
        rest = [i for i in range(ACCOUNTS) if i not in pair_a]
        pair_b = rng.sample(rest, 2)
    txn_a = _transfer_txn(space, a, cells, *pair_a, rng.randint(1, 10))
    txn_b = _transfer_txn(space, b, cells, *pair_b, rng.randint(1, 10))
    space.commit(a, txn_a)
    try:
        space.commit(b, txn_b)
        return False
    except TxnAbortError:
        # The loser retries with fresh reads and must succeed.
        retry = _transfer_txn(space, b, cells, *pair_b, rng.randint(1, 10))
        space.commit(b, retry)
        return True


def _total(client, cells):
    return sum(
        decode_u64(client.read_verified(addr, WORD)[1]) for addr in cells
    )


def test_a11_txn(benchmark):
    Client.reset_ids()
    rng = random.Random(get_seed(1105))

    # -- abort rate vs. contention, invariant checked every level -------
    rows = []
    rates = []
    violations = 0

    def _sweep():
        nonlocal violations
        for overlap in CONTENTION:
            cluster = Cluster(
                node_count=2, node_size=16 << 20, extent_size=EXTENT
            )
            space, cells = _bank(cluster)
            a, b = cluster.client("rival-a"), cluster.client("rival-b")
            aborts = 0
            for _ in range(ROUNDS):
                aborts += _contention_round(space, cells, a, b, rng, overlap)
            if _total(a, cells) != ACCOUNTS * OPENING:
                violations += 1
            rate = aborts / ROUNDS
            rates.append(rate)
            rows.append(
                (
                    overlap,
                    2 * ROUNDS + aborts,
                    aborts,
                    f"{rate:.3f}",
                    a.metrics.txn_commits + b.metrics.txn_commits,
                    _total(a, cells),
                )
            )

    run_once(benchmark, _sweep)
    print_table(
        "A11 — abort rate vs. contention (2 rivals, interleaved commits)",
        ["overlap", "attempts", "aborts", "abort rate", "commits", "total balance"],
        rows,
    )
    assert violations == 0, "serializability: total balance must be conserved"
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.02, f"abort rate must be monotone: {rates}"

    # -- commit cost matches the declaration and the certificate --------
    cert = build_certificate(analyze_paths([str(SRC)]))
    commit_cert = cert["TxnSpace"]["commit"]
    declared_fast = TxnSpace.commit.__far_budget__.fast
    assert commit_cert["declared"]["fast"] == declared_fast == 0

    cluster = Cluster(node_count=2, node_size=16 << 20, extent_size=EXTENT)
    space, cells = _bank(cluster)
    client = cluster.client("meter")
    space.register(client)

    # Empty commit: exactly the declared fast cost (0 far accesses).
    txn = space.begin(client)
    before = client.metrics.far_accesses
    space.commit(client, txn)
    empty_delta = client.metrics.far_accesses - before
    assert empty_delta == declared_fast == 0

    # Warm W=2 (distinct extents -> C=2 runs), R=1: W + R + C + W + 2.
    txn = _transfer_txn(space, client, cells, 0, 1, 5)
    space.read(client, txn, cells[2], WORD)  # R = 1
    before = client.metrics.far_accesses
    space.commit(client, txn)
    commit_delta = client.metrics.far_accesses - before
    formula = 2 + 1 + 2 + 2 + 2
    assert commit_delta == formula, (
        f"commit cost {commit_delta} != certified formula {formula}"
    )
    print(
        f"\ncommit cost: empty={empty_delta} (declared fast "
        f"{declared_fast}), W=2/R=1/C=2 -> {commit_delta} == "
        f"W+R+C+W+2 == {formula}; certificate verdict "
        f"{commit_cert['verdict']!r}"
    )

    record(
        benchmark,
        {
            "abort_rates": dict(zip(map(str, CONTENTION), rates)),
            "invariant_violations": violations,
            "commit_cost_w2_r1_c2": commit_delta,
            "empty_commit_cost": empty_delta,
            "certificate_verdict": commit_cert["verdict"],
        },
    )
