"""Experiment A10 — static cost certificates cross-checked at runtime.

fmcost proves per-operation far-access bounds from the source alone
(claims C4 and C5 become *theorems about the AST* rather than runtime
observations). This bench drives a mixed workload over every certified
structure with the BudgetSanitizer attached and tabulates, per
operation: the statically inferred fast/worst expressions, the declared
budget, and the largest runtime delta the sanitizer observed. Two
properties must hold:

1. **Soundness** — no observed delta exceeds its finite static worst.
2. **Tightness on the hot paths** — warmed C4/C5 fast paths observe
   *exactly* their certified fast cost (lookup=1, store=2, enqueue=1),
   i.e. the static bound is achieved, not just respected.

``FM_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.budget import BudgetSanitizer
from repro.analysis.fmcost import analyze_paths, build_certificate, certificate_failures
from repro.core.ht_tree import hash_u64
from repro.fabric.client import Client

from helpers import build_cluster, get_seed, print_table, record, run_once

SMOKE = bool(os.environ.get("FM_BENCH_SMOKE"))
OPS = 64 if SMOKE else 512
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _collision_free_keys(count: int, bucket_count: int) -> list[int]:
    keys: list[int] = []
    buckets: set[int] = set()
    key = 0
    while len(keys) < count:
        bucket = hash_u64(key) % bucket_count
        if bucket not in buckets:
            buckets.add(bucket)
            keys.append(key)
        key += 1
    return keys


def _workload(san: BudgetSanitizer) -> None:
    """Touch every certified structure's bounded operations."""
    import random

    rng = random.Random(get_seed(1001))
    cluster = build_cluster(node_count=2)
    client = cluster.client("a10")

    counter = cluster.far_counter()
    mutex = cluster.far_mutex()
    queue = cluster.far_queue(capacity=OPS * 2, max_clients=4)
    tree = cluster.ht_tree(bucket_count=OPS * 8)
    vector = cluster.refreshable_vector(length=32)
    keys = _collision_free_keys(OPS // 2, OPS * 8)
    # Warm the tree caches and the queue's per-client state outside the
    # sanitized window so the sanitized run measures the certified fast
    # paths (first touches legitimately pay an extra setup access).
    for key in keys:
        tree.put(client, key, key)
        tree.get(client, key)
    queue.enqueue(client, 1)
    queue.try_dequeue(client)

    with san:
        for _ in range(OPS):
            counter.increment(client)
        counter.read(client)
        if mutex.try_acquire(client):
            mutex.release(client)
        for i in range(OPS):
            queue.enqueue(client, i + 1)
        for _ in range(OPS):
            queue.try_dequeue(client)
        queue.size_estimate(client)
        for key in keys:
            tree.get(client, key)
        for key in keys:
            tree.put(client, key, key + 1)
        tree.cache_bytes(client)
        for i in range(32):
            vector.set(client, i, rng.randrange(1, 1 << 20))
        vector.snapshot(client)
        vector.reader_mode(client)


def test_a10_cost_certificate(benchmark):
    Client.reset_ids()
    cert = build_certificate(analyze_paths([str(SRC)]))
    assert certificate_failures(cert) == []

    san = BudgetSanitizer(strict=False)
    run_once(benchmark, lambda: _workload(san))

    rows = []
    unsound = []
    for key in sorted(san.records):
        structure, _, op = key.partition(".")
        static = cert.get(structure, {}).get(op)
        if static is None:
            continue
        observed = san.records[key]
        inferred = static["inferred"]
        if inferred["worst_unbounded"] or inferred["retry_exempt"]:
            verdict = "vacuous (worst=T/retry)"
        elif observed.max_delta <= inferred["worst_const"]:
            verdict = "sound"
        else:
            verdict = "VIOLATED"
            unsound.append(key)
        rows.append(
            (
                key,
                inferred["fast"],
                inferred["worst"],
                observed.max_delta,
                observed.calls,
                verdict,
            )
        )
    print_table(
        "A10 — static certificate vs. sanitizer-observed far accesses",
        ["operation", "static fast", "static worst", "max delta", "calls", "check"],
        rows,
    )
    assert not unsound, f"static bound violated at runtime: {unsound}"

    # Tightness: the warmed paper fast paths hit their certified cost.
    assert san.records["HTTree.get"].max_delta == 1
    assert san.records["HTTree.put"].max_delta == 2
    assert san.records["FarQueue.enqueue"].max_delta == 1
    record(
        benchmark,
        {
            "certified_operations": sum(map(len, cert.values())),
            "observed_operations": len(rows),
            "soundness_violations": len(unsound),
        },
    )
