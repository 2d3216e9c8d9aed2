"""Ablation A6 — outstanding-request depth vs wall-clock (pipelining).

Section 2 of the paper expects far memory to expose "request completion
queues" so clients can keep many requests in flight. This ablation sweeps
the client's QP depth (the bound on outstanding requests) while driving
HT-tree ``multiget`` batches, and compares against the sequential
``get``-per-key path. The claims:

* wall-clock (simulated time) **improves monotonically** with depth —
  deeper queues hide more round-trip latency behind overlap;
* the speedup is **latency-only**: per-op far-access counts are exactly
  those of the sequential path (overlap hides latency, never work), so
  the C4 1-far-access-per-lookup property is preserved bit-for-bit;
* at depth 16 the batch completes at least **4x** faster than at depth 1
  (depth 1 degenerates to the serial client: one-deep windows).

``FM_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random

from repro.obs import (
    FLEET,
    TelemetryRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

from helpers import build_cluster, get_seed, print_table, record, run_once

SMOKE = bool(os.environ.get("FM_BENCH_SMOKE"))
ITEMS = 256 if SMOKE else 1_024
LOOKUPS = 128 if SMOKE else 512
DEPTHS = (1, 2, 4, 8, 16, 32)


def _build():
    """One populated tree + the key sample every depth will look up."""
    cluster = build_cluster(node_count=2)
    tree = cluster.ht_tree(bucket_count=ITEMS * 4, max_chain=4)
    loader = cluster.client("loader")
    rng = random.Random(get_seed(41))
    keys = rng.sample(range(1, ITEMS * 8), ITEMS)
    for key in keys:
        tree.put(loader, key, key * 3)
    lookups = [rng.choice(keys) for _ in range(LOOKUPS)]
    return cluster, tree, lookups


def _sequential_baseline():
    """The pre-pipeline path: one ``get`` per key on a serial client."""
    cluster, tree, lookups = _build()
    c = cluster.client("serial-reader")
    snapshot = c.metrics.snapshot()
    started_ns = c.clock.now_ns
    values = [tree.get(c, key) for key in lookups]
    assert all(value is not None for value in values)
    delta = c.metrics.delta(snapshot)
    return {
        "elapsed_ns": c.clock.now_ns - started_ns,
        "far_accesses": delta.far_accesses,
    }


def _run_at_depth(depth):
    cluster, tree, lookups = _build()
    c = cluster.client("reader", qp_depth=depth)
    tracer = Tracer()
    tracer.attach(c)
    # The live telemetry plane rides the same event stream as a sink;
    # the depth-1-equals-sequential assert below doubles as the
    # zero-observer-effect check (counts and clock bit-identical).
    registry = TelemetryRegistry(window_ns=10_000).observe(tracer)
    snapshot = c.metrics.snapshot()
    started_ns = c.clock.now_ns
    values = tree.multiget(c, lookups)
    assert all(value is not None for value in values)
    delta = c.metrics.delta(snapshot)
    tracer.finish()
    # Attribution closes: spans account for every far access, exactly.
    assert tracer.attributed_far_accesses() == delta.far_accesses
    # The registry saw the same world: fleet counter equals the exact
    # metrics delta, and the windowed ring rolls up to every window
    # event's charge with nothing lost.
    assert registry.counter_total(FLEET, "far_accesses") == delta.far_accesses
    window_hist = registry.histogram(FLEET, "window_ns").rollup()
    charged = [e.data["charged_ns"] for e in tracer.events_by_kind("window")]
    assert window_hist.samples() == tuple(sorted(charged))
    return {
        "depth": depth,
        "elapsed_ns": c.clock.now_ns - started_ns,
        "far_accesses": delta.far_accesses,
        "avg_window": delta.avg_pipeline_depth(),
        "overlap_eff": delta.overlap_efficiency(),
        "stalls": delta.pipeline_stalls,
        "window_p50_ns": window_hist.p50,
        "window_p90_ns": window_hist.p90,
        "window_p99_ns": window_hist.p99,
        "tracer": tracer,
    }


def _scenario():
    baseline = _sequential_baseline()
    return baseline, [_run_at_depth(depth) for depth in DEPTHS]


def test_a6_pipeline_depth(benchmark):
    baseline, results = run_once(benchmark, _scenario)
    print_table(
        "A6: HT-tree multiget wall-clock vs outstanding-request depth"
        f" ({LOOKUPS} lookups; sequential path: "
        f"{baseline['elapsed_ns'] / 1_000:.1f} us, "
        f"{baseline['far_accesses']} far accesses)",
        [
            "qp depth",
            "sim time (us)",
            "speedup vs seq",
            "far accesses",
            "avg window",
            "overlap eff",
            "stalls",
            "win p50 ns",
            "win p90 ns",
            "win p99 ns",
        ],
        [
            (
                r["depth"],
                r["elapsed_ns"] / 1_000,
                baseline["elapsed_ns"] / r["elapsed_ns"],
                r["far_accesses"],
                r["avg_window"],
                r["overlap_eff"],
                r["stalls"],
                r["window_p50_ns"],
                r["window_p90_ns"],
                r["window_p99_ns"],
            )
            for r in results
        ],
    )
    by_depth = {r["depth"]: r for r in results}
    record(
        benchmark,
        {
            "sequential_ns": baseline["elapsed_ns"],
            "depth16_speedup": baseline["elapsed_ns"]
            / by_depth[16]["elapsed_ns"],
            "far_accesses": baseline["far_accesses"],
        },
    )
    # Overlap hides latency, never work: every depth issues exactly the
    # sequential path's far accesses (C4's per-lookup cost, bit-for-bit).
    for r in results:
        assert r["far_accesses"] == baseline["far_accesses"]
    # Depth 1 degenerates to the serial client: identical wall-clock.
    assert by_depth[1]["elapsed_ns"] == baseline["elapsed_ns"]
    # Deeper queues are monotonically faster (strictly, until the batch
    # no longer fills the window).
    elapsed = [r["elapsed_ns"] for r in results]
    assert elapsed == sorted(elapsed, reverse=True)
    assert elapsed[-1] < elapsed[0]
    # The headline number: >= 4x at depth 16 vs depth 1.
    assert by_depth[1]["elapsed_ns"] >= 4 * by_depth[16]["elapsed_ns"]
    # Deep queues actually ran deep, and overlap did the hiding.
    assert by_depth[16]["avg_window"] > 4.0
    assert by_depth[16]["overlap_eff"] > 0.5

    # The exported Chrome trace is schema-valid and tells the same
    # overlap story the metrics do: summing saved/charged nanoseconds off
    # the depth-16 window slices reproduces Metrics.overlap_efficiency()
    # (within 1% — the metrics truncate to integer ns per window).
    tracer16 = by_depth[16]["tracer"]
    document = chrome_trace(tracer16)
    problems = validate_chrome_trace(document)
    assert not problems, problems
    windows = [
        e
        for e in document["traceEvents"]
        if e["ph"] == "X" and "reason" in e.get("args", {})
    ]
    assert windows
    saved = sum(w["args"]["saved_ns"] for w in windows)
    charged = sum(w["args"]["charged_ns"] for w in windows)
    measured_eff = saved / (saved + charged)
    assert abs(measured_eff - by_depth[16]["overlap_eff"]) <= 0.01
    # Overlapping slices are visible: multi-op windows cost less than the
    # serial sum of their member operations.
    assert any(
        w["args"]["n"] > 1 and w["args"]["charged_ns"] < w["args"]["serial_ns"]
        for w in windows
    )

    out_dir = os.environ.get("FM_TRACE_OUT")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_chrome_trace(
            os.path.join(out_dir, "a6_depth16.trace.json"), tracer16
        )
        write_jsonl(os.path.join(out_dir, "a6_depth16.jsonl"), tracer16)
        print(f"\ntrace artifacts written to {out_dir}/a6_depth16.*")
