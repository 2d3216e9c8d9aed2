"""Passes, the min-over-passes host-time estimator, and the determinism guard.

One *pass* is a fresh set-up followed by the whole request stream, cut into
fixed chunks that are each timed with ``perf_counter_ns``. The simulator is
deterministic, so chunk *i* does identical work in every pass and noise only
ever adds time: the host time of chunk *i* is its minimum over passes, and
the host time of the workload is the sum of those minima. ``setup_s`` is the
minimum over passes of the whole set-up.

Everything simulated (clocks, ``Metrics`` counters, results) must be
identical in every pass; :func:`check_same` fails loudly when it is not.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from workloads import Run, Verdict, Workload

TARGET_CHUNKS = 200
SMOKE_CHUNKS = 20
CALIBRATION_ITERATIONS = 100_000


class DeterminismError(AssertionError):
    """Two runs of the same seeded inputs disagreed on a simulated quantity."""


def calibration_ns() -> float:
    """Host ns per iteration of a fixed pure-Python loop, now. It puts a
    report's host times in the context of the machine (and of the moment:
    this sandbox slows down as a whole for tens of seconds at a time), so
    ``compare.py`` can call a timing unresolved when two reports were taken
    at different machine speeds. It scales no measurement."""
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(CALIBRATION_ITERATIONS):
        acc += i & 7
    return (time.perf_counter_ns() - t0) / CALIBRATION_ITERATIONS


@dataclass
class Pass:
    """One pass: host timings plus the exact (simulated) fingerprint."""

    setup_ns: int
    chunk_ns: list[int]
    calibration_ns: float  # one sample, taken between set-up and the chunks
    sim_ns: float
    metrics: dict[str, int]
    counters: dict[str, float]
    results: list
    clocks: list
    deltas: list[float]


def chunk_bounds(requests: int, smoke: bool) -> list[tuple[int, int]]:
    size = max(1, math.ceil(requests / (SMOKE_CHUNKS if smoke else TARGET_CHUNKS)))
    return [(lo, min(lo + size, requests)) for lo in range(0, requests, size)]


def _public_counters(run: Run) -> dict[str, float]:
    """Cumulative public counters outside ``Metrics``: tree, nodes, tracer."""
    out: dict[str, float] = {}
    if run.tree is not None:
        for name, value in vars(run.tree.stats).items():
            out[f"tree.{name}"] = value
    nodes = run.cluster.fabric.nodes
    out["node.ops"] = sum(node.stats.total_ops() for node in nodes)
    out["node.bytes"] = sum(node.stats.bytes_read + node.stats.bytes_written for node in nodes)
    out["obs.events"] = len(run.tracer.events) if run.tracer is not None else 0
    if run.injector is not None:
        stats = run.injector.stats
        out["injector.drops"] = stats.timeouts_injected + stats.flaky_drops
    return out


def run_pass(
    workload: Workload,
    inputs: Any,
    bounds: list[tuple[int, int]],
    *,
    chunk_runner: Optional[Callable[[Run, int, int], None]] = None,
    after_setup: Optional[Callable[[Run], None]] = None,
    keep_run: bool = False,
) -> tuple[Pass, Optional[Run]]:
    """Set up from scratch and drive ``bounds``; returns the pass (and the
    live run when asked). ``chunk_runner`` replaces the plain
    ``workload.execute`` call inside the timed section (the span and
    counting passes use it)."""
    gc.collect()  # drop the previous pass's cluster; same GC state every pass
    clock = time.perf_counter_ns
    t = clock()
    run = workload.setup(inputs)
    setup_ns = clock() - t
    calibration = calibration_ns()
    if after_setup is not None:
        after_setup(run)
    snapshots = [client.metrics.snapshot() for client in run.clients]
    start_clocks = tuple(client.clock.now_ns for client in run.clients)
    before = _public_counters(run)
    execute = chunk_runner or workload.execute
    chunk_ns = []
    for lo, hi in bounds:
        t = clock()
        execute(run, lo, hi)
        chunk_ns.append(clock() - t)
        run.settle(lo, hi)
    metrics: dict[str, int] = {}
    for client, snapshot in zip(run.clients, snapshots):
        for name, value in client.metrics.delta(snapshot).as_dict().items():
            metrics[name] = metrics.get(name, 0) + value
    after = _public_counters(run)
    counters = {name: after[name] - before[name] for name in after}
    if run.tree is not None:
        counters["tree.splits_total"] = run.tree.stats.splits
    topology = run.cluster.topology()
    counters["table.remapped_share"] = topology["remapped"] / topology["extent_count"]
    done = bounds[-1][1]
    result = Pass(
        setup_ns=setup_ns,
        chunk_ns=chunk_ns,
        calibration_ns=calibration,
        sim_ns=sum(c.clock.now_ns - s for c, s in zip(run.clients, start_clocks)),
        metrics=metrics,
        counters=counters,
        results=run.results[:done],
        clocks=run.clocks[:done],
        deltas=workload.request_deltas(run.clocks[:done], start_clocks),
    )
    return result, (run if keep_run else None)


def check_same(what: str, first: Pass, other: Pass) -> None:
    """The determinism guard between two passes over the same requests."""
    if first.sim_ns != other.sim_ns:
        raise DeterminismError(f"{what}: sim clock {first.sim_ns} != {other.sim_ns}")
    if first.metrics != other.metrics:
        diff = {
            k: (first.metrics.get(k), other.metrics.get(k))
            for k in set(first.metrics) | set(other.metrics)
            if first.metrics.get(k) != other.metrics.get(k)
        }
        raise DeterminismError(f"{what}: Metrics counters differ: {diff}")
    if first.clocks != other.clocks:
        raise DeterminismError(f"{what}: per-request sim clocks differ")
    if first.results != other.results:
        raise DeterminismError(f"{what}: results differ")


@dataclass
class Measurement:
    """The untraced passes of one workload, reduced."""

    passes: list[Pass]
    chunk_ns: list[int]  # chunk i's time: its minimum over the passes
    ops: int
    chunk_ops: list[int]
    verdict: Verdict

    @property
    def reference(self) -> Pass:
        return self.passes[0]

    @property
    def host_ns(self) -> float:
        return sum(self.chunk_ns)

    @property
    def setup_ns(self) -> int:
        return min(p.setup_ns for p in self.passes)

    @property
    def calibration_ns(self) -> float:
        return statistics.median(p.calibration_ns for p in self.passes)

    @property
    def pass_spread(self) -> float:
        """Slowest pass / fastest pass: how disturbed the run was."""
        totals = [sum(p.chunk_ns) for p in self.passes]
        return max(totals) / min(totals)

    def per_op_us_p99(self) -> float:
        per_op = sorted(ns / ops / 1e3 for ns, ops in zip(self.chunk_ns, self.chunk_ops))
        return nearest_rank(per_op, 0.99)


def measure(
    workload: Workload,
    inputs: Any,
    *,
    smoke: bool,
    seconds: float,
    min_passes: int,
) -> Measurement:
    """Repeat identical passes until ``seconds`` of set-up plus timed work
    are spent (at least ``min_passes``), guard their determinism, verify the
    first against the oracle, and reduce to per-chunk minima."""
    bounds = chunk_bounds(len(inputs.requests), smoke)
    started = time.perf_counter()
    passes: list[Pass] = []
    verdict: Optional[Verdict] = None
    longest = 0.0
    while len(passes) < min_passes or time.perf_counter() - started + longest <= seconds:
        t0 = time.perf_counter()
        current, run = run_pass(workload, inputs, bounds, keep_run=not passes)
        if run is not None:
            verdict = workload.verify(inputs, run)
            del run
        else:
            check_same(f"{workload.name} pass {len(passes) + 1} vs pass 1", passes[0], current)
            # results and clocks are proven equal to pass 1's: drop the copies
            current.results = current.clocks = current.deltas = []
        passes.append(current)
        longest = max(longest, time.perf_counter() - t0)
    assert verdict is not None
    chunk_ops = [workload.ops_in(inputs, lo, hi) for lo, hi in bounds]
    chunk_ns = [min(column) for column in zip(*(p.chunk_ns for p in passes))]
    return Measurement(passes, chunk_ns, sum(chunk_ops), chunk_ops, verdict)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in (0, 1] of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
