"""The bypass ladder: the same 8-byte far addresses through successively
higher public entry points, so the cost a layer *adds* is a subtraction.

    MemoryNode.read_word  <  Fabric.read_word  <  Client.read_u64
    ExtentTable.locate (translation alone)

It runs on raw_fabric's cluster (interleaved, every 4th extent remapped), so
``translate_ns`` is the non-identity path. Every rung pays the same Python
loop overhead, which therefore cancels in the differences.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from workloads import WORKLOADS

REPEATS = 5
LADDER_METRICS = (
    "ladder.memory_node_ns",
    "ladder.translate_ns",
    "ladder.fabric_ns",
    "ladder.client_ns",
    "ladder.memory_node_write_ns",
    "ladder.fabric_write_ns",
    "ladder.client_write_ns",
)


def _per_call_ns(calls: list[tuple]) -> float:
    """Minimum over repeats of the mean host ns per ``fn(*args)`` in ``calls``."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for fn, args in calls:
            fn(*args)
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best / len(calls)


def run_ladder(seed: int, smoke: bool) -> dict[str, float]:
    workload = WORKLOADS["raw_fabric"]
    inputs = workload.generate(seed, True)  # the small region is enough for word ops
    run = workload.setup(inputs)
    fabric, client = run.cluster.fabric, run.clients[0]
    rng = np.random.default_rng(seed)
    count = 200 if smoke else 2_000
    addresses = (run.base + rng.integers(0, inputs.region // 8, size=count) * 8).tolist()
    values = rng.integers(0, 1 << 62, size=count).tolist()
    located = [fabric.locate(a) for a in addresses]

    def reads(fn: Callable) -> list[tuple]:
        return [(fn, (a,)) for a in addresses]

    def writes(fn: Callable) -> list[tuple]:
        return [(fn, (a, v)) for a, v in zip(addresses, values)]

    node_reads = [(fabric.nodes[loc.node].read_word, (loc.offset,)) for loc in located]
    node_writes = [
        (fabric.nodes[loc.node].write_word, (loc.offset, v)) for loc, v in zip(located, values)
    ]
    rungs = (
        node_reads,
        reads(fabric.extents.locate),
        reads(fabric.read_word),
        reads(client.read_u64),
        node_writes,
        writes(fabric.write_word),
        writes(client.write_u64),
    )
    return {name: _per_call_ns(calls) for name, calls in zip(LADDER_METRICS, rungs)}
