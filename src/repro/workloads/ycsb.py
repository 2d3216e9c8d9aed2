"""YCSB-style workload presets.

The Yahoo! Cloud Serving Benchmark core workloads are the lingua franca
of key-value evaluation; expressing them as
:class:`~repro.workloads.opmix.OperationMix` + key distribution pairs
lets the map benchmarks sweep recognisable shapes:

========  ==========================  ==================
workload  mix                          distribution
========  ==========================  ==================
A         50% read / 50% update        zipfian
B         95% read / 5% update         zipfian
C         100% read                    zipfian
D         95% read / 5% insert         latest-skewed
E         95% scan / 5% insert         zipfian starts
F         50% read / 50% rmw (update)  zipfian
========  ==========================  ==================

Workload E emits :attr:`~repro.workloads.opmix.OpKind.SCAN` operations
(``key`` = range start, ``value`` = span, uniform in [1, max_scan]); only
range-capable structures serve it — of this library's maps, the HT-tree
(whose leaves partition the key space by range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .keydist import KeyDistribution, Sequential, Uniform, Zipf
from .opmix import Op, OperationMix, OpKind, generate


@dataclass(frozen=True)
class YcsbWorkload:
    """One named preset: A update heavy, B read mostly, C read only, D read
    latest, E short scans, F read-modify-write."""

    name: str
    mix: OperationMix
    zipfian: bool


_PRESETS = {
    "A": YcsbWorkload("A", OperationMix(read=0.5, update=0.5, insert=0.0), True),
    "B": YcsbWorkload("B", OperationMix(read=0.95, update=0.05, insert=0.0), True),
    "C": YcsbWorkload("C", OperationMix(read=1.0, update=0.0, insert=0.0), True),
    "D": YcsbWorkload("D", OperationMix(read=0.95, update=0.0, insert=0.05), False),
    "E": YcsbWorkload("E", OperationMix(read=0.95, update=0.0, insert=0.05), True),
    "F": YcsbWorkload("F", OperationMix(read=0.5, update=0.5, insert=0.0), True),
}


def workload(name: str) -> YcsbWorkload:
    """Fetch a preset by letter; raises for unknown names."""
    try:
        return _PRESETS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown YCSB workload {name!r}") from None


def operations(
    name: str,
    keyspace: int,
    count: int,
    *,
    seed: int = 0,
    zipf_s: float = 1.1,
    max_scan: int = 100,
) -> Iterator[Op]:
    """Generate ``count`` operations for preset ``name``.

    Zipfian presets draw hot keys with exponent ``zipf_s``; workload D
    models "read latest" with a sequential insert stream and uniform reads
    over the existing keyspace; workload E turns its read slots into SCAN
    operations with spans uniform in ``[1, max_scan]``.
    """
    preset = workload(name)
    keys: KeyDistribution
    if preset.zipfian:
        keys = Zipf(keyspace, seed=seed, s=zipf_s)
    else:
        keys = Uniform(keyspace, seed=seed)
    fresh = Sequential(1 << 62, seed=seed, start=keyspace)
    stream = generate(preset.mix, keys, count, seed=seed, fresh_keys=fresh)
    if preset.name != "E":
        return stream
    spans = np.random.default_rng(seed ^ 0xE).integers(1, max_scan + 1, size=count)
    return (
        Op(OpKind.SCAN, op.key, int(spans[i]))
        if op.kind is OpKind.READ
        else op
        for i, op in enumerate(stream)
    )


def names() -> list[str]:
    """The supported preset letters."""
    return sorted(_PRESETS)
