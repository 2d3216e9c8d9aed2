"""Workload generators: key distributions, operation mixes, metric streams."""

from .keydist import KeyDistribution, Sequential, Uniform, Zipf
from .metric_stream import MetricStream
from .ycsb import (
    YcsbWorkload,
    names as ycsb_names,
    operations as ycsb_operations,
    workload as ycsb_workload,
)
from .opmix import (
    READ_MOSTLY,
    READ_ONLY,
    WRITE_HEAVY,
    Op,
    OperationMix,
    OpKind,
    generate,
)

__all__ = [
    "KeyDistribution",
    "Sequential",
    "Uniform",
    "Zipf",
    "MetricStream",
    "READ_MOSTLY",
    "READ_ONLY",
    "WRITE_HEAVY",
    "Op",
    "OperationMix",
    "OpKind",
    "generate",
    "YcsbWorkload",
    "ycsb_names",
    "ycsb_operations",
    "ycsb_workload",
]
