"""Span-wrapper hygiene: everything patched is restored by identity, and the
benchmark's own tracer has no effect on any simulated quantity."""

from __future__ import annotations

import harness
from spans import LAYERS, SpanRecorder
from workloads import WORKLOADS

from repro.core import ht_tree
from repro.core.ht_tree import HTTree
from repro.fabric import wire
from repro.fabric.client import Client
from repro.fabric.memory_node import MemoryNode


def test_uninstall_restores_every_attribute_by_identity():
    classes = (HTTree, Client, MemoryNode)
    before = {(cls, name): member for cls in classes for name, member in vars(cls).items()}
    imported_decode = ht_tree.decode_u64
    assert imported_decode is wire.decode_u64

    recorder = SpanRecorder().install()
    patched = recorder.patched()
    assert len(patched) > 100
    assert vars(HTTree)["get"] is not before[(HTTree, "get")]
    assert ht_tree.decode_u64 is not imported_decode  # patched where it was imported
    assert vars(HTTree)["_get"] is before[(HTTree, "_get")]  # private: left alone

    recorder.uninstall()
    assert recorder.patched() == []
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)
    for (cls, name), member in before.items():
        assert vars(cls)[name] is member, (cls, name)
    assert ht_tree.decode_u64 is imported_decode and wire.decode_u64 is imported_decode


def test_untraced_pass_after_a_traced_one_is_bit_identical():
    for name in ("kv_update", "raw_fabric", "txn_transfer"):
        workload = WORKLOADS[name]
        inputs = workload.generate(11, True)
        bounds = harness.chunk_bounds(len(inputs.requests), True)
        clean, _ = harness.run_pass(workload, inputs, bounds)
        recorder = SpanRecorder().install()
        try:
            traced, _ = harness.run_pass(workload, inputs, bounds)
        finally:
            recorder.uninstall()
        after, _ = harness.run_pass(workload, inputs, bounds)
        harness.check_same(f"{name}: traced vs clean", clean, traced)
        harness.check_same(f"{name}: clean after traced vs clean", clean, after)
        assert clean.counters == traced.counters == after.counters
        assert set(recorder.self_ns) == set(LAYERS) and recorder.covered_ns() > 0
