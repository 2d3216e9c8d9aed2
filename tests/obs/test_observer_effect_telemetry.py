"""Observer-effect guarantees of the telemetry plane on the real A6/A8
benchmark scenarios: attaching the registry changes zero far-access
counts and zero simulated clock ticks — and, on an example run the way
``python -m repro trace`` runs it, not one record of the trace."""

from __future__ import annotations

import os
import sys

# The bench modules live outside the package; make them importable and
# shrink their workloads before the module-level constants freeze.
os.environ.setdefault("FM_BENCH_SMOKE", "1")
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
)

import bench_a6_pipeline as a6  # noqa: E402
import bench_a8_migration as a8  # noqa: E402

import repro.__main__ as repro_main  # noqa: E402
from repro.fabric.client import Client  # noqa: E402
from repro.obs import (  # noqa: E402
    FLEET,
    TelemetryRegistry,
    Tracer,
    chrome_trace,
    iter_jsonl_records,
)


class TestA6PipelineScenario:
    def test_depth1_with_registry_equals_bare_sequential(self):
        """The instrumented depth-1 run (tracer + registry sink) lands on
        exactly the bare sequential path's far count and wall-clock."""
        Client.reset_ids()
        baseline = a6._sequential_baseline()
        Client.reset_ids()
        observed = a6._run_at_depth(1)
        assert observed["far_accesses"] == baseline["far_accesses"]
        assert observed["elapsed_ns"] == baseline["elapsed_ns"]


class TestA8MigrationScenario:
    def test_drain_is_bit_identical_with_telemetry(self):
        """The full drain-under-YCSB scenario: same copies charged, same
        ops applied, same clocks, with and without the registry."""
        Client.reset_ids()
        bare = a8._drain_under_ycsb(telemetry=False)
        Client.reset_ids()
        observed = a8._drain_under_ycsb(telemetry=True)
        for key in (
            "extents_moved",
            "charged_copy_accesses",
            "ycsb_ops_applied",
            "bytes_lost",
            "driver_clock_ns",
            "worker_clock_ns",
            "driver_far",
            "worker_far",
        ):
            assert bare[key] == observed[key], key
        # The bare run had nothing watching; the observed run converged
        # to the drained layout from events alone.
        assert bare["telemetry_converged"] is None
        assert observed["telemetry_converged"] is True
        assert observed["telemetry_drained"] is True


class TestTraceExport:
    def test_a_registry_leaves_the_fault_burst_trace_as_it_was(self):
        """The faulty example traced bare and traced with a registry
        attached, as ``repro trace`` attaches one: the JSONL records and
        the Chrome trace are equal, timeouts and retries included."""
        exports = []
        for observed in (False, True):
            Client.reset_ids()
            tracer = Tracer()
            registry = TelemetryRegistry().observe(tracer) if observed else None
            repro_main._run_example("fault_burst", tracer=tracer)
            tracer.finish()
            exports.append((iter_jsonl_records(tracer), chrome_trace(tracer)))
        assert registry.counter_total(FLEET, "timeouts") > 0
        assert exports[0] == exports[1]
