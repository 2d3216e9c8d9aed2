"""Export-bytes pin: the observer's four artefacts of one scripted scenario.

Two clients on independent clocks (one of them pipelined), a seeded fault
burst that fires SLO alerts, a drain and a replica repair run under a
``Tracer`` + ``TelemetryRegistry`` + ``SLOMonitor``; the Prometheus text,
the telemetry JSONL, the Chrome trace and the trace JSONL are hashed. The
constants were computed on the commit *before* the registry started
folding events in batches, so they prove that when a roll-up runs is not
visible in what is exported — including where each ``slo_alert`` lands in
the stream and every float sum (``_sum``, ``mean_ns``; the spike
multiplier makes the charges non-integral on purpose).

A change to a constant is a deliberate export change and must name the
fields that moved. Re-stated once, by the gauge-timestamp fix that followed
the fold: ``TELEMETRY_JSONL_SHA256`` was ``ad8c56f9…85cb6e`` on the parent;
the 27 records that moved are the event-fed gauges (13 ``epoch``, 13
``migration_progress``, 1 ``repair_progress``), each in its ``ts_ns`` field
only — now the emitting client's clock, not the fleet's newest timestamp.
The other three constants are the parent's.
"""

import hashlib
import io
import json

from repro import Cluster
from repro.fabric import FaultPlan, RetryPolicy
from repro.fabric.client import Client
from repro.fabric.errors import FabricError
from repro.fabric.replication import ReplicatedRegion
from repro.obs import (
    SLOMonitor,
    TelemetryRegistry,
    Tracer,
    chrome_trace,
    prometheus_text,
    telemetry_records,
    write_jsonl,
)
from repro.recovery import RepairCoordinator

PROMETHEUS_SHA256 = "5b5230fc693b4fd1805cc8e5573121762068715c8bacaa88b92d1bb3e05d7c92"
TELEMETRY_JSONL_SHA256 = "4bde9e40dba68b2868447fa65368dec1c9c3a3eeade61be83caf2528d2bc0c85"
CHROME_TRACE_SHA256 = "11ffe76619eba2c59fc312cea6b2e2d2e91377069c0b98523553f236c76959e1"
TRACE_JSONL_SHA256 = "3935d6f369f9c2671391c7cac965eb8ddfe426598f2a55f80bf320d80d769ee6"

ITEMS = 96


def _scenario():
    Client.reset_ids()
    cluster = Cluster(node_count=4, node_size=4 << 20)
    tracer = Tracer()
    registry = TelemetryRegistry(window_ns=20_000, ring_windows=8).observe(tracer)
    monitor = SLOMonitor(registry)
    app = cluster.client("app", retry_policy=RetryPolicy(max_attempts=6))
    batch = cluster.client("batch", qp_depth=4, retry_policy=RetryPolicy(max_attempts=6))
    tracer.attach(app)
    tracer.attach(batch)

    tree = cluster.ht_tree(bucket_count=64)
    for key in range(ITEMS):
        tree.put(app, key, key * 3)
    region = ReplicatedRegion.create_framed(
        cluster.allocator, block_payload=64, block_count=8, copies=2
    )
    coordinator = RepairCoordinator(cluster.allocator, home_node=3)
    coordinator.register(app, region)
    for block in range(8):
        region.write_block(app, block, bytes([block]) * 64)

    # The burst: timeouts burn the timeout-ratio budget, the spikes make
    # charges (hence histogram sums and overlap savings) non-integral.
    cluster.inject_faults(
        seed=77,
        plan=FaultPlan().random_timeouts(0.08).random_spikes(0.1, multiplier=2.7183),
    )
    for i in range(ITEMS):
        try:
            with app.trace("app.lookup", key=i):
                tree.get(app, i % ITEMS)
            if i % 8 == 0:
                tree.multiget(batch, list(range(i, i + 8)))
        except FabricError:
            pass
    cluster.fabric.set_fault_injector(None)
    for i in range(ITEMS // 2):
        tree.get(app, i)

    cluster.add_node()
    cluster.drain_node(1, batch)
    dead = cluster.fabric.node_of(region.replicas[0])
    cluster.fabric.fail_node(dead)
    coordinator.run(app, dead)

    tracer.finish()
    monitor.finish()
    registry.sample_client(app)
    registry.sample_client(batch)
    return tracer, registry, monitor


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _artefacts(tracer, registry):
    trace_jsonl = io.StringIO()
    write_jsonl(trace_jsonl, tracer)
    return {
        "prometheus": _sha(prometheus_text(registry)),
        "telemetry_jsonl": _sha(
            "".join(json.dumps(r) + "\n" for r in telemetry_records(registry))
        ),
        "chrome_trace": _sha(json.dumps(chrome_trace(tracer))),
        "trace_jsonl": _sha(trace_jsonl.getvalue()),
    }


def test_the_scenario_exercises_what_it_pins():
    tracer, registry, monitor = _scenario()
    kinds = {event.kind for event in tracer.events}
    assert {"far_access", "window", "timeout", "backoff", "slo_alert"} <= kinds
    assert {"extent_migrate", "remap", "drain", "repair_copy"} <= kinds
    assert monitor.alerts and registry.drained_nodes() == {1}
    assert registry.counter_total(("client", "batch"), "overlap_saved_ns") % 1


def test_export_bytes_are_the_parents():
    tracer, registry, _monitor = _scenario()
    assert _artefacts(tracer, registry) == {
        "prometheus": PROMETHEUS_SHA256,
        "telemetry_jsonl": TELEMETRY_JSONL_SHA256,
        "chrome_trace": CHROME_TRACE_SHA256,
        "trace_jsonl": TRACE_JSONL_SHA256,
    }
