"""Observability for the far-memory fabric: causal tracing, latency
histograms over the simulated clock, a live telemetry plane (windowed
time-series + SLO burn-rate alerting + text dashboards), and exporters.

The tracer and the telemetry registry are strictly observers — attaching
either changes no metric counter and no simulated timestamp (see
:mod:`repro.obs.trace` and :mod:`repro.obs.telemetry` for the
invariants). Typical use::

    from repro.obs import Tracer, TelemetryRegistry, SLOMonitor

    tracer = Tracer()
    registry = TelemetryRegistry().observe(tracer)
    monitor = SLOMonitor(registry)
    with tracer.span(client, "httree.get", key=k):
        tree.get(client, k)
    tracer.finish()
    monitor.finish()
    print(tracer.summary())
    print(render_top(registry, monitor))
"""

from .dashboard import (
    render_extents,
    render_fleet,
    render_nodes,
    render_slos,
    render_structures,
    render_top,
)
from .events import EVENT_KINDS, EVENTS
from .export import (
    chrome_trace,
    iter_jsonl_records,
    load_chrome_trace,
    prometheus_text,
    telemetry_records,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_telemetry_jsonl,
)
from .histogram import HistogramSet, LatencyHistogram
from .slo import SLOAlert, SLObjective, SLOMonitor, default_objectives
from .telemetry import (
    CLIENT_COUNTER_FIELDS,
    FLEET,
    CounterSeries,
    GaugeSeries,
    HistogramRing,
    TelemetryRegistry,
)
from .trace import (
    Span,
    TraceEvent,
    Tracer,
    set_default_sink,
    set_default_tracer,
)

__all__ = [
    "CLIENT_COUNTER_FIELDS",
    "EVENTS",
    "EVENT_KINDS",
    "FLEET",
    "CounterSeries",
    "GaugeSeries",
    "HistogramRing",
    "HistogramSet",
    "LatencyHistogram",
    "SLOAlert",
    "SLObjective",
    "SLOMonitor",
    "Span",
    "TelemetryRegistry",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "default_objectives",
    "iter_jsonl_records",
    "load_chrome_trace",
    "prometheus_text",
    "render_extents",
    "render_fleet",
    "render_nodes",
    "render_slos",
    "render_structures",
    "render_top",
    "set_default_sink",
    "set_default_tracer",
    "telemetry_records",
    "validate_chrome_trace",
    "validate_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "write_telemetry_jsonl",
]
