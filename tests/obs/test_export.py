"""Exporter tests: JSONL stream, Chrome trace schema, tamper detection."""

import copy
import io
import json

import pytest

from repro import Cluster
from repro.obs import (
    Tracer,
    chrome_trace,
    iter_jsonl_records,
    load_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def _traced_run():
    """A small pipelined workload with nested spans, finished and ready
    to export."""
    cluster = Cluster(node_count=2, node_size=8 << 20)
    client = cluster.client("worker", qp_depth=8)
    tracer = Tracer()
    tracer.attach(client)
    tree = cluster.ht_tree(bucket_count=128)
    with tracer.span(client, "load"):
        for key in range(16):
            tree.put(client, key, key * 2)
    with tracer.span(client, "lookup"):
        assert tree.multiget(client, list(range(16))) == [
            key * 2 for key in range(16)
        ]
    tracer.finish()
    return client, tracer


class TestJsonl:
    def test_stream_shape(self):
        _, tracer = _traced_run()
        records = iter_jsonl_records(tracer)
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == "repro-trace-v1"
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert meta["spans"] == len(spans) == len(tracer.all_spans())
        assert meta["events"] == len(events) == len(tracer.events)
        # Span records carry the causality and accounting fields.
        by_label = {r["label"]: r for r in spans}
        assert by_label["load"]["parent_id"] == by_label["client:worker"]["span_id"]
        # Direct attribution goes to the innermost structure-op spans;
        # the phase span keeps the inclusive delta.
        assert by_label["httree.put"]["far_accesses"] > 0
        assert by_label["load"]["delta"]["far_accesses"] > 0
        assert by_label["load"]["children"] > 0
        # Event records are flat and span-attributed.
        assert all("kind" in r and "span_id" in r and "ts_ns" in r for r in events)

    def test_write_is_line_delimited_json(self, tmp_path):
        _, tracer = _traced_run()
        buffer = io.StringIO()
        count = write_jsonl(buffer, tracer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == count
        parsed = [json.loads(line) for line in lines]
        assert parsed == iter_jsonl_records(tracer)

        path = tmp_path / "run.trace.jsonl"
        assert write_jsonl(str(path), tracer) == count
        assert len(path.read_text().splitlines()) == count


class TestChromeTrace:
    def test_export_is_schema_valid(self):
        _, tracer = _traced_run()
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        assert document["displayTimeUnit"] == "ns"

    def test_lanes_and_phases(self):
        client, tracer = _traced_run()
        events = chrome_trace(tracer)["traceEvents"]
        names = [
            e["args"]["name"] for e in events if e.get("name") == "thread_name"
        ]
        # Spans lane, windows lane, and at least one qp lane, all named
        # after the client.
        assert "worker spans" in names
        assert "worker windows" in names
        assert any(name.startswith("worker qp") for name in names)

        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == len(tracer.all_spans())
        labels = {e["name"] for e in begins}
        assert {"client:worker", "load", "lookup"} <= labels

        windows = [
            e for e in events if e["ph"] == "X" and "reason" in e.get("args", {})
        ]
        assert windows
        # Window slices carry the overlap accounting; member-op slices on
        # the qp lanes point back at their spans.
        for window in windows:
            assert window["args"]["charged_ns"] <= window["args"]["serial_ns"]
        qp_slices = [
            e for e in events if e["ph"] == "X" and "charge_ns" in e.get("args", {})
        ]
        assert sum(1 for _ in qp_slices) == client.metrics.pipeline_ops

    def test_open_spans_synthesize_end_events(self):
        cluster = Cluster(node_count=1, node_size=8 << 20)
        client = cluster.client("live")
        tracer = Tracer()
        tracer.attach(client)
        counter = cluster.far_counter()
        counter.increment(client)
        # No finish(): the root span is still open at export time, so the
        # exporter synthesizes its E at the client's current clock.
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        ends = [e for e in document["traceEvents"] if e["ph"] == "E"]
        assert [e["name"] for e in ends] == ["client:live"]
        assert ends[0]["ts"] == client.clock.now_ns / 1_000.0

    def test_write_and_load_roundtrip(self, tmp_path):
        _, tracer = _traced_run()
        path = tmp_path / "run.trace.json"
        document = write_chrome_trace(str(path), tracer)
        assert load_chrome_trace(str(path)) == document


class TestValidation:
    @pytest.fixture()
    def document(self):
        _, tracer = _traced_run()
        return chrome_trace(tracer)

    def test_rejects_non_document(self):
        assert validate_chrome_trace([]) == [
            "document must be a dict with a 'traceEvents' list"
        ]
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_detects_dropped_end(self, document):
        tampered = copy.deepcopy(document)
        index = next(
            i for i, e in enumerate(tampered["traceEvents"]) if e["ph"] == "E"
        )
        del tampered["traceEvents"][index]
        problems = validate_chrome_trace(tampered)
        assert any("never closed" in p for p in problems)

    def test_detects_name_mismatch(self, document):
        tampered = copy.deepcopy(document)
        end = next(e for e in tampered["traceEvents"] if e["ph"] == "E")
        end["name"] = "imposter"
        problems = validate_chrome_trace(tampered)
        assert any("does not match open B" in p for p in problems)

    def test_detects_backwards_timestamps(self, document):
        tampered = copy.deepcopy(document)
        last_b = [e for e in tampered["traceEvents"] if e["ph"] == "B"][-1]
        last_b["ts"] = -1.0
        problems = validate_chrome_trace(tampered)
        assert any("goes backwards" in p for p in problems)

    def test_detects_negative_duration(self, document):
        tampered = copy.deepcopy(document)
        slice_event = next(
            e for e in tampered["traceEvents"] if e["ph"] == "X"
        )
        slice_event["dur"] = -1.0
        problems = validate_chrome_trace(tampered)
        assert any("non-negative dur" in p for p in problems)

    def test_detects_malformed_events(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "no-ph"},
                    {"ph": "Z", "pid": 1, "tid": 0, "ts": 0},
                    {"ph": "B", "name": "a", "ts": 0},
                    {"ph": "i", "pid": 1, "tid": 0},
                    {"ph": "E", "pid": 1, "tid": 9, "ts": 0},
                ]
            }
        )
        assert len(problems) == 5
        assert any("not a dict with 'ph'" in p for p in problems)
        assert any("unsupported phase" in p for p in problems)
        assert any("missing pid/tid" in p for p in problems)
        assert any("missing numeric ts" in p for p in problems)
        assert any("E with no open B" in p for p in problems)


class TestTelemetryExports:
    """Prometheus text + telemetry JSONL over a live registry."""

    @pytest.fixture()
    def registry(self):
        from repro.obs import SLOMonitor, TelemetryRegistry

        cluster = Cluster(node_count=2, node_size=8 << 20)
        client = cluster.client("worker")
        tracer = Tracer()
        tracer.attach(client)
        registry = TelemetryRegistry(window_ns=10_000).observe(tracer)
        monitor = SLOMonitor(registry)
        tree = cluster.ht_tree(bucket_count=64)
        for key in range(32):
            tree.put(client, key, key)
        registry.sample_client(client)
        monitor.finish(client)
        self.client = client
        return registry

    def test_prometheus_text_shape(self, registry):
        from repro.obs import prometheus_text

        text = prometheus_text(registry)
        lines = text.splitlines()
        # TYPE headers precede their samples, one per metric name.
        assert "# TYPE repro_far_accesses_total counter" in lines
        assert "# TYPE repro_far_latency_ns summary" in lines
        assert (
            f'repro_far_accesses_total{{scope="fleet"}} '
            f"{self.client.metrics.far_accesses}" in lines
        )
        # Scoped labels: client + node + structure variants all present.
        assert any(
            line.startswith('repro_far_accesses_total{scope="client",client="worker"}')
            for line in lines
        )
        assert any('scope="node",node="' in line for line in lines)
        assert any('scope="structure",structure="httree"' in line for line in lines)
        # Summaries carry quantile/sum/count triads.
        assert any('quantile="0.99"' in line for line in lines)
        assert any(line.startswith("repro_far_latency_ns_sum") for line in lines)
        assert any(line.startswith("repro_far_latency_ns_count") for line in lines)
        # Sampled client gauges export with sanitized names.
        assert any(
            line.startswith("repro_metrics_far_accesses{") for line in lines
        )
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        from repro.obs import TelemetryRegistry, prometheus_text

        assert prometheus_text(TelemetryRegistry()) == ""

    def test_write_prometheus_counts_samples(self, registry, tmp_path):
        from repro.obs import prometheus_text, write_prometheus

        path = tmp_path / "snap.prom"
        count = write_prometheus(str(path), registry)
        text = path.read_text()
        assert text == prometheus_text(registry)
        samples = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(samples) == count > 0

    def test_telemetry_jsonl_roundtrip(self, registry, tmp_path):
        from repro.obs import telemetry_records, write_telemetry_jsonl

        path = tmp_path / "snap.metrics.jsonl"
        count = write_telemetry_jsonl(str(path), registry)
        lines = path.read_text().splitlines()
        assert len(lines) == count
        parsed = [json.loads(line) for line in lines]
        records = telemetry_records(registry)
        assert len(parsed) == len(records)
        meta = parsed[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == "repro-telemetry-v1"
        assert meta["window_ns"] == registry.window_ns
        by_kind = {}
        for record in parsed[1:]:
            assert record["type"] == "series"
            by_kind.setdefault(record["series"], []).append(record)
        assert set(by_kind) == {"counter", "gauge", "histogram"}
        fleet_far = next(
            r
            for r in by_kind["counter"]
            if r["scope"] == {"kind": "fleet"} and r["name"] == "far_accesses"
        )
        assert fleet_far["total"] == self.client.metrics.far_accesses
        # Window lists replay the total exactly.
        assert sum(v for _w, v in fleet_far["windows"]) == fleet_far["total"]
        hist = next(
            r
            for r in by_kind["histogram"]
            if r["scope"] == {"kind": "fleet"} and r["name"] == "far_latency_ns"
        )
        assert hist["summary"]["count"] == self.client.metrics.far_accesses
