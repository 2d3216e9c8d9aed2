"""Trace exporters: JSONL event stream and Chrome trace-event JSON.

The Chrome trace format (``chrome://tracing`` / https://ui.perfetto.dev)
renders the pipeline visually: each client gets a *spans* lane (nested
``B``/``E`` slices for logical operations), a *windows* lane (one ``X``
slice per doorbell flush, annotated with charged/serial/saved ns), and a
set of *qp* lanes where the individual operations of one overlap window
are drawn side by side — overlapping slices wider than their window make
latency hiding visually inspectable, and a window slice shorter than the
sum of its member ops *is* the overlap the metrics report in
``overlap_saved_ns``.

Timestamps are simulated nanoseconds converted to the format's
microseconds. Every client is one "thread" group under a single "repro"
process; lanes are named via metadata events.

:func:`validate_chrome_trace` is the minimal schema check CI runs on
exported traces: every ``B`` has a matching ``E`` (LIFO per lane),
timestamps are monotone per lane, durations are non-negative.
:func:`validate_jsonl` is its JSONL counterpart: every event record
matches its row of the event table (:mod:`repro.obs.events`).
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Optional, Union

from .events import ENVELOPE, check_payload
from .trace import Span, Tracer

# Lane layout per client: tid = client_id * LANE_STRIDE + offset.
LANE_STRIDE = 24
SPAN_LANE = 0
WINDOW_LANE = 1
QP_LANE_BASE = 2
QP_LANES = 16  # window members beyond this fold onto lanes modulo QP_LANES

_PID = 1


def _us(ns: float) -> float:
    return ns / 1_000.0


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def iter_jsonl_records(tracer: Tracer) -> "list[dict[str, Any]]":
    """Every span (closed and open) and every event as flat dicts."""
    records: list[dict[str, Any]] = [
        {
            "type": "meta",
            "schema": "repro-trace-v1",
            "spans": len(tracer.all_spans()),
            "events": len(tracer.events),
        }
    ]
    records.extend(span.to_dict() for span in tracer.all_spans())
    records.extend(event.to_dict() for event in tracer.events)
    return records


def write_jsonl(target: Union[str, IO[str]], tracer: Tracer) -> int:
    """Write the JSONL event stream; returns the record count."""
    records = iter_jsonl_records(tracer)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    else:
        for record in records:
            target.write(json.dumps(record) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------


def _lane(client_id: int, offset: int) -> int:
    return client_id * LANE_STRIDE + offset


def _span_boundaries(tracer: Tracer) -> list[tuple[str, float, Span]]:
    """The tracer's boundary log, plus synthesized ``E`` entries for spans
    still open at export time (top of stack first, so pairing stays LIFO)."""
    boundaries = list(tracer._span_log)
    for client_id, stack in tracer._stacks.items():
        client = tracer._clients.get(client_id)
        now = client.clock.now_ns if client is not None else 0.0
        for span in reversed(stack):
            boundaries.append(("E", now, span))
    return boundaries


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Build the Chrome trace-event JSON document (as a dict)."""
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro far-memory fabric"},
        }
    ]
    named_lanes: set[int] = set()

    def name_lane(client_name: str, client_id: int, offset: int, suffix: str) -> int:
        tid = _lane(client_id, offset)
        if tid not in named_lanes:
            named_lanes.add(tid)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": f"{client_name} {suffix}"},
                    # sort_index keeps each client's lanes grouped in order
                    "ts": 0,
                }
            )
        return tid

    # Spans: B/E pairs straight off the (LIFO-correct) boundary log.
    for phase, ts, span in _span_boundaries(tracer):
        tid = name_lane(span.client_name, span.client_id, SPAN_LANE, "spans")
        entry: dict[str, Any] = {
            "ph": phase,
            "name": span.label,
            "pid": _PID,
            "tid": tid,
            "ts": _us(ts),
        }
        if phase == "B":
            args: dict[str, Any] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.tags:
                args.update({k: repr(v) for k, v in span.tags.items()})
            entry["args"] = args
        else:
            entry["args"] = {
                "span_id": span.span_id,
                "far_accesses": span.far_accesses,
            }
        events.append(entry)

    # Typed events: windows become X slices (window lane + qp lanes for
    # their member ops); everything else becomes a thread-scoped instant.
    # An event's lane is its span's client: names repeat across clusters.
    client_of_span = {span.span_id: span.client_id for span in tracer.all_spans()}
    for event in tracer.events:
        client_id = client_of_span[event.span_id]
        if event.kind == "window":
            tid = name_lane(event.client, client_id, WINDOW_LANE, "windows")
            data = event.data
            events.append(
                {
                    "ph": "X",
                    "name": f"window[{data['n']}] {data['reason']}",
                    "pid": _PID,
                    "tid": tid,
                    "ts": _us(data["start_ns"]),
                    "dur": _us(data["charged_ns"]),
                    "args": {
                        "n": data["n"],
                        "reason": data["reason"],
                        "charged_ns": data["charged_ns"],
                        "serial_ns": data["serial_ns"],
                        "saved_ns": data["saved_ns"],
                    },
                }
            )
            for index, op in enumerate(data["ops"]):
                qp = QP_LANE_BASE + index % QP_LANES
                op_tid = name_lane(
                    event.client, client_id, qp, f"qp{index % QP_LANES}"
                )
                events.append(
                    {
                        "ph": "X",
                        "name": op["op"],
                        "pid": _PID,
                        "tid": op_tid,
                        "ts": _us(data["start_ns"]),
                        "dur": _us(op["charge_ns"]),
                        "args": {
                            "charge_ns": op["charge_ns"],
                            "span_id": op["span_id"],
                        },
                    }
                )
        else:
            tid = name_lane(event.client, client_id, WINDOW_LANE, "windows")
            events.append(
                {
                    "ph": "i",
                    "name": event.kind,
                    "pid": _PID,
                    "tid": tid,
                    "ts": _us(event.ts_ns),
                    "s": "t",
                    "args": dict(event.data),
                }
            )

    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str, tracer: Tracer) -> dict[str, Any]:
    """Export and write the Chrome trace JSON; returns the document."""
    document = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document))  # json.dump streams through the pure-Python encoder
    return document


# ----------------------------------------------------------------------
# Validation (the CI schema check)
# ----------------------------------------------------------------------


def validate_chrome_trace(document: Any) -> list[str]:
    """Check a Chrome trace document against the minimal schema.

    Returns a list of problems (empty = valid): well-formed events, every
    ``B`` matched by an ``E`` in LIFO order per (pid, tid) lane, start
    timestamps monotone non-decreasing per lane, non-negative durations.
    """
    errors: list[str] = []
    if not isinstance(document, dict) or not isinstance(
        document.get("traceEvents"), list
    ):
        return ["document must be a dict with a 'traceEvents' list"]
    lanes: dict[tuple[Any, Any], dict[str, Any]] = {}
    for index, event in enumerate(document["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            errors.append(f"event {index}: not a dict with 'ph'")
            continue
        phase = event["ph"]
        if phase == "M":
            continue
        if phase not in ("B", "E", "X", "i"):
            errors.append(f"event {index}: unsupported phase {phase!r}")
            continue
        if "pid" not in event or "tid" not in event:
            errors.append(f"event {index}: missing pid/tid")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {index}: missing numeric ts")
            continue
        lane = lanes.setdefault(
            (event["pid"], event["tid"]), {"last_ts": None, "stack": []}
        )
        if lane["last_ts"] is not None and ts < lane["last_ts"]:
            errors.append(
                f"event {index}: ts {ts} goes backwards on lane "
                f"{(event['pid'], event['tid'])} (last {lane['last_ts']})"
            )
        lane["last_ts"] = ts
        if phase == "B":
            lane["stack"].append((event.get("name"), index))
        elif phase == "E":
            if not lane["stack"]:
                errors.append(f"event {index}: E with no open B on its lane")
            else:
                name, _ = lane["stack"].pop()
                if event.get("name") is not None and name != event.get("name"):
                    errors.append(
                        f"event {index}: E name {event.get('name')!r} does not "
                        f"match open B {name!r}"
                    )
        elif phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {index}: X without non-negative dur")
    for (pid, tid), lane in lanes.items():
        for name, index in lane["stack"]:
            errors.append(
                f"B event {index} ({name!r}) on lane {(pid, tid)} never closed"
            )
    return errors


def load_chrome_trace(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_jsonl(lines: Iterable[str]) -> list[str]:
    """Check the lines of a ``.trace.jsonl`` export against the event
    table: every event record is a declared kind carrying its row's keys
    in the row's order (:func:`repro.obs.events.check_payload`). Returns a
    list of problems (empty = valid)."""
    errors: list[str] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            errors.append(f"line {number}: not JSON")
            continue
        if record.get("type") == "event":
            problem = check_payload(record.get("kind"), record, ENVELOPE)
            if problem:
                errors.append(f"line {number}: {problem}")
    return errors


# ----------------------------------------------------------------------
# Telemetry snapshots: Prometheus text exposition + JSONL
# ----------------------------------------------------------------------

_SCOPE_LABEL_KEYS = {
    "node": "node",
    "extent": "extent",
    "client": "client",
    "structure": "structure",
}

_QUANTILES = ((0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"))


def _prom_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


def _prom_labels(scope: tuple, extra: str = "") -> str:
    parts = [f'scope="{scope[0]}"']
    key = _SCOPE_LABEL_KEYS.get(scope[0])
    if key is not None and len(scope) > 1:
        value = str(scope[1]).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{key}="{value}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: Any) -> str:
    """Render a TelemetryRegistry as Prometheus text exposition format.

    Counters export as ``repro_<name>_total``, gauges as
    ``repro_<name>``, histogram rings as summaries (quantiles over the
    exact cumulative histogram plus ``_sum``/``_count``). One snapshot
    is one scrape: timestamps are omitted, Prometheus semantics apply.
    """
    lines: list[str] = []
    last_header: Optional[str] = None

    def header(name: str, kind: str) -> None:
        nonlocal last_header
        if name != last_header:
            lines.append(f"# TYPE {name} {kind}")
            last_header = name

    for scope, name, series in registry.counters():
        metric = _prom_name(name) + "_total"
        header(metric, "counter")
        lines.append(f"{metric}{_prom_labels(scope)} {_prom_value(series.total)}")
    for scope, name, series in registry.gauges():
        metric = _prom_name(name)
        header(metric, "gauge")
        lines.append(f"{metric}{_prom_labels(scope)} {_prom_value(series.value)}")
    for scope, name, ring in registry.histograms():
        metric = _prom_name(name)
        header(metric, "summary")
        hist = ring.total
        for fraction, label in _QUANTILES:
            quantile = 'quantile="%s"' % label
            lines.append(
                f"{metric}{_prom_labels(scope, quantile)} "
                f"{_prom_value(hist.percentile(fraction))}"
            )
        lines.append(f"{metric}_sum{_prom_labels(scope)} {_prom_value(hist.total_ns)}")
        lines.append(f"{metric}_count{_prom_labels(scope)} {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: str, registry: Any) -> int:
    """Write the Prometheus snapshot; returns the sample-line count."""
    text = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(1 for line in text.splitlines() if not line.startswith("#"))


def _scope_dict(scope: tuple) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": scope[0]}
    key = _SCOPE_LABEL_KEYS.get(scope[0])
    if key is not None and len(scope) > 1:
        out[key] = scope[1]
    return out


def telemetry_records(registry: Any) -> list[dict[str, Any]]:
    """Every registry series as flat dicts (meta record first)."""
    records: list[dict[str, Any]] = [
        {
            "type": "meta",
            "schema": "repro-telemetry-v1",
            "window_ns": registry.window_ns,
            "ring_windows": registry.ring_windows,
            "last_ts_ns": registry.last_ts_ns,
            "current_window": registry.current_window,
        }
    ]
    for scope, name, series in registry.counters():
        records.append(
            {
                "type": "series",
                "series": "counter",
                "scope": _scope_dict(scope),
                "name": name,
                "total": series.total,
                "windows": series.windows(),
            }
        )
    for scope, name, series in registry.gauges():
        records.append(
            {
                "type": "series",
                "series": "gauge",
                "scope": _scope_dict(scope),
                "name": name,
                "value": series.value,
                "ts_ns": series.ts_ns,
                "windows": series.windows(),
            }
        )
    for scope, name, ring in registry.histograms():
        records.append(
            {
                "type": "series",
                "series": "histogram",
                "scope": _scope_dict(scope),
                "name": name,
                "summary": ring.total.summary(),
                "windows": [
                    [w, ring.window_hist(w).summary()] for w in ring.windows()
                ],
            }
        )
    return records


def write_telemetry_jsonl(path: str, registry: Any) -> int:
    """Write the telemetry snapshot as JSONL; returns the record count."""
    records = telemetry_records(registry)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


_ = Optional  # quiet linters that dislike conditional typing imports
