"""Causal tracing over the exact metrics and the simulated clock.

The :class:`~repro.fabric.metrics.Metrics` counters say *how much* a
client spent. This module adds the dimensions the paper's cost arguments
(sections 3.1, 4, 7) need per logical operation: **on what** (a labelled
span's inclusive delta), **when** (simulated start/end timestamps), **why
it was slow** (retry ladders, breaker events, window stalls as typed
events), and **causality** (data structure op → individual far accesses →
pipeline window membership → notification deliveries, as a parent/child
span tree).

Design rules — these are what keep tracing free of observer effects:

* A :class:`Tracer` never touches a client's metrics or clock. Emission
  is bookkeeping only, so every structural count (``far_accesses``,
  ``round_trips``, ``network_traversals``) and every simulated timestamp
  is bit-identical with tracing on or off.
* The event vocabulary is one table (:mod:`repro.obs.events`) and there is
  one emission path, :meth:`Tracer.emit`; only the two hot kinds keep a
  method (``on_far_access``, ``on_window``), which builds the event
  directly — same payload, same sinks, same order. A sink is fed as data:
  an event is appended to its ``pending``, a call only at a window boundary.
* Emission aggregates nothing. The span / op / node / window histograms
  are derived from ``spans`` and ``events`` when they are read, and a
  span's ``delta`` from the counters it read as one tuple at each end.
* Every far access emits exactly one ``far_access`` event, attributed to
  the innermost open span (or the client's implicit root span). Summing
  per-span far-access attributions therefore reproduces the client's
  total with nothing lost or double-counted. Its ``node`` is the home node
  of the one translation ``Client._issue`` makes and hands to the op (all
  but the few ops listed there), so observing an op adds no address lookup.
* Spans per client follow stack discipline on that client's monotone
  clock, so their begin/end boundaries, replayed in the order the tracer
  passed them, export directly as a valid Chrome trace (every ``B`` has an
  ``E``, timestamps monotone per lane).
* A certified op's span is opened by its ``@far_budget`` declaration
  (:mod:`repro.analysis.budget`), never by the op's body; application
  code labels its own phases with :meth:`Client.trace`.

Usage::

    tracer = Tracer()
    tracer.attach(client)                 # or let the first span attach
    with client.trace("warm lookups"):
        tree.get(client, k)               # opens its own httree.get span
    tracer.finish()
    print(tracer.summary())
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..fabric.metrics import Metrics
from .events import EVENTS
from .histogram import HistogramSet, LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fabric.client import Client

# Every first-class counter of a Metrics, read in one call.
_COUNTERS = attrgetter(*Metrics.counter_names())


@dataclass
class TraceEvent:
    """One typed fabric event, attributed to a span."""

    kind: str
    ts_ns: float
    client: str
    span_id: Optional[int]
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "event",
            "kind": self.kind,
            "ts_ns": self.ts_ns,
            "client": self.client,
            "span_id": self.span_id,
            **self.data,
        }


class Span:
    """One logical operation: a metrics delta with timestamps and lineage.

    Building one opens it: it takes the tracer's next span id, becomes a
    child of ``client``'s innermost open span and the top of its stack."""

    __slots__ = (
        "span_id",
        "parent_id",
        "client_id",
        "client_name",
        "label",
        "tags",
        "start_ns",
        "end_ns",
        "is_root",
        "far_accesses",
        "event_count",
        "child_count",
        "opened_at",
        "closed_at",
        "_tracer",
        "_start",
        "_end",
    )

    def __init__(
        self,
        tracer: "Tracer",
        client: "Client",
        label: str,
        tags: dict[str, Any],
        *,
        is_root: bool = False,
    ) -> None:
        stack = tracer._stacks[client.client_id]
        parent = stack[-1] if stack else None
        self._tracer = tracer
        self.span_id = tracer._next_span_id
        tracer._next_span_id += 1
        self.parent_id = None if parent is None else parent.span_id
        self.client_id = client.client_id
        self.client_name = client.name
        self.label = label
        self.tags = tags
        self.start_ns: float = client.clock.now_ns
        self.end_ns: Optional[float] = None
        self.is_root = is_root
        # Far accesses attributed directly to this span (not to children):
        # summing this over every span reproduces the client total exactly.
        self.far_accesses = 0
        self.event_count = 0
        self.child_count = 0
        # The counters as the span opens and as it closes (the tracer reads
        # the second): one tuple each, the free-form ones copied only when
        # there are any. ``delta`` is built from the two when it is read.
        metrics = client.metrics
        self._start = (_COUNTERS(metrics), dict(metrics.custom) if metrics.custom else None)
        self._end: Optional[tuple] = None
        # Where the span's begin and end fall among every span boundary the
        # tracer passes: the Chrome exporter replays them in this order.
        self.opened_at = tracer._boundaries
        self.closed_at: Optional[int] = None
        tracer._boundaries += 1
        if parent is not None:
            parent.child_count += 1
        stack.append(self)

    @property
    def delta(self) -> Optional[Metrics]:
        """Inclusive ``Metrics`` delta over the span's lifetime (children
        count toward their ancestors too); ``None`` while the span is
        open."""
        if self._end is None:
            return None

        def ledger(counters: tuple, custom: Optional[dict]) -> Metrics:
            return Metrics(*counters, custom=Counter(custom or ()))

        return ledger(*self._end).delta(ledger(*self._start))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> bool:
        """Close the span, whether or not the ``with`` block raised."""
        self._tracer._close_span(self)
        return False

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "client": self.client_name,
            "label": self.label,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "far_accesses": self.far_accesses,
            "events": self.event_count,
            "children": self.child_count,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        delta = self.delta
        if delta is not None:
            out["delta"] = {k: v for k, v in delta.as_dict().items() if v}
        return out

    def __repr__(self) -> str:
        state = "open" if self.open else f"{self.duration_ns:.0f}ns"
        return (
            f"Span(#{self.span_id} {self.label!r} client={self.client_name} "
            f"far={self.far_accesses} {state})"
        )


class Tracer:
    """Collects spans, typed events, and latency histograms from clients.

    One tracer may observe many clients; each attached client gets an
    implicit root span so that work outside any explicit ``client.trace``
    scope is still attributed (never lost). Call :meth:`finish` (or
    :meth:`detach` per client) to close root spans before exporting.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []  # closed spans, in close order
        self.events: list[TraceEvent] = []  # global emission-ordered stream
        # Functions of the two lists above, brought up to date when read.
        self._span_hist = HistogramSet()  # span duration per label
        self._op_hist = HistogramSet()  # far-access charge per fabric op
        self._node_hist = HistogramSet()  # far-access charge per memory node
        self._window_hist = LatencyHistogram()  # charged ns per window flush
        self._spans_folded = self._events_folded = 0  # how much of each list
        self._stacks: dict[int, list[Span]] = {}  # client_id -> open spans
        self._clients: dict[int, "Client"] = {}
        self._next_span_id = 1
        self._boundaries = 0  # span opens and closes so far (Span.opened_at)
        # Live consumers of the typed event stream (e.g. a TelemetryRegistry),
        # fed at every emission point: a new call site needs no sink wiring.
        self._sinks: list[Any] = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, client: "Client") -> "Tracer":
        """Start observing ``client`` (idempotent). A client can feed at
        most one tracer; attach replaces nothing silently."""
        if client._tracer is self:
            return self
        if client._tracer is not None:
            raise RuntimeError(
                f"{client.name} is already attached to another tracer; "
                "detach it first"
            )
        client._tracer = self
        self._clients[client.client_id] = client
        self._stacks.setdefault(client.client_id, [])
        Span(self, client, f"client:{client.name}", {}, is_root=True)
        return self

    def detach(self, client: "Client") -> None:
        """Stop observing ``client``: close its open spans (root last)."""
        if client._tracer is not self:
            return
        stack = self._stacks.get(client.client_id, [])
        while stack:
            self._close_span(stack[-1])
        client._tracer = None

    def finish(self) -> "Tracer":
        """Detach every observed client, closing all root spans."""
        for client in list(self._clients.values()):
            self.detach(client)
        return self

    def attached(self, client: "Client") -> bool:
        return client._tracer is self

    def clients(self) -> list["Client"]:
        """Every client this tracer is (or was) observing, attach order."""
        return list(self._clients.values())

    # ------------------------------------------------------------------
    # Sinks (live consumers of the typed event stream)
    # ------------------------------------------------------------------

    def add_sink(self, sink: Any) -> "Tracer":
        """Register a live event consumer (idempotent). A sink exposes
        ``pending``, the list each ``(client, event, span)`` is appended to,
        and ``window_end_ns``, which an event reaching calls
        ``open_window(client, ts_ns)``. Like the tracer itself, a sink must
        never touch the client's metrics or clock."""
        if sink not in self._sinks:
            self._sinks.append(sink)
        return self

    def remove_sink(self, sink: Any) -> "Tracer":
        if sink in self._sinks:
            self._sinks.remove(sink)
        return self

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _close_span(self, span: Span) -> None:
        stack = self._stacks[span.client_id]
        # Defensive: close leaked children first so boundaries stay LIFO.
        while stack and stack[-1] is not span:
            self._close_span(stack[-1])
        if not stack:
            return
        del stack[-1]
        client = self._clients[span.client_id]
        span.end_ns = client.clock.now_ns
        metrics = client.metrics
        span._end = (_COUNTERS(metrics), dict(metrics.custom) if metrics.custom else None)
        span.closed_at = self._boundaries
        self._boundaries += 1
        self.spans.append(span)

    def span(self, client: "Client", label: str, **tags: Any) -> Span:
        """Open a span attributing everything ``client`` does inside the
        ``with`` block to ``label``. Auto-attaches the client on first use."""
        if client._tracer is None:
            self.attach(client)
        elif client._tracer is not self:
            raise RuntimeError(
                f"{client.name} is attached to another tracer; "
                "open the span through that tracer"
            )
        return Span(self, client, label, tags)

    def current_span(self, client: "Client") -> Optional[Span]:
        """The innermost open span for ``client`` (its root if no
        explicit span is open; None if not attached)."""
        stack = self._stacks.get(client.client_id)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Emission (called by Client and the subsystems; bookkeeping only)
    # ------------------------------------------------------------------

    def emit(self, client: "Client", kind: str, /, **payload: Any) -> TraceEvent:
        """The one emission path: append a ``kind`` event carrying
        ``payload`` (the keys of the kind's :data:`~repro.obs.events.EVENTS`
        row, in the row's order), attributed to ``client``'s innermost
        open span, and hand it to every sink. ``kind`` must be a declared
        event kind; the client must be attached."""
        if kind not in EVENTS:
            raise ValueError(f"unknown event kind {kind!r}")
        if client._tracer is not self:
            raise RuntimeError(f"{client.name} is not attached to this tracer")
        span = self._stacks[client.client_id][-1]
        event = TraceEvent(kind, client.clock.now_ns, client.name, span.span_id, payload)
        span.event_count += 1
        self.events.append(event)
        for sink in self._sinks:
            sink.pending.append((client, event, span))
            if event.ts_ns >= sink.window_end_ns:
                sink.open_window(client, event.ts_ns)
        return event

    # The two hot kinds keep a method that shapes the payload (empty keys
    # left out, window members as dicts) and attributes the far access to
    # its span. Each appends its event and feeds the sinks itself, as
    # ``emit`` does: the payload is built once, never re-packed as keyword
    # arguments.

    def on_far_access(
        self,
        client: "Client",
        *,
        op: Optional[str],
        charge_ns: float,
        node: Optional[int],
        nbytes_read: int,
        nbytes_written: int,
        forward_hops: int,
        segments: int,
        atomic: bool,
        addr: Optional[int] = None,
        target: Optional[int] = None,
    ) -> None:
        data: dict[str, Any] = {"op": op or "external", "charge_ns": charge_ns}
        if node is not None:
            data["node"] = node
        if addr is not None:
            data["addr"] = addr
        if target is not None:
            data["target"] = target
        if nbytes_read:
            data["nbytes_read"] = nbytes_read
        if nbytes_written:
            data["nbytes_written"] = nbytes_written
        if forward_hops:
            data["forward_hops"] = forward_hops
        if segments > 1:
            data["segments"] = segments
        if atomic:
            data["atomic"] = True
        span = self._stacks[client.client_id][-1]
        span.far_accesses += 1
        span.event_count += 1
        event = TraceEvent("far_access", client.clock.now_ns, client.name, span.span_id, data)
        self.events.append(event)
        for sink in self._sinks:
            sink.pending.append((client, event, span))
            if event.ts_ns >= sink.window_end_ns:
                sink.open_window(client, event.ts_ns)

    def on_window(
        self,
        client: "Client",
        *,
        start_ns: float,
        charged_ns: float,
        serial_ns: float,
        saved_ns: float,
        reason: str,
        window: Sequence[tuple],
        entry: Optional[tuple] = None,
    ) -> None:
        """``window`` is the flushed ``(op, charge_ns, span_id, future)``
        entries, or ``entry`` alone."""
        if entry is None:
            ops = [
                {"op": op, "charge_ns": charge, "span_id": span_id}
                for op, charge, span_id, _ in window
            ]
        else:
            op, charge, span_id, _ = entry
            ops = [{"op": op, "charge_ns": charge, "span_id": span_id}]
        data = {
            "start_ns": start_ns,
            "charged_ns": charged_ns,
            "serial_ns": serial_ns,
            "saved_ns": saved_ns,
            "reason": reason,
            "n": len(window) if entry is None else 1,
            "ops": ops,
        }
        span = self._stacks[client.client_id][-1]
        span.event_count += 1
        event = TraceEvent("window", client.clock.now_ns, client.name, span.span_id, data)
        self.events.append(event)
        for sink in self._sinks:
            sink.pending.append((client, event, span))
            if event.ts_ns >= sink.window_end_ns:
                sink.open_window(client, event.ts_ns)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def span_hist(self) -> HistogramSet:
        return self._fold_hists()._span_hist

    @property
    def op_hist(self) -> HistogramSet:
        return self._fold_hists()._op_hist

    @property
    def node_hist(self) -> HistogramSet:
        return self._fold_hists()._node_hist

    @property
    def window_hist(self) -> LatencyHistogram:
        return self._fold_hists()._window_hist

    def _fold_hists(self) -> "Tracer":
        """The one producer of the four: fold in what was appended to
        ``spans`` and ``events`` since the last read."""
        spans, events = self.spans[self._spans_folded :], self.events[self._events_folded :]
        self._spans_folded, self._events_folded = len(self.spans), len(self.events)
        for span in spans:
            if not span.is_root:
                self._span_hist.record(span.label, span.duration_ns)
        for event in events:
            data = event.data
            if event.kind == "far_access":
                self._op_hist.record(data["op"], data["charge_ns"])
                node = data.get("node")
                self._node_hist.record(
                    f"node{node}" if node is not None else "node?", data["charge_ns"]
                )
            elif event.kind == "window":
                self._window_hist.record(data["charged_ns"])
        return self

    def all_spans(self) -> list[Span]:
        """Closed spans plus still-open ones (roots included)."""
        out = list(self.spans)
        for stack in self._stacks.values():
            out.extend(stack)
        return out

    def attributed_far_accesses(self) -> int:
        """Sum of per-span far-access attributions. Equals the sum of the
        observed clients' ``metrics.far_accesses`` accumulated while
        attached — the no-lost-no-double-counted invariant."""
        return sum(span.far_accesses for span in self.all_spans())

    def spans_by_label(self, label: str) -> list[Span]:
        return [span for span in self.all_spans() if span.label == label]

    def events_by_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def summary(self, max_rows: int = 12) -> str:
        """A one-screen text summary: per-label span table + event counts."""
        lines = []
        labels = self.span_hist.labels()
        if labels:
            header = (
                f"{'span label':<26} {'count':>6} {'far':>7} {'p50 ns':>10} "
                f"{'p99 ns':>10} {'total us':>10}"
            )
            lines.append(header)
            lines.append("-" * len(header))
            per_label: dict[str, tuple[int, int, float]] = {}
            for span in self.spans:
                if span.is_root:
                    continue
                count, far, total = per_label.get(span.label, (0, 0, 0.0))
                delta = span.delta
                per_label[span.label] = (
                    count + 1,
                    far + (delta.far_accesses if delta else 0),
                    total + span.duration_ns,
                )
            ranked = sorted(per_label.items(), key=lambda kv: -kv[1][2])
            for label, (count, far, total) in ranked[:max_rows]:
                hist = self.span_hist.get(label)
                lines.append(
                    f"{label:<26} {count:>6} {far:>7} {hist.p50:>10.0f} "
                    f"{hist.p99:>10.0f} {total / 1_000:>10.1f}"
                )
            if len(ranked) > max_rows:
                lines.append(f"... and {len(ranked) - max_rows} more labels")
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        if counts:
            lines.append(
                "events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            )
        lines.extend(self._health_lines(counts))
        if not lines:
            return "(empty trace)"
        return "\n".join(lines)

    def _health_lines(self, counts: dict[str, int]) -> list[str]:
        """Fault-tolerance digest: per-node breaker state, integrity
        counters, and repair progress — the ``python -m repro trace``
        lines an operator reads after a faulty run."""
        lines: list[str] = []
        lines.extend(self._node_lines())
        for client in self._clients.values():
            for node in sorted(getattr(client, "breakers", {})):
                breaker = client.breakers[node]
                state = breaker.state.value
                if state == "closed" and not (breaker.trips or breaker.rejections):
                    continue  # a breaker that never did anything is noise
                lines.append(
                    f"breaker: {client.name} node{node} state={state} "
                    f"trips={breaker.trips} rejections={breaker.rejections}"
                )
        detected = counts.get("corruption_detected", 0)  # fleet-wide rollup
        torn = counts.get("torn_write", 0)
        fenced = counts.get("fence_reject", 0)
        if detected or torn or fenced:
            lines.append(
                f"integrity: corruption_detected={detected} "
                f"torn_writes={torn} fence_rejects={fenced}"
            )
        # Repair progress, one line per rebuilt replica (region, dead→spare).
        progress: dict[tuple, tuple[int, int, int]] = {}
        for event in self.events:
            if event.kind != "repair_copy":
                continue
            d = event.data
            key = (d["region"], d["dead_node"], d["spare_node"])
            done, total, nbytes = progress.get(key, (0, d["total"], 0))
            progress[key] = (max(done, d["done"]), d["total"], nbytes + d["nbytes"])
        for (region, dead, spare), (done, total, nbytes) in sorted(
            progress.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])
        ):
            lines.append(
                f"repair: region {region} node{dead}->node{spare} "
                f"{done}/{total} blocks ({nbytes} bytes)"
            )
        # Transaction digest: commit/abort balance across the fleet.
        txn_commits = counts.get("txn_commit", 0)
        txn_aborts = counts.get("txn_abort", 0)
        if txn_commits or txn_aborts:
            lines.append(f"txn: commits={txn_commits} aborts={txn_aborts}")
        # Migration digest: committed remaps + copy volume, then one line
        # per drained node.
        remaps = counts.get("remap", 0)
        if remaps or counts.get("extent_migrate", 0):
            copied = sum(
                e.data["nbytes"] for e in self.events if e.kind == "extent_migrate"
            )
            lines.append(
                f"migration: extents_remapped={remaps} bytes_copied={copied}"
            )
        for event in self.events:
            if event.kind != "drain":
                continue
            d = event.data
            lines.append(
                f"drain: node{d['node']} moved={d['extents_moved']} extents "
                f"({d['bytes_copied']} bytes)"
            )
        return lines

    def _node_lines(self) -> list[str]:
        """Per-node breakdown: share of traffic, tail charge, fault and
        integrity counts, and dead/drained markers — so a hot or dead
        node is identifiable from the summary alone."""
        per_node: dict[int, dict[str, int]] = {}

        def row(node: int) -> dict[str, int]:
            return per_node.setdefault(
                node, {"timeouts": 0, "corrupt": 0, "torn": 0, "rejects": 0}
            )

        dead: set[int] = set()
        drained: set[int] = set()
        for event in self.events:
            d = event.data
            if event.kind == "timeout":
                row(d["node"])["timeouts"] += 1
            elif event.kind == "corruption_detected":
                row(d["node"])["corrupt"] += 1
            elif event.kind == "torn_write":
                row(d["node"])["torn"] += 1
            elif event.kind == "breaker_reject":
                row(d["node"])["rejects"] += 1
            elif event.kind == "repair_copy":
                dead.add(d["dead_node"])
            elif event.kind == "drain":
                drained.add(d["node"])
        hists = {
            int(label[4:]): self.node_hist.get(label)
            for label in self.node_hist.labels()
            if label.startswith("node") and label[4:].isdigit()
        }
        nodes = sorted(set(per_node) | set(hists) | dead | drained)
        if not nodes:
            return []
        total_far = sum(h.count for h in hists.values()) or 1
        lines = []
        for node in nodes:
            hist = hists.get(node)
            far = hist.count if hist is not None else 0
            counts = per_node.get(
                node, {"timeouts": 0, "corrupt": 0, "torn": 0, "rejects": 0}
            )
            state = ""
            if node in dead:
                state = " DEAD(repaired)"
            elif node in drained:
                state = " drained"
            p99 = f"p99={hist.p99:.0f}ns" if hist is not None else "p99=-"
            lines.append(
                f"node{node}: far={far} ({100.0 * far / total_far:.1f}%) {p99} "
                f"timeouts={counts['timeouts']} rejects={counts['rejects']} "
                f"corrupt={counts['corrupt']} torn={counts['torn']}{state}"
            )
        return lines

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
            f"clients={len(self._clients)})"
        )


def set_default_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or clear) a tracer that every subsequently-created client
    auto-attaches to. This is how ``python -m repro trace`` observes
    example scripts without modifying them."""
    from ..fabric import client as client_module

    if tracer is None:
        client_module._default_tracer_provider = None
    else:
        client_module._default_tracer_provider = lambda: tracer
