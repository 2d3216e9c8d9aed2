"""Live fleet telemetry: windowed time-series over the trace event stream.

The tracer (:mod:`repro.obs.trace`) records *everything* and answers
questions after the run. Operators of a far-memory fabric need the other
half of the observability pair (Dapper-style backends ship with exactly
this split): a live aggregation plane that rolls the same event stream
into windowed time-series — rates, gauges, and log₂-latency rings — keyed
by the scopes that matter when something is burning:

* ``("fleet",)`` — the whole cluster,
* ``("node", n)`` — one memory node,
* ``("extent", e)`` — one virtual extent (heat, migration progress),
* ``("structure", s)`` — one data structure (the first span-label
  segment, e.g. ``httree`` for ``httree.get``),
* ``("client", name)`` — one client.

A :class:`TelemetryRegistry` is a Tracer *sink*: it consumes events from
the tracer's single emission point, so every emitter feeds it without any
per-callsite changes. A kind whose roll-up is one count needs no code
here — the registry reads the series name from the ``counter`` column of
the event table (:mod:`repro.obs.events`); only the kinds with a real
roll-up (latency rings, byte amounts, progress gauges, other scopes) have
a handler. Like the tracer itself it never touches a client's
metrics or clock: attach/detach changes no structural count and no
simulated timestamp (asserted by the observer-effect tests and by
experiment A9).

Windows are simulated time: window ``w`` covers
``[w * window_ns, (w + 1) * window_ns)`` on the emitting client's clock.
Series keep a bounded ring of recent windows (default 64) plus exact
cumulative totals, so "rate over the last 8 windows" and "total since
boot" are both O(1) questions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..fabric.metrics import Metrics
from . import trace as trace_mod
from .events import EVENTS
from .histogram import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fabric.client import Client

DEFAULT_WINDOW_NS = 1_000_000  # 1 simulated ms
DEFAULT_RING_WINDOWS = 64

FLEET = ("fleet",)

Scope = tuple  # ("fleet",) | ("node", int) | ("extent", int) | ...

# The per-client counters the registry samples into gauges: every
# first-class Metrics counter, so a new one reaches the live plane by
# being declared.
CLIENT_COUNTER_FIELDS = Metrics.counter_names()


def _evict(windows: dict, cap: int) -> None:
    """Drop the windows older than the newest ``cap``. Series call this
    lazily (past ``2 * cap`` retained) to keep their ring bounded without
    paying a trim per increment. Clients run on independent clocks, so
    out-of-order window indices are normal; only genuinely old windows
    drop, and the newest never does."""
    floor = max(windows) - cap + 1
    for w in [w for w in windows if w < floor]:
        del windows[w]


class CounterSeries:
    """A monotone counter with a per-window ring: exact cumulative total
    plus the amount landed in each recent window."""

    __slots__ = ("total", "_windows", "_cap")

    def __init__(self, ring_windows: int = DEFAULT_RING_WINDOWS) -> None:
        self.total: float = 0
        self._windows: dict[int, float] = {}
        self._cap = ring_windows

    def inc(self, window: int, amount: float = 1) -> None:
        self.total += amount
        self._windows[window] = self._windows.get(window, 0) + amount
        if len(self._windows) > 2 * self._cap:
            _evict(self._windows, self._cap)

    def sum_windows(self, start: int, stop: int) -> float:
        """Amount landed in windows ``start <= w < stop``."""
        return sum(v for w, v in self._windows.items() if start <= w < stop)

    def windows(self) -> list[tuple[int, float]]:
        return sorted(self._windows.items())

    def __repr__(self) -> str:
        return f"CounterSeries(total={self.total}, windows={len(self._windows)})"


class GaugeSeries:
    """A sampled value: current reading plus the last reading per window."""

    __slots__ = ("value", "ts_ns", "_windows", "_cap")

    def __init__(self, ring_windows: int = DEFAULT_RING_WINDOWS) -> None:
        self.value: float = 0
        self.ts_ns: float = 0.0
        self._windows: dict[int, float] = {}
        self._cap = ring_windows

    def set(self, window: int, ts_ns: float, value: float) -> None:
        if ts_ns >= self.ts_ns:
            self.value = value
            self.ts_ns = ts_ns
        self._windows[window] = value
        if len(self._windows) > 2 * self._cap:
            _evict(self._windows, self._cap)

    def windows(self) -> list[tuple[int, float]]:
        return sorted(self._windows.items())

    def __repr__(self) -> str:
        return f"GaugeSeries(value={self.value})"


class HistogramRing:
    """A log₂ latency histogram per window plus the exact cumulative
    histogram. ``rollup()`` over the retained ring equals the cumulative
    histogram as long as nothing has been evicted (asserted by the
    hypothesis property tests)."""

    __slots__ = ("total", "_windows", "_cap")

    def __init__(self, ring_windows: int = DEFAULT_RING_WINDOWS) -> None:
        self.total = LatencyHistogram()
        self._windows: dict[int, LatencyHistogram] = {}
        self._cap = ring_windows

    def record(self, window: int, value_ns: float) -> None:
        self.total.record(value_ns)
        hist = self._windows.get(window)
        if hist is None:
            hist = self._windows[window] = LatencyHistogram()
        hist.record(value_ns)
        if len(self._windows) > 2 * self._cap:
            _evict(self._windows, self._cap)

    def window_hist(self, window: int) -> LatencyHistogram:
        return self._windows.get(window, LatencyHistogram())

    def windows(self) -> list[int]:
        return sorted(self._windows)

    def rollup(
        self, start: Optional[int] = None, stop: Optional[int] = None
    ) -> LatencyHistogram:
        """Merge the retained per-window histograms for ``start <= w <
        stop`` (all retained windows by default)."""
        merged = LatencyHistogram()
        for w in sorted(self._windows):
            if start is not None and w < start:
                continue
            if stop is not None and w >= stop:
                continue
            merged.merge(self._windows[w])
        return merged

    def count_over(self, start: int, stop: int, threshold_ns: float) -> int:
        """Samples above ``threshold_ns`` in windows ``[start, stop)``."""
        return sum(
            h.count_above(threshold_ns)
            for w, h in self._windows.items()
            if start <= w < stop
        )

    def count_in(self, start: int, stop: int) -> int:
        return sum(h.count for w, h in self._windows.items() if start <= w < stop)

    def __repr__(self) -> str:
        return f"HistogramRing(n={self.total.count}, windows={len(self._windows)})"


class TelemetryRegistry:
    """Windowed time-series over the typed trace-event stream.

    Feed it by registering it as a tracer sink (:meth:`observe`), or per
    client with :meth:`watch`. Everything it learns comes from event
    payloads and the read-only ``client.clock`` / ``client.metrics``
    views — it never mutates client state, so observation is free of
    observer effects by construction.
    """

    def __init__(
        self,
        *,
        window_ns: int = DEFAULT_WINDOW_NS,
        ring_windows: int = DEFAULT_RING_WINDOWS,
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = int(window_ns)
        self.ring_windows = int(ring_windows)
        self._counters: dict[tuple[Scope, str], CounterSeries] = {}
        self._gauges: dict[tuple[Scope, str], GaugeSeries] = {}
        self._hists: dict[tuple[Scope, str], HistogramRing] = {}
        self._extent_node: dict[int, int] = {}
        self._drained: set[int] = set()
        self._extent_size = 0
        self._listeners: list[Any] = []
        self._current_window: Optional[int] = None
        self._last_ts_ns = 0.0
        self._notifying = False
        self._carrier: Optional["trace_mod.Tracer"] = None
        self.client_names: list[str] = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def observe(self, tracer: "trace_mod.Tracer") -> "TelemetryRegistry":
        """Consume every event ``tracer`` emits (idempotent)."""
        tracer.add_sink(self)
        return self

    def watch(self, client: "Client") -> "TelemetryRegistry":
        """Observe one client. Reuses the client's tracer if it has one;
        otherwise attaches a private carrier tracer shared by every
        tracerless client this registry watches."""
        tracer = client._tracer
        if tracer is None:
            if self._carrier is None:
                self._carrier = trace_mod.Tracer()
            tracer = self._carrier
            tracer.attach(client)
        return self.observe(tracer)

    def add_listener(self, listener: Any) -> "TelemetryRegistry":
        """Register a window-advance listener exposing
        ``on_window_advance(registry, client, ts_ns)`` (the SLO monitor
        and the ``repro top`` ticker use this)."""
        if listener not in self._listeners:
            self._listeners.append(listener)
        return self

    def remove_listener(self, listener: Any) -> "TelemetryRegistry":
        if listener in self._listeners:
            self._listeners.remove(listener)
        return self

    # ------------------------------------------------------------------
    # Series access
    # ------------------------------------------------------------------

    def counter(self, scope: Scope, name: str) -> CounterSeries:
        series = self._counters.get((scope, name))
        if series is None:
            series = self._counters[(scope, name)] = CounterSeries(self.ring_windows)
        return series

    def gauge(self, scope: Scope, name: str) -> GaugeSeries:
        series = self._gauges.get((scope, name))
        if series is None:
            series = self._gauges[(scope, name)] = GaugeSeries(self.ring_windows)
        return series

    def histogram(self, scope: Scope, name: str) -> HistogramRing:
        series = self._hists.get((scope, name))
        if series is None:
            series = self._hists[(scope, name)] = HistogramRing(self.ring_windows)
        return series

    # Read-only variants: never materialize a series just by asking.

    def counter_total(self, scope: Scope, name: str) -> float:
        series = self._counters.get((scope, name))
        return series.total if series is not None else 0

    def counter_recent(self, scope: Scope, name: str, windows: int = 8) -> float:
        """Amount landed in the most recent ``windows`` windows
        (including the still-open one)."""
        series = self._counters.get((scope, name))
        if series is None or self._current_window is None:
            return 0
        cur = self._current_window
        return series.sum_windows(cur - windows + 1, cur + 1)

    def gauge_value(self, scope: Scope, name: str) -> float:
        series = self._gauges.get((scope, name))
        return series.value if series is not None else 0

    def histogram_total(self, scope: Scope, name: str) -> LatencyHistogram:
        series = self._hists.get((scope, name))
        return series.total if series is not None else LatencyHistogram()

    def counters(self) -> list[tuple[Scope, str, CounterSeries]]:
        return self._sorted(self._counters)

    def gauges(self) -> list[tuple[Scope, str, GaugeSeries]]:
        return self._sorted(self._gauges)

    def histograms(self) -> list[tuple[Scope, str, HistogramRing]]:
        return self._sorted(self._hists)

    @staticmethod
    def _sorted(table: dict) -> list:
        return [
            (scope, name, series)
            for (scope, name), series in sorted(
                table.items(),
                key=lambda kv: (kv[0][1], kv[0][0][0], str(kv[0][0][1:])),
            )
        ]

    # ------------------------------------------------------------------
    # Scope queries
    # ------------------------------------------------------------------

    def scopes(self, kind: str) -> list[Scope]:
        """Every scope of ``kind`` ("node", "extent", ...) with data."""
        found = {
            scope
            for table in (self._counters, self._gauges, self._hists)
            for (scope, _name) in table
            if scope[0] == kind
        }
        return sorted(found, key=lambda s: tuple(str(p) for p in s[1:]))

    def node_ids(self) -> list[int]:
        ids = {scope[1] for scope in self.scopes("node")}
        ids.update(self._extent_node.values())
        ids.update(self._drained)
        return sorted(ids)

    def extent_ids(self) -> list[int]:
        return [scope[1] for scope in sorted(self.scopes("extent"))]

    def structure_labels(self) -> list[str]:
        return [scope[1] for scope in self.scopes("structure")]

    def extent_heat(self, extent: int, windows: Optional[int] = None) -> int:
        """Far touches of ``extent``: total, or over the last N windows."""
        if windows is None:
            return int(self.counter_total(("extent", extent), "heat"))
        return int(self.counter_recent(("extent", extent), "heat", windows))

    def extent_node(self, extent: int) -> Optional[int]:
        """Where the registry last saw ``extent`` served from (far-access
        node attribution, updated by remap events)."""
        return self._extent_node.get(extent)

    def drained_nodes(self) -> set[int]:
        return set(self._drained)

    @property
    def current_window(self) -> int:
        return self._current_window if self._current_window is not None else 0

    @property
    def last_ts_ns(self) -> float:
        return self._last_ts_ns

    # ------------------------------------------------------------------
    # Ingestion (Tracer sink protocol — bookkeeping only)
    # ------------------------------------------------------------------

    def on_trace_event(self, client: "Client", event: Any, span: Any) -> None:
        data = event.data
        ts = event.ts_ns
        window = int(ts // self.window_ns)
        if not self._extent_size:
            extents = getattr(client.fabric, "extents", None)
            self._extent_size = getattr(extents, "extent_size", 0) or 0
        if event.client not in self.client_names:
            self.client_names.append(event.client)
        structure = None
        if span is not None and not span.is_root:
            structure = span.label.split(".", 1)[0]
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event.client, window, data, structure)
        else:
            self._count(event.kind, event.client, window, data, structure)
        self._advance(client, ts, window)

    def _advance(self, client: "Client", ts: float, window: int) -> None:
        if ts > self._last_ts_ns:
            self._last_ts_ns = ts
        if self._current_window is None:
            self._current_window = window
            return
        if window <= self._current_window:
            return
        self._current_window = window
        if self._listeners and not self._notifying:
            # Re-entrancy guard: a listener may emit events of its own
            # (the SLO monitor's alert events) which land back here.
            self._notifying = True
            try:
                for listener in list(self._listeners):
                    listener.on_window_advance(self, client, ts)
            finally:
                self._notifying = False

    def _base_scopes(
        self, client_name: str, node: Optional[int], structure: Optional[str]
    ) -> list[Scope]:
        scopes: list[Scope] = [FLEET, ("client", client_name)]
        if node is not None:
            scopes.append(("node", node))
        if structure is not None:
            scopes.append(("structure", structure))
        return scopes

    def _inc_all(
        self, scopes: list[Scope], name: str, window: int, amount: float = 1
    ) -> None:
        for scope in scopes:
            self.counter(scope, name).inc(window, amount)

    def _on_far_access(self, who, window, data, structure) -> None:
        node = data.get("node")
        scopes = self._base_scopes(who, node, structure)
        self._inc_all(scopes, "far_accesses", window)
        charge = data.get("charge_ns", 0.0)
        for scope in scopes:
            self.histogram(scope, "far_latency_ns").record(window, charge)
        nbytes_read = data.get("nbytes_read", 0)
        if nbytes_read:
            self._inc_all(scopes, "bytes_read", window, nbytes_read)
        nbytes_written = data.get("nbytes_written", 0)
        if nbytes_written:
            self._inc_all(scopes, "bytes_written", window, nbytes_written)
        hops = data.get("forward_hops", 0)
        if hops:
            self._inc_all(scopes, "forward_hops", window, hops)
        if self._extent_size:
            # Heat lands on the extent the op named *and* (for indirect
            # ops) the extent of the resolved data word — mirroring the
            # extent table's translate-time touches, so a registry-driven
            # Rebalancer ranks extents the same way the fabric does.
            for key in ("addr", "target"):
                address = data.get(key)
                if address is None:
                    continue
                extent = address // self._extent_size
                self.counter(("extent", extent), "heat").inc(window)
                if key == "addr" and node is not None:
                    self._extent_node[extent] = node

    def _on_window(self, who, window, data, structure) -> None:
        scopes = self._base_scopes(who, None, structure)
        self._inc_all(scopes, "windows", window)
        saved = data.get("saved_ns", 0.0)
        if saved:
            self._inc_all(scopes, "overlap_saved_ns", window, saved)
        for scope in scopes:
            ring = self.histogram(scope, "window_ns")
            ring.record(window, data.get("charged_ns", 0.0))
        for op in data.get("ops", ()):
            for scope in scopes:
                self.histogram(scope, "op_latency_ns").record(
                    window, op.get("charge_ns", 0.0)
                )

    def _count(self, kind, who, window, data, structure) -> None:
        """The roll-up of every kind without a handler: one count, named
        by the kind's ``counter`` column in the event table."""
        name = EVENTS[kind].counter
        if name is None:
            return
        scopes = self._base_scopes(who, data.get("node"), structure)
        self._inc_all(scopes, name, window)
        if kind == "backoff":
            self._inc_all(scopes, "backoff_ns", window, data.get("backoff_ns", 0.0))
        elif kind == "notify" and data.get("loss_warning"):
            self._inc_all(scopes, "loss_warnings", window)

    def _on_repair_copy(self, who, window, data, structure) -> None:
        dead = data["dead_node"]
        scopes = [FLEET, ("node", dead)]
        self._inc_all(scopes, "repair_copies", window)
        self._inc_all(scopes, "repair_bytes", window, data.get("nbytes", 0))
        total = data.get("total") or 1
        self.gauge(("node", dead), "repair_progress").set(
            window, self._last_ts_ns, data.get("done", 0) / total
        )

    def _on_extent_migrate(self, who, window, data, structure) -> None:
        extent = data["extent"]
        nbytes = data.get("nbytes", 0)
        self.counter(FLEET, "migration_bytes").inc(window, nbytes)
        self.counter(("extent", extent), "migration_bytes").inc(window, nbytes)
        self.counter(("node", data["src_node"]), "migration_bytes_out").inc(
            window, nbytes
        )
        self.counter(("node", data["dst_node"]), "migration_bytes_in").inc(
            window, nbytes
        )
        total = data.get("total") or 1
        self.gauge(("extent", extent), "migration_progress").set(
            window, self._last_ts_ns, data.get("done", 0) / total
        )

    def _on_remap(self, who, window, data, structure) -> None:
        extent = data["extent"]
        self.counter(FLEET, "remaps").inc(window)
        self.counter(("extent", extent), "remaps").inc(window)
        self.gauge(("extent", extent), "epoch").set(
            window, self._last_ts_ns, data.get("epoch", 0)
        )
        self._extent_node[extent] = data["dst_node"]

    def _on_drain(self, who, window, data, structure) -> None:
        node = data["node"]
        self.counter(FLEET, "drains").inc(window)
        self.gauge(("node", node), "drained").set(window, self._last_ts_ns, 1)
        self._drained.add(node)

    def _on_slo_alert(self, who, window, data, structure) -> None:
        self._inc_all([FLEET, ("client", who)], "slo_alerts", window)

    # Only the kinds whose roll-up is not one count at the base scopes;
    # every other kind is rolled up by :meth:`_count`.
    _HANDLERS = {
        "far_access": _on_far_access,
        "window": _on_window,
        "repair_copy": _on_repair_copy,
        "extent_migrate": _on_extent_migrate,
        "remap": _on_remap,
        "drain": _on_drain,
        "slo_alert": _on_slo_alert,
    }

    # ------------------------------------------------------------------
    # Client counter sampling
    # ------------------------------------------------------------------

    def sample_client(self, client: "Client") -> None:
        """Snapshot every first-class Metrics counter (plus custom
        counters) of ``client`` into per-client gauges. Read-only."""
        scope = ("client", client.name)
        ts = client.clock.now_ns
        window = int(ts // self.window_ns)
        for name in CLIENT_COUNTER_FIELDS:
            self.gauge(scope, f"metrics.{name}").set(
                window, ts, getattr(client.metrics, name)
            )
        for key, value in sorted(client.metrics.custom.items()):
            self.gauge(scope, f"metrics.custom.{key}").set(window, ts, value)
        if client.name not in self.client_names:
            self.client_names.append(client.name)

    def sample(self, clients: Iterator["Client"]) -> None:
        for client in clients:
            self.sample_client(client)

    def __repr__(self) -> str:
        return (
            f"TelemetryRegistry(window_ns={self.window_ns}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
            f"hists={len(self._hists)})"
        )
