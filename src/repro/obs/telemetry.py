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
code. Like the tracer itself it never touches a client's
metrics or clock: attach/detach changes no structural count and no
simulated timestamp (asserted by the observer-effect tests and by
experiment A9).

The producer pays an append and a compare per event; the roll-up is one
fold per fleet window, or on read (DESIGN.md §13, "Ingest → fold → read").

Windows are simulated time: window ``w`` covers
``[w * window_ns, (w + 1) * window_ns)`` on the emitting client's clock.
Series keep a bounded ring of recent windows (default 64) plus exact
cumulative totals, so "rate over the last 8 windows" and "total since
boot" are both O(1) questions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Optional, Sequence

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


# The ``far_access`` payload keys that are amounts, and the counter each feeds.
_FAR_AMOUNTS = (
    ("bytes_read", "nbytes_read"),
    ("bytes_written", "nbytes_written"),
    ("forward_hops", "forward_hops"),
)


def _by_scope(rows: list[tuple]) -> list[tuple[Scope, list[dict]]]:
    """Split ``(client, node, structure, payload)`` rows by the base scopes
    they fall in — fleet, then each client, node and structure present —
    each scope's payloads in emission order (float sums are exported). A
    scope every row falls in gets the fleet's own list, so a roll-up can
    tell it by identity and reuse what it computed for the fleet."""
    if not rows:
        return []
    fleet = [row[3] for row in rows]
    out = [(FLEET, fleet)]
    for column, kind in enumerate(("client", "node", "structure")):
        values = dict.fromkeys([row[column] for row in rows])
        for value in values:
            if value is not None:
                own = [row[3] for row in rows if row[column] == value] if len(values) > 1 else fleet
                out.append(((kind, value), own))
    return out


class CounterSeries:
    """A monotone counter with a per-window ring: exact cumulative total
    plus the amount landed in each recent window."""

    __slots__ = ("total", "_windows", "_cap")

    def __init__(self, ring_windows: int = DEFAULT_RING_WINDOWS) -> None:
        self.total: float = 0
        self._windows: dict[int, float] = defaultdict(int)
        self._cap = ring_windows

    def inc(self, window: int, amount: float = 1) -> None:
        self.total += amount
        self._windows[window] += amount
        if len(self._windows) > 2 * self._cap:
            _evict(self._windows, self._cap)

    def inc_many(self, window: int, amounts: Sequence[float]) -> None:
        """``inc`` for each amount in turn, in one call, added one by one: a
        float sum's order is part of the answer. Only the first can create
        the key, hence evict — ``window`` itself if it is older than the ring
        reaches, and the second then re-creates it."""
        windows = self._windows
        total = self.total
        if window not in windows:
            total += amounts[0]
            windows[window] += amounts[0]
            amounts = amounts[1:]
            if len(windows) > 2 * self._cap:
                _evict(windows, self._cap)
        for amount in amounts:
            total += amount
            windows[window] += amount
        self.total = total

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
        self._windows: dict[int, LatencyHistogram] = defaultdict(LatencyHistogram)
        self._cap = ring_windows

    def record(self, window: int, value_ns: float) -> None:
        self.record_many(window, (value_ns,))

    def record_many(self, window: int, values: Sequence[float]) -> None:
        """``record`` for each value in turn, in one call (the first may
        evict ``window`` itself: see :meth:`CounterSeries.inc_many`)."""
        self.total.record_many(values)
        if window not in self._windows:
            self._windows[window].record_many(values[:1])
            values = values[1:]
            if len(self._windows) > 2 * self._cap:
                _evict(self._windows, self._cap)
        if values:
            self._windows[window].record_many(values)

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
        # (scope, name) -> series: subscripting creates, ``get`` never does.
        ring = self.ring_windows
        self._counters = defaultdict(lambda: CounterSeries(ring))
        self._gauges = defaultdict(lambda: GaugeSeries(ring))
        self._hists = defaultdict(lambda: HistogramRing(ring))
        self._extent_node: dict[int, int] = {}
        self._drained: set[int] = set()
        self._extent_size = 0
        self._listeners: list[Any] = []
        self._current_window: Optional[int] = None
        self._last_ts_ns = 0.0
        self._notifying = False
        self._carrier: Optional["trace_mod.Tracer"] = None
        self.pending: list[tuple] = []  # (client, event, span), not yet folded
        self.window_end_ns = float("-inf")  # the first event is past it

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

    # ------------------------------------------------------------------
    # Series access. Every public read folds what is pending first
    # (read-your-writes); the roll-up subscripts the tables directly.
    # ------------------------------------------------------------------

    def counter(self, scope: Scope, name: str) -> CounterSeries:
        self._fold()
        return self._counters[scope, name]

    def gauge(self, scope: Scope, name: str) -> GaugeSeries:
        self._fold()
        return self._gauges[scope, name]

    def histogram(self, scope: Scope, name: str) -> HistogramRing:
        self._fold()
        return self._hists[scope, name]

    # Read-only variants: never materialize a series just by asking.

    def counter_total(self, scope: Scope, name: str) -> float:
        self._fold()
        series = self._counters.get((scope, name))
        return series.total if series is not None else 0

    def counter_recent(self, scope: Scope, name: str, windows: int = 8) -> float:
        """Amount landed in the most recent ``windows`` windows
        (including the still-open one)."""
        self._fold()
        series = self._counters.get((scope, name))
        if series is None or self._current_window is None:
            return 0
        cur = self._current_window
        return series.sum_windows(cur - windows + 1, cur + 1)

    def gauge_value(self, scope: Scope, name: str) -> float:
        self._fold()
        series = self._gauges.get((scope, name))
        return series.value if series is not None else 0

    def histogram_total(self, scope: Scope, name: str) -> LatencyHistogram:
        self._fold()
        series = self._hists.get((scope, name))
        return series.total if series is not None else LatencyHistogram()

    def counters(self) -> list[tuple[Scope, str, CounterSeries]]:
        return self._sorted(self._counters)

    def gauges(self) -> list[tuple[Scope, str, GaugeSeries]]:
        return self._sorted(self._gauges)

    def histograms(self) -> list[tuple[Scope, str, HistogramRing]]:
        return self._sorted(self._hists)

    def _sorted(self, table: dict) -> list:
        self._fold()
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
        self._fold()
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
        self._fold()
        return self._extent_node.get(extent)

    def drained_nodes(self) -> set[int]:
        self._fold()
        return set(self._drained)

    @property
    def current_window(self) -> int:
        self._fold()
        return self._current_window if self._current_window is not None else 0

    @property
    def last_ts_ns(self) -> float:
        self._fold()
        return self._last_ts_ns

    # ------------------------------------------------------------------
    # Ingestion (Tracer sink protocol — bookkeeping only)
    # ------------------------------------------------------------------

    def open_window(self, client: "Client", ts: float) -> None:
        """Open the fleet window holding ``ts``, which the event the tracer
        just appended to ``pending`` reached. The roll-up waits for
        :meth:`_fold`, which runs here or when anything is read."""
        self._fold()
        previous = self._current_window
        self._current_window = window = int(ts // self.window_ns)
        self.window_end_ns = (window + 1) * self.window_ns
        if previous is not None and self._listeners and not self._notifying:
            # Re-entrancy guard: a listener may emit events of its own
            # (the SLO monitor's alert events) which land back here, in
            # the next batch.
            self._notifying = True
            try:
                for listener in list(self._listeners):
                    listener.on_window_advance(self, client, ts)
            finally:
                self._notifying = False

    def _fold(self) -> None:
        """Roll the pending batch up, in event order (DESIGN.md §13).

        Order-sensitive state (gauges, ``_extent_node``, ``_drained``) and
        the count-only kinds are applied as they are met. The two hot kinds
        only add to sums and sample lists, so a run of them is rolled up
        once per scope, from its stretch of the batch. A run ends where the
        window changes: what a ring retains depends on the order its keys
        arrive."""
        batch = self.pending
        if not batch:
            return
        self.pending = []
        if not self._extent_size:
            extents = getattr(batch[0][0].fabric, "extents", None)
            self._extent_size = getattr(extents, "extent_size", 0) or 0
        extent_size = self._extent_size
        window_ns = self.window_ns
        newest = self._last_ts_ns
        structures: dict[str, str] = {}  # span label -> structure scope
        run = None  # the window of the current run of hot events
        start = 0  # where in the batch that run began
        for i, (_, event, span) in enumerate(batch):
            ts = event.ts_ns
            if ts > newest:
                newest = ts
            window = int(ts // window_ns)
            who = event.client
            if span is None or span.is_root:
                structure = None
            elif span.label in structures:
                structure = structures[span.label]
            else:
                structure = structures[span.label] = span.label.split(".", 1)[0]
            kind = event.kind
            data = event.data
            if kind == "far_access" or kind == "window":
                if window != run:
                    if run is not None:
                        self._roll_up(run, batch[start:i], structures)
                    run, start = window, i
                node = data["node"] if "node" in data else None
                if extent_size and node is not None and "addr" in data:
                    # Order-sensitive (a later remap overwrites it), so
                    # not left to the roll-up.
                    self._extent_node[data["addr"] // extent_size] = node
            elif kind in self._HANDLERS:
                self._HANDLERS[kind](self, who, window, ts, data, structure)
            else:
                self._count(kind, who, window, data, structure)
        self._last_ts_ns = newest
        if run is not None:
            self._roll_up(run, batch[start:], structures)

    def _roll_up(self, window: int, events: list[tuple], structures: dict[str, str]) -> None:
        """One run of ``far_access`` and ``window`` (doorbell) events, all in
        ``window``, rolled up once per scope. ``events`` is the run's stretch
        of the batch, other kinds included (:meth:`_fold` applied them);
        ``structures`` holds the structure scope of each span label in it."""
        far_rows, window_rows = [
            [
                (
                    event.client,
                    data["node"] if "node" in data else None,
                    None if span is None or span.is_root else structures[span.label],
                    data,
                )
                for _, event, span in events
                if event.kind == kind
                for data in (event.data,)
            ]
            for kind in ("far_access", "window")
        ]
        # A scope handed the fleet's list reuses the fleet's columns.
        rolled = None
        for scope, payloads in _by_scope(far_rows):
            if payloads is not rolled:
                rolled = payloads
                ones = [1] * len(payloads)
                charges = [data["charge_ns"] for data in payloads]
                amounts = [
                    (name, [data[key] for data in payloads if key in data and data[key]])
                    for name, key in _FAR_AMOUNTS
                ]
            self._counters[scope, "far_accesses"].inc_many(window, ones)
            self._hists[scope, "far_latency_ns"].record_many(window, charges)
            for name, column in amounts:
                if column:
                    self._counters[scope, name].inc_many(window, column)
        # Heat lands on the extent the op named *and* (for indirect ops) the
        # target's. The extent table counts every extent the fabric touches,
        # so the two agree for single-extent accesses only.
        heat: dict[int, int] = {}
        if self._extent_size:
            for _who, _node, _structure, data in far_rows:
                for key in ("addr", "target"):
                    if key in data:
                        extent = data[key] // self._extent_size
                        heat[extent] = heat[extent] + 1 if extent in heat else 1
        for extent, touches in heat.items():
            self._counters[("extent", extent), "heat"].inc_many(window, [1] * touches)
        for scope, payloads in _by_scope(window_rows):
            if payloads is not rolled:
                rolled = payloads
                ones = [1] * len(payloads)
                saved = [data["saved_ns"] for data in payloads if data["saved_ns"]]
                charged = [data["charged_ns"] for data in payloads]
                op_charges = [op["charge_ns"] for data in payloads for op in data["ops"]]
            self._counters[scope, "windows"].inc_many(window, ones)
            if saved:
                self._counters[scope, "overlap_saved_ns"].inc_many(window, saved)
            self._hists[scope, "window_ns"].record_many(window, charged)
            if op_charges:
                self._hists[scope, "op_latency_ns"].record_many(window, op_charges)

    def _count(self, kind, who, window, data, structure) -> None:
        """The roll-up of every kind without a handler: one count, named
        by the kind's ``counter`` column in the event table."""
        name = EVENTS[kind].counter
        if name is None:
            return
        for scope, _ in _by_scope([(who, data.get("node"), structure, data)]):
            self._counters[scope, name].inc(window)
            if kind == "backoff":
                self._counters[scope, "backoff_ns"].inc(window, data.get("backoff_ns", 0.0))
            elif kind == "notify" and data.get("loss_warning"):
                self._counters[scope, "loss_warnings"].inc(window)

    def _on_repair_copy(self, who, window, ts, data, structure) -> None:
        dead = data["dead_node"]
        for scope in (FLEET, ("node", dead)):
            self._counters[scope, "repair_copies"].inc(window)
            self._counters[scope, "repair_bytes"].inc(window, data.get("nbytes", 0))
        total = data.get("total") or 1
        self._gauges[("node", dead), "repair_progress"].set(window, ts, data.get("done", 0) / total)

    def _on_extent_migrate(self, who, window, ts, data, structure) -> None:
        extent = data["extent"]
        nbytes = data.get("nbytes", 0)
        self._counters[FLEET, "migration_bytes"].inc(window, nbytes)
        self._counters[("extent", extent), "migration_bytes"].inc(window, nbytes)
        self._counters[("node", data["src_node"]), "migration_bytes_out"].inc(window, nbytes)
        self._counters[("node", data["dst_node"]), "migration_bytes_in"].inc(window, nbytes)
        progress = data.get("done", 0) / (data.get("total") or 1)
        self._gauges[("extent", extent), "migration_progress"].set(window, ts, progress)

    def _on_remap(self, who, window, ts, data, structure) -> None:
        extent = data["extent"]
        self._counters[FLEET, "remaps"].inc(window)
        self._counters[("extent", extent), "remaps"].inc(window)
        self._gauges[("extent", extent), "epoch"].set(window, ts, data.get("epoch", 0))
        self._extent_node[extent] = data["dst_node"]

    def _on_drain(self, who, window, ts, data, structure) -> None:
        node = data["node"]
        self._counters[FLEET, "drains"].inc(window)
        self._gauges[("node", node), "drained"].set(window, ts, 1)
        self._drained.add(node)

    def _on_slo_alert(self, who, window, ts, data, structure) -> None:
        for scope in (FLEET, ("client", who)):
            self._counters[scope, "slo_alerts"].inc(window)

    # The rare kinds whose roll-up is not one count at the base scopes
    # (``far_access`` and ``window`` are rolled up per run by
    # :meth:`_roll_up`); every other kind is rolled up by :meth:`_count`.
    _HANDLERS = {
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
        self._fold()
        scope = ("client", client.name)
        ts = client.clock.now_ns
        window = int(ts // self.window_ns)
        for name in CLIENT_COUNTER_FIELDS:
            self._gauges[scope, f"metrics.{name}"].set(window, ts, getattr(client.metrics, name))
        for key, value in sorted(client.metrics.custom.items()):
            self._gauges[scope, f"metrics.custom.{key}"].set(window, ts, value)

    def __repr__(self) -> str:
        return (
            f"TelemetryRegistry(window_ns={self.window_ns}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
            f"hists={len(self._hists)})"
        )
