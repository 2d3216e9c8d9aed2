"""Text dashboards over the telemetry registry (``repro stats`` / ``top``).

Pure renderers: every function takes a registry (and optionally an SLO
monitor) and returns a string. Nothing here reads wall-clock time or
mutates anything — frames are a function of the registry state, so the
same run renders the same dashboard every time.
"""

from __future__ import annotations

from typing import Optional

from .histogram import _format_ns
from .slo import SLOMonitor
from .telemetry import FLEET, TelemetryRegistry

RECENT_WINDOWS = 8


def _format_count(value: float) -> str:
    value = int(value)
    if value >= 10_000_000:
        return f"{value / 1e6:.1f}M"
    if value >= 10_000:
        return f"{value / 1e3:.1f}k"
    return str(value)


def render_fleet(registry: TelemetryRegistry) -> str:
    """The one-line-per-fact fleet rollup."""
    lines = ["-- fleet --"]
    far = registry.counter_total(FLEET, "far_accesses")
    recent = registry.counter_recent(FLEET, "far_accesses", RECENT_WINDOWS)
    lines.append(
        f"far accesses: {_format_count(far)} total, "
        f"{_format_count(recent)} over last {RECENT_WINDOWS} windows "
        f"(window = {_format_ns(registry.window_ns)})"
    )
    op_hist = registry.histogram_total(FLEET, "op_latency_ns")
    if op_hist.count:
        lines.append(
            f"far-op latency: p50={_format_ns(op_hist.p50)} "
            f"p99={_format_ns(op_hist.p99)} max={_format_ns(op_hist.max_ns)} "
            f"(n={op_hist.count}, retry ladder included)"
        )
    windows = registry.counter_total(FLEET, "windows")
    if windows:
        saved = registry.counter_total(FLEET, "overlap_saved_ns")
        lines.append(
            f"pipeline: {_format_count(windows)} windows, "
            f"{_format_ns(saved)} serial latency hidden by overlap"
        )
    troubles = []
    for name in (
        "timeouts",
        "backoffs",
        "breaker_trips",
        "breaker_rejects",
        "verify_misses",
        "torn_writes",
        "fence_rejects",
        "slo_alerts",
    ):
        total = registry.counter_total(FLEET, name)
        if total:
            troubles.append(f"{name}={_format_count(total)}")
    lines.append("faults: " + (" ".join(troubles) if troubles else "none"))
    migration = registry.counter_total(FLEET, "migration_bytes")
    if migration or registry.counter_total(FLEET, "drains"):
        lines.append(
            f"migration: {_format_count(registry.counter_total(FLEET, 'remaps'))} "
            f"remaps, {_format_count(migration)} bytes copied, "
            f"{_format_count(registry.counter_total(FLEET, 'drains'))} drains"
        )
    commits = registry.counter_total(FLEET, "txn_commits")
    aborts = registry.counter_total(FLEET, "txn_aborts")
    if commits or aborts:
        lines.append(f"txn: commits={_format_count(commits)} aborts={_format_count(aborts)}")
    lines.append(f"sim time: {_format_ns(registry.last_ts_ns)}")
    return "\n".join(lines)


def render_nodes(registry: TelemetryRegistry) -> str:
    """Per-node table: traffic share, recent rate, tail, faults, state."""
    nodes = registry.node_ids()
    if not nodes:
        return "-- nodes: no per-node traffic observed --"
    header = (
        f"{'node':<6} {'far':>9} {'recent':>8} {'p99':>9} {'bytes':>9} "
        f"{'timeouts':>8} {'rejects':>8} {'miss':>5} {'torn':>5} "
        f"{'migr in/out':>14}  state"
    )
    lines = ["-- nodes --", header, "-" * len(header)]
    drained = registry.drained_nodes()
    for node in nodes:
        scope = ("node", node)
        hist = registry.histogram_total(scope, "far_latency_ns")
        nbytes = registry.counter_total(scope, "bytes_read") + registry.counter_total(
            scope, "bytes_written"
        )
        repairing = registry.counter_total(scope, "repair_bytes") > 0
        state = "ok"
        if node in drained:
            state = "drained"
        elif repairing:
            state = "repaired (was dead)"
        migr = (
            f"{_format_count(registry.counter_total(scope, 'migration_bytes_in'))}"
            f"/{_format_count(registry.counter_total(scope, 'migration_bytes_out'))}"
        )
        lines.append(
            f"node{node:<2} "
            f"{_format_count(registry.counter_total(scope, 'far_accesses')):>9} "
            f"{_format_count(registry.counter_recent(scope, 'far_accesses', RECENT_WINDOWS)):>8} "
            f"{_format_ns(hist.p99) if hist.count else '-':>9} "
            f"{_format_count(nbytes):>9} "
            f"{_format_count(registry.counter_total(scope, 'timeouts')):>8} "
            f"{_format_count(registry.counter_total(scope, 'breaker_rejects')):>8} "
            f"{_format_count(registry.counter_total(scope, 'verify_misses')):>5} "
            f"{_format_count(registry.counter_total(scope, 'torn_writes')):>5} "
            f"{migr:>14}  {state}"
        )
    return "\n".join(lines)


def render_extents(
    registry: TelemetryRegistry, max_rows: int = 16, bar_width: int = 24
) -> str:
    """Per-extent heat table, hottest recent extents first — the view
    that makes the Rebalancer's choices externally explainable."""
    extents = registry.extent_ids()
    if not extents:
        return "-- extents: no extent-attributed traffic observed --"
    rows = []
    for extent in extents:
        rows.append(
            (
                registry.extent_heat(extent, RECENT_WINDOWS),
                registry.extent_heat(extent),
                extent,
            )
        )
    rows.sort(key=lambda r: (-r[0], -r[1], r[2]))
    peak = max(total for _recent, total, _extent in rows) or 1
    header = (
        f"{'extent':<7} {'node':>5} {'heat':>8} {'recent':>7} {'remaps':>7}  heat bar"
    )
    lines = ["-- extent heat --", header, "-" * len(header)]
    for recent, total, extent in rows[:max_rows]:
        node = registry.extent_node(extent)
        bar = "#" * max(1, round(bar_width * total / peak))
        lines.append(
            f"{extent:<7} {node if node is not None else '?':>5} "
            f"{_format_count(total):>8} {_format_count(recent):>7} "
            f"{_format_count(registry.counter_total(('extent', extent), 'remaps')):>7}  {bar}"
        )
    if len(rows) > max_rows:
        lines.append(f"... and {len(rows) - max_rows} cooler extents")
    return "\n".join(lines)


def render_structures(registry: TelemetryRegistry) -> str:
    """Per-structure rollup (first span-label segment)."""
    labels = registry.structure_labels()
    if not labels:
        return ""
    header = f"{'structure':<14} {'far':>9} {'p99':>10} {'timeouts':>9}"
    lines = ["-- structures --", header, "-" * len(header)]
    for label in labels:
        scope = ("structure", label)
        hist = registry.histogram_total(scope, "far_latency_ns")
        lines.append(
            f"{label:<14} "
            f"{_format_count(registry.counter_total(scope, 'far_accesses')):>9} "
            f"{_format_ns(hist.p99) if hist.count else '-':>10} "
            f"{_format_count(registry.counter_total(scope, 'timeouts')):>9}"
        )
    return "\n".join(lines)


def render_slos(monitor: SLOMonitor) -> str:
    """Objective table: burn rates and firing state."""
    header = (
        f"{'objective':<22} {'budget':>8} {'short burn':>11} {'long burn':>10} "
        f"{'alerts':>7}  state"
    )
    lines = ["-- SLOs --", header, "-" * len(header)]
    for objective in monitor.objectives:
        state = monitor.state(objective.name)
        lines.append(
            f"{objective.name:<22} {objective.budget:>8.4f} "
            f"{state.last_short:>10.2f}x {state.last_long:>9.2f}x "
            f"{state.fired_count:>7}  {'FIRING' if state.firing else 'ok'}"
        )
    for alert in monitor.alerts[-4:]:
        lines.append(
            f"alert: {alert.objective} fired at {_format_ns(alert.ts_ns)} "
            f"(window {alert.window}, short {alert.short_burn:.1f}x, "
            f"long {alert.long_burn:.1f}x)"
        )
    return "\n".join(lines)


def render_top(
    registry: TelemetryRegistry,
    monitor: Optional[SLOMonitor] = None,
    *,
    max_extent_rows: int = 16,
) -> str:
    """One ``repro top`` frame: fleet, nodes, extents, structures, SLOs."""
    parts = [
        f"== repro top @ {_format_ns(registry.last_ts_ns)} sim "
        f"(window {registry.current_window}) ==",
        render_fleet(registry),
        render_nodes(registry),
        render_extents(registry, max_rows=max_extent_rows),
    ]
    structures = render_structures(registry)
    if structures:
        parts.append(structures)
    if monitor is not None:
        parts.append(render_slos(monitor))
    return "\n\n".join(parts)
