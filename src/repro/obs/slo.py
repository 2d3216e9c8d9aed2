"""SLO objectives and multi-window burn-rate alerting.

An :class:`SLObjective` declares an error budget over registry series —
either a **ratio** objective (bad events / total events, e.g. timeouts
per far access) or a **latency** objective (samples of a histogram ring
above a threshold, e.g. far-op latency over 50 µs). The
:class:`SLOMonitor` evaluates every objective each time the registry's
fleet window advances, using the SRE multi-window burn-rate rule: alert
only when both a short window (fast detection) and a long window (noise
rejection) burn the fleet's budget at 2× or faster. Alerts are recorded
on the monitor *and* emitted as typed ``slo_alert`` trace events, so a
trace export shows exactly when the fleet started burning relative to
the faults that caused it.

All arithmetic is over closed windows of simulated time — evaluation at
the close of window ``w`` looks at ``[w - n, w)`` — so a given event
stream produces the same alerts on every run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from .telemetry import FLEET, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fabric.client import Client

# An objective alerts when both its windows burn the budget at least this fast.
_BURN_THRESHOLD = 2.0


@dataclass(frozen=True)
class SLObjective:
    """One declared objective over the registry's fleet series.

    Ratio form (``bad_metric`` set): burn = (bad / total) / budget where
    bad and total are counter sums over the evaluation window. Latency
    form (``latency_metric`` set): bad = histogram samples above
    ``threshold_ns``, total = all samples in the window.
    """

    name: str
    budget: float  # allowed bad fraction, e.g. 0.002
    bad_metric: str = ""
    total_metrics: tuple = ("far_accesses",)
    latency_metric: str = ""
    threshold_ns: float = 0.0
    short_windows: int = 1
    long_windows: int = 8

    def __post_init__(self) -> None:
        if bool(self.bad_metric) == bool(self.latency_metric):
            raise ValueError(
                f"objective {self.name!r}: set exactly one of "
                "bad_metric (ratio) or latency_metric (latency)"
            )
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"objective {self.name!r}: budget must be in (0, 1)")
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError(
                f"objective {self.name!r}: need 1 <= short_windows <= long_windows"
            )

    def burn_rate(
        self, registry: TelemetryRegistry, windows: int, *, stop: Optional[int] = None
    ) -> float:
        """Budget burn multiple over the last ``windows`` closed windows
        (ending at ``stop``, exclusive; defaults to the current window)."""
        if stop is None:
            stop = registry.current_window
        start = stop - windows
        if self.latency_metric:
            ring = registry.histogram(FLEET, self.latency_metric)
            total = ring.count_in(start, stop)
            bad = ring.count_over(start, stop, self.threshold_ns)
        else:
            bad = registry.counter(FLEET, self.bad_metric).sum_windows(start, stop)
            total = sum(
                registry.counter(FLEET, name).sum_windows(start, stop)
                for name in self.total_metrics
            )
        if total <= 0:
            return 0.0
        return (bad / total) / self.budget


def default_objectives() -> tuple[SLObjective, ...]:
    """The fleet objectives ``repro stats`` watches out of the box.

    The timeout-ratio objective is the deterministic canary: clean runs
    have zero timeouts so it can never fire, while a fault injector at
    rate r burns r/budget× immediately. The latency objective guards the
    pipeline tail (window-op charge includes the retry ladder); the
    verify-miss and fence-reject objectives guard the integrity plane.
    """
    return (
        SLObjective(
            name="timeout-ratio",
            budget=0.002,
            bad_metric="timeouts",
            total_metrics=("far_accesses", "timeouts"),
        ),
        SLObjective(
            name="far-op-p99-latency",
            budget=0.01,
            latency_metric="op_latency_ns",
            threshold_ns=50_000.0,
        ),
        SLObjective(
            name="verify-miss-ratio",
            budget=0.002,
            bad_metric="verify_misses",
        ),
        SLObjective(
            name="fence-reject-rate",
            budget=0.002,
            bad_metric="fence_rejects",
            total_metrics=("far_accesses", "fence_rejects"),
        ),
    )


@dataclass
class SLOAlert:
    """One burn-rate alert (fired when both windows exceeded threshold).
    The fields are the ``slo_alert`` event's payload, in order."""

    objective: str
    window: int  # the just-closed window that tripped it
    ts_ns: float
    short_burn: float
    long_burn: float
    client: str = ""


@dataclass
class _ObjectiveState:
    firing: bool = False
    fired_count: int = 0
    last_short: float = 0.0
    last_long: float = 0.0


class SLOMonitor:
    """Evaluates objectives on every fleet-window close.

    Registers itself as a registry listener; call :meth:`finish` after
    the workload to evaluate the final (partial) window too.
    """

    def __init__(
        self,
        registry: TelemetryRegistry,
        objectives: Optional[tuple[SLObjective, ...]] = None,
    ) -> None:
        self.registry = registry
        self.objectives = tuple(
            objectives if objectives is not None else default_objectives()
        )
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.alerts: list[SLOAlert] = []
        self._states: dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState() for o in self.objectives
        }
        registry.add_listener(self)

    # Registry listener protocol -----------------------------------------

    def on_window_advance(
        self, registry: TelemetryRegistry, client: "Client", ts_ns: float
    ) -> None:
        self.evaluate(client=client, ts_ns=ts_ns)

    def evaluate(
        self,
        *,
        client: Optional["Client"] = None,
        ts_ns: Optional[float] = None,
        include_current: bool = False,
    ) -> list[SLOAlert]:
        """Evaluate every objective over the closed windows (optionally
        including the still-open one); returns alerts fired this call."""
        registry = self.registry
        stop = registry.current_window + (1 if include_current else 0)
        if ts_ns is None:
            ts_ns = registry.last_ts_ns
        fired: list[SLOAlert] = []
        for objective in self.objectives:
            state = self._states[objective.name]
            short = objective.burn_rate(
                registry, objective.short_windows, stop=stop
            )
            long = objective.burn_rate(registry, objective.long_windows, stop=stop)
            state.last_short, state.last_long = short, long
            firing = short >= _BURN_THRESHOLD and long >= _BURN_THRESHOLD
            if firing and not state.firing:
                alert = SLOAlert(
                    objective=objective.name,
                    window=stop - 1,
                    ts_ns=ts_ns,
                    short_burn=short,
                    long_burn=long,
                    client=client.name if client is not None else "",
                )
                self.alerts.append(alert)
                state.fired_count += 1
                fired.append(alert)
                if client is not None and client._tracer is not None:
                    client._tracer.emit(client, "slo_alert", **asdict(alert))
            state.firing = firing
        return fired

    def finish(self, client: Optional["Client"] = None) -> "SLOMonitor":
        """Evaluate once more including the final partial window."""
        self.evaluate(client=client, include_current=True)
        return self

    # Queries ------------------------------------------------------------

    @property
    def fired(self) -> bool:
        return bool(self.alerts)

    def state(self, name: str) -> _ObjectiveState:
        return self._states[name]

    def alerts_for(self, name: str) -> list[SLOAlert]:
        return [a for a in self.alerts if a.objective == name]

    def __repr__(self) -> str:
        return (
            f"SLOMonitor(objectives={[o.name for o in self.objectives]}, "
            f"alerts={len(self.alerts)})"
        )
