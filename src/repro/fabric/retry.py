"""Client-side retry, backoff, and circuit breaking for one-sided ops.

With :mod:`repro.fabric.faults` making the fabric drop and delay
requests, the client needs the standard dataplane survival kit (cf. Storm
and the RDMA-vs-RPC studies: timeout/retry policy dominates tail
latency):

* :class:`RetryPolicy` — exponential backoff with **deterministic**
  jitter (the simulator must replay exactly; jitter comes from a hash of
  the (client, address, attempt) triple, not a global RNG), plus a per-op
  attempt budget.
* :class:`CircuitBreaker` — one per (client, memory node). After enough
  consecutive failures the breaker opens and the client fails fast with
  :class:`~repro.fabric.errors.CircuitOpenError` instead of burning a
  full timeout+backoff ladder per op against a dead node; after a
  cooldown on the client's simulated clock it half-opens and lets one
  probe through.

Timed-out attempts charge *time* (the timeout detection interval, then
backoff) but not *far accesses*: ``Metrics.far_accesses`` stays the count
of completed operations, which is what every structural-cost assertion in
the test suite and benchmarks is written against. Retry traffic is
visible instead in ``Metrics.retries`` / ``timeouts`` / ``backoff_ns``
and the per-breaker trip counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


def _jitter_fraction(token: int, attempt: int) -> float:
    """A stable pseudo-random fraction in ``[0, 1)`` from (token, attempt).

    SplitMix64-style finalizer: good avalanche, no shared RNG state, so
    concurrent clients' backoff schedules never perturb each other's
    determinism.
    """
    x = (token * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9) & (
        (1 << 64) - 1
    )
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 31
    return (x & ((1 << 53) - 1)) / float(1 << 53)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries a one-sided op after a transient failure.

    Attributes:
        max_attempts: total tries per op (1 = no retries).
        base_backoff_ns: backoff before the first retry.
        multiplier: exponential growth factor per retry.
        max_backoff_ns: backoff ceiling.
        jitter: fraction of the backoff randomised away, in ``[0, 1]``.
            The sleep lands in ``[backoff * (1 - jitter), backoff)``,
            deterministically per (client, address, attempt).
    """

    max_attempts: int = 4
    base_backoff_ns: float = 2_000.0
    multiplier: float = 2.0
    max_backoff_ns: float = 64_000.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def backoff_ns(self, attempt: int, token: int = 0) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        span = min(
            self.base_backoff_ns * self.multiplier ** (attempt - 1),
            self.max_backoff_ns,
        )
        if self.jitter == 0.0:
            return span
        frac = _jitter_fraction(token, attempt)
        return span * (1.0 - self.jitter * frac)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker tuning shared by all of a client's breakers.

    Attributes:
        failure_threshold: consecutive failures that open the breaker.
        cooldown_ns: simulated time the breaker stays open before
            half-opening to admit one probe.
    """

    failure_threshold: int = 8
    cooldown_ns: float = 200_000.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_ns < 0:
            raise ValueError("cooldown_ns must be >= 0")


class CircuitBreaker:
    """Failure-rate gate for one (client, memory node) pair.

    Invariant: a breaker with no failure streak (``consecutive_failures ==
    0``) is ``CLOSED``. Only :meth:`record_failure` leaves ``CLOSED``, after
    counting the failure, and only :meth:`record_success` clears the
    streak, closing the breaker as it does. So a client skips :meth:`allow`
    and :meth:`record_success` while the streak is zero: the one would
    return True and the other change nothing.
    """

    def __init__(self, node: int, policy: BreakerPolicy) -> None:
        self.node = node
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_ns = 0.0
        self.trips = 0
        self.rejections = 0

    def allow(self, now_ns: float) -> bool:
        """May an operation to this node proceed at simulated time ``now_ns``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now_ns - self.opened_at_ns >= self.policy.cooldown_ns:
                self.state = BreakerState.HALF_OPEN
                return True
            self.rejections += 1
            return False
        return True  # HALF_OPEN admits the probe

    def record_success(self) -> None:
        """A completed operation closes the breaker and clears the streak."""
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self, now_ns: float) -> bool:
        """Record one failed attempt; returns True iff this trip opened
        the breaker (a half-open probe failing re-opens without counting
        as a new trip streak)."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.OPEN
            self.opened_at_ns = now_ns
            return False
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at_ns = now_ns
            self.trips += 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(node={self.node}, state={self.state.value}, "
            f"failures={self.consecutive_failures}, trips={self.trips})"
        )
