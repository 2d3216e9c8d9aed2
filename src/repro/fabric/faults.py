"""Deterministic transient-fault injection for the simulated fabric.

``Fabric.fail_node`` models *fail-stop* outages: a node is down until an
operator repairs it. Real RDMA/Gen-Z dataplanes misbehave in far messier
ways — requests time out, links glitch, switches congest — and the
paper's availability argument (section 2: far memory is its own fault
domain) only pays off if clients survive that mess. This module supplies
the mess, reproducibly:

* **Transient timeouts** — an operation's request is dropped and the
  client sees :class:`~repro.fabric.errors.FarTimeoutError`. Injection
  happens at the *operation boundary*, before the memory node executes
  anything, so a timed-out op has no side effects and retrying it is
  always safe (even for ``faai``/``saai``/CAS).
* **Latency spikes** — the operation completes, but its simulated-time
  charge is multiplied (congestion, retransmission at a lower layer).
* **Flaky windows** — a node drops *every* operation for the next N
  accesses, then self-heals: the middle ground between a lost packet and
  a fail-stop crash (link flap, switch reboot, NIC reset).
* **Corruption** — random bit flips in stored bytes near the accessed
  address (DRAM rot, a misbehaving DMA engine). Injection is *silent*:
  the access completes normally over the rotten bytes, and only the
  checksum framing layer (:mod:`repro.fabric.integrity`) can tell.
* **Torn writes** — a multi-word write applies only a word-aligned
  prefix before the fabric loses the request; the client sees a timeout
  (with ``torn=True``), but unlike a plain request drop the far bytes
  are now neither old nor new. Fires only for the multi-word write ops
  (``write``/``wscatter``/``wgather``): single-word stores and atomics
  are fabric-atomic and cannot tear.

All randomness comes from one seeded :class:`random.Random`, consumed in
a fixed per-access order, so a (seed, workload) pair replays the exact
same fault sequence — benchmarks and the chaos tests depend on that.
Rules that fire draw any extra randomness they need (bit positions, the
tear fraction) immediately after their hit draw; since the operation kind
is part of the workload, replay stays byte-identical for all five kinds.

Scripted outages use :class:`FaultPlan`: a builder for fault rules pinned
to explicit access-index windows (probability 1 inside the window), so a
test can say "node 1 flaps at access 500 for 20 accesses" and get exactly
that, every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import FarTimeoutError

TIMEOUT = "timeout"
LATENCY = "latency"
FLAKY = "flaky"
CORRUPT = "corrupt"
TORN = "torn"

_KINDS = (TIMEOUT, LATENCY, FLAKY, CORRUPT, TORN)

#: Operation kinds a TORN rule can tear: multi-word writes only. Word
#: stores and atomics execute atomically at the node and cannot apply a
#: partial prefix; reads have nothing to tear.
TORN_KINDS = frozenset({"write", "wscatter", "wgather"})


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what to inject, where, when, and how often.

    Attributes:
        kind: ``"timeout"``, ``"latency"``, ``"flaky"``, ``"corrupt"``,
            or ``"torn"``.
        probability: per-access injection probability in ``[0, 1]``.
        node: only accesses routed to this node (``None`` = any node).
        address_range: only accesses whose target address falls in
            ``[lo, hi)`` (``None`` = any address).
        multiplier: latency-charge multiplier (``kind == "latency"``).
        duration: accesses a flaky window stays open (``kind == "flaky"``).
        bits: bit flips per corruption event (``kind == "corrupt"``).
        span: byte window after the accessed address inside which the
            flipped bits land (``kind == "corrupt"``).
        start_op / end_op: restrict the rule to the half-open access-index
            window ``[start_op, end_op)`` (``end_op None`` = forever).
    """

    kind: str
    probability: float
    node: Optional[int] = None
    address_range: Optional[tuple[int, int]] = None
    multiplier: float = 8.0
    duration: int = 8
    bits: int = 1
    span: int = 64
    start_op: int = 0
    end_op: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("latency multiplier must be >= 1")
        if self.duration < 1:
            raise ValueError("flaky duration must be >= 1")
        if self.bits < 1:
            raise ValueError("corruption must flip at least 1 bit")
        if self.span < 1:
            raise ValueError("corruption span must be >= 1 byte")

    def matches(self, op_index: int, node: int, address: int) -> bool:
        """Does this rule apply to the given access?"""
        if op_index < self.start_op:
            return False
        if self.end_op is not None and op_index >= self.end_op:
            return False
        if self.node is not None and node != self.node:
            return False
        if self.address_range is not None:
            lo, hi = self.address_range
            if not lo <= address < hi:
                return False
        return True


@dataclass
class FaultStats:
    """What the injector actually did (for assertions and bench tables)."""

    checks: int = 0
    timeouts_injected: int = 0
    spikes_injected: int = 0
    flaky_windows_opened: int = 0
    flaky_drops: int = 0
    corruptions_injected: int = 0
    bits_flipped: int = 0
    torn_writes_injected: int = 0

    @property
    def faults_injected(self) -> int:
        """Total operations disturbed (dropped, slowed, torn, or rotted)."""
        return (
            self.timeouts_injected
            + self.spikes_injected
            + self.flaky_drops
            + self.corruptions_injected
            + self.torn_writes_injected
        )


class FaultPlan:
    """A scripted, reproducible chaos schedule.

    Builder methods append :class:`FaultRule` entries; scheduled events
    use probability 1 inside explicit access-index windows, while the
    ``random_*`` methods add background probabilistic noise. Apply with
    ``FaultInjector(seed=..., plan=plan)`` (or ``Cluster.inject_faults``).
    """

    def __init__(self) -> None:
        self.rules: list[FaultRule] = []

    def _add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    # -- scheduled events (deterministic regardless of seed) ------------

    def timeout_at(
        self, op: int, *, node: Optional[int] = None, count: int = 1
    ) -> "FaultPlan":
        """Drop the ``count`` accesses starting at access index ``op``."""
        return self._add(
            FaultRule(TIMEOUT, 1.0, node=node, start_op=op, end_op=op + count)
        )

    def flaky_at(
        self, op: int, *, node: int, duration: int = 8
    ) -> "FaultPlan":
        """Open a flaky window on ``node`` at access index ``op``."""
        return self._add(
            FaultRule(
                FLAKY, 1.0, node=node, duration=duration,
                start_op=op, end_op=op + 1,
            )
        )

    def spike_between(
        self,
        start_op: int,
        end_op: int,
        *,
        multiplier: float = 8.0,
        node: Optional[int] = None,
    ) -> "FaultPlan":
        """Multiply latency charges for every access in ``[start_op, end_op)``."""
        return self._add(
            FaultRule(
                LATENCY, 1.0, node=node, multiplier=multiplier,
                start_op=start_op, end_op=end_op,
            )
        )

    # -- background noise (seed-dependent) ------------------------------

    def random_timeouts(
        self,
        probability: float,
        *,
        node: Optional[int] = None,
        address_range: Optional[tuple[int, int]] = None,
    ) -> "FaultPlan":
        """Drop each matching access with the given probability."""
        return self._add(
            FaultRule(TIMEOUT, probability, node=node, address_range=address_range)
        )

    def random_spikes(
        self,
        probability: float,
        *,
        multiplier: float = 8.0,
        node: Optional[int] = None,
    ) -> "FaultPlan":
        """Slow each matching access with the given probability."""
        return self._add(
            FaultRule(LATENCY, probability, node=node, multiplier=multiplier)
        )

    def random_flaky(
        self, probability: float, *, duration: int = 8, node: Optional[int] = None
    ) -> "FaultPlan":
        """Open a ``duration``-access flaky window with the given probability."""
        return self._add(
            FaultRule(FLAKY, probability, node=node, duration=duration)
        )

    def random_corruption(
        self,
        probability: float,
        *,
        bits: int = 1,
        span: int = 64,
        node: Optional[int] = None,
        address_range: Optional[tuple[int, int]] = None,
    ) -> "FaultPlan":
        """Silently flip ``bits`` stored bits within ``span`` bytes of the
        accessed address, with the given per-access probability."""
        return self._add(
            FaultRule(
                CORRUPT, probability, node=node, address_range=address_range,
                bits=bits, span=span,
            )
        )

    def corrupt_at(
        self,
        op: int,
        *,
        node: Optional[int] = None,
        count: int = 1,
        bits: int = 1,
        span: int = 64,
    ) -> "FaultPlan":
        """Corrupt the ``count`` accesses starting at access index ``op``."""
        return self._add(
            FaultRule(
                CORRUPT, 1.0, node=node, bits=bits, span=span,
                start_op=op, end_op=op + count,
            )
        )

    def random_torn(
        self,
        probability: float,
        *,
        node: Optional[int] = None,
        address_range: Optional[tuple[int, int]] = None,
    ) -> "FaultPlan":
        """Tear each matching multi-word write with the given probability:
        a word-aligned prefix lands, then the op times out (``torn=True``).
        Non-write accesses are never matched."""
        return self._add(
            FaultRule(TORN, probability, node=node, address_range=address_range)
        )

    def torn_at(
        self, op: int, *, node: Optional[int] = None, count: int = 1
    ) -> "FaultPlan":
        """Tear the multi-word writes among accesses ``[op, op+count)``."""
        return self._add(
            FaultRule(TORN, 1.0, node=node, start_op=op, end_op=op + count)
        )

    def __len__(self) -> int:
        return len(self.rules)


class FaultInjector:
    """Seeded transient-fault source attached to a :class:`Fabric`.

    The fabric consults :meth:`before_access` once per client-issued
    operation, *before* any memory-side state changes — see
    ``Fabric.fault_check``. Latency spikes do not raise; they accumulate
    a pending multiplier the client consumes when charging its clock.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: list[FaultRule] = list(plan.rules) if plan else []
        self.stats = FaultStats()
        self.op_index = 0
        self._flaky_until: dict[int, int] = {}  # node -> op index window closes
        self._pending_multiplier = 1.0
        # Consumed by the fabric between the fault check and the op body:
        # (byte offset, bit index) flips relative to the accessed address,
        # and the fraction of a torn write that lands before the loss.
        self._pending_corruption: Optional[list[tuple[int, int]]] = None
        self._pending_torn: Optional[float] = None

    # ------------------------------------------------------------------
    # The injection point
    # ------------------------------------------------------------------

    def before_access(
        self, node: int, address: int, kind: Optional[str] = None
    ) -> None:
        """Called by the fabric at each operation boundary.

        May raise :class:`FarTimeoutError`; never mutates far memory
        directly — corruption and tearing are recorded as *pending* state
        the fabric consumes via :meth:`take_corruption` /
        :meth:`take_torn_fraction` while executing the op. ``kind`` names
        the fabric method being issued (``"write"``, ``"read"``,
        ``"fetch_add"``, ...); TORN rules only match kinds in
        :data:`TORN_KINDS`. The RNG is consumed in a fixed order (one
        draw per probabilistic rule per access, plus the fired rule's own
        draws) so fault sequences replay exactly.
        """
        # Pending effects from a previous access that never executed (its
        # request was dropped by another rule) die with that request.
        self._pending_corruption = None
        self._pending_torn = None
        op = self.op_index
        self.op_index += 1
        self.stats.checks += 1

        # An open flaky window drops everything to the node until it heals.
        until = self._flaky_until.get(node)
        if until is not None:
            if op < until:
                self.stats.flaky_drops += 1
                raise FarTimeoutError(node, address, reason="flaky window")
            del self._flaky_until[node]  # self-healed

        drop: Optional[str] = None
        for rule in self.rules:
            if rule.kind == TORN and kind not in TORN_KINDS:
                continue  # nothing to tear: no draw, kind is workload-fixed
            if not rule.matches(op, node, address):
                continue
            hit = rule.probability >= 1.0 or self.rng.random() < rule.probability
            if not hit:
                continue
            if rule.kind == LATENCY:
                self._pending_multiplier = max(
                    self._pending_multiplier, rule.multiplier
                )
                self.stats.spikes_injected += 1
            elif rule.kind == FLAKY:
                if node not in self._flaky_until:
                    self._flaky_until[node] = op + 1 + rule.duration
                    self.stats.flaky_windows_opened += 1
                drop = drop or "flaky window opened"
            elif rule.kind == CORRUPT:
                flips = [
                    (self.rng.randrange(rule.span), self.rng.randrange(8))
                    for _ in range(rule.bits)
                ]
                if self._pending_corruption is None:
                    self._pending_corruption = []
                self._pending_corruption.extend(flips)
                self.stats.corruptions_injected += 1
                self.stats.bits_flipped += len(flips)
            elif rule.kind == TORN:
                if self._pending_torn is None:
                    self._pending_torn = self.rng.random()
                    self.stats.torn_writes_injected += 1
            elif drop is None:
                drop = "request dropped"
        if drop is not None:
            if drop == "flaky window opened":
                self.stats.flaky_drops += 1
            else:
                self.stats.timeouts_injected += 1
            raise FarTimeoutError(node, address, reason=drop)

    def consume_latency_multiplier(self) -> float:
        """Pending latency multiplier for the just-completed operation
        (resets to 1 after reading)."""
        mult, self._pending_multiplier = self._pending_multiplier, 1.0
        return mult

    def take_corruption(self) -> Optional[list[tuple[int, int]]]:
        """Pending ``(byte_offset, bit_index)`` flips for the access that
        just passed the fault check (one-shot; None when no CORRUPT rule
        fired). The fabric applies them to stored bytes *silently* — no
        write hooks, no node stats — before executing the op."""
        flips, self._pending_corruption = self._pending_corruption, None
        return flips

    def take_torn_fraction(self) -> Optional[float]:
        """Pending tear fraction in ``[0, 1)`` for the write that just
        passed the fault check (one-shot; None when no TORN rule fired).
        The fabric writes the word-aligned prefix, then times the op out
        with ``torn=True``."""
        fraction, self._pending_torn = self._pending_torn, None
        return fraction

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self.rules)}, "
            f"injected={self.stats.faults_injected})"
        )
