"""The client-side view of far memory: a NIC with accounting.

A :class:`Client` is one "processor in the cluster" (section 1): it issues
one-sided operations against the fabric, pays simulated latency on its own
:class:`~repro.fabric.latency.SimClock`, and records exact operation
counts in its :class:`~repro.fabric.metrics.Metrics`.

The NIC is modelled the way real RDMA/Gen-Z dataplanes work — an
asynchronous submission/completion pipeline (:mod:`repro.fabric.pipeline`)
with the synchronous API as a thin veneer:

* **Submission** (:meth:`submit`): post one operation, get a
  :class:`~repro.fabric.pipeline.FarFuture`. Up to :attr:`qp_depth`
  submissions stay outstanding in the current *overlap window*; hitting
  the bound rings the doorbell (the window flushes, costing ``max(op
  latencies) + (n - 1) * issue_ns`` — overlap hides latency, not work).
* **Completion** (:attr:`cq`): a completion queue with ``poll()`` /
  ``wait_all()``; ``FarFuture.result()`` completes through it.
* **Synchronous calls**: every classic method (:meth:`read`,
  :meth:`write`, :meth:`cas`, the Fig. 1 primitives, scatter/gather)
  posts one window entry and rings the doorbell itself — a one-deep
  window, charging exactly what the pre-pipeline client charged, with no
  future built (a :class:`~repro.fabric.pipeline.FarFuture` is what
  :meth:`submit` returns). Each op is defined once, under its public
  name; the table in :mod:`repro.fabric.ops` registers it.
* **Batch windows** (:meth:`batch`): a scope that holds the window open
  regardless of depth, so every operation inside overlaps — the
  doorbell-batching façade, reimplemented on the pipeline.
* **Fences** (:meth:`fence`): an ordering point — the open window flushes,
  so operations before the fence complete before operations after it
  (section 2's memory-barrier assumption, "provided using request
  completion queues").
* **ERROR-policy completion**: when cross-node indirection is refused
  (section 7.1), the client transparently completes the pending access
  with a second, direct round trip — and the metrics show the cost.
* **Retry + circuit breaking**: every virtually addressed one-sided op
  passes through :meth:`Client._issue`, which transparently retries
  transient fabric faults (:mod:`repro.fabric.faults`) with exponential
  backoff and deterministic jitter (:mod:`repro.fabric.retry`), charges
  timeout and backoff time to the *operation's own* window contribution
  — so a retried future overlaps the rest of its window instead of
  stalling it — and fails fast per memory node via a circuit breaker
  once failures persist. Pass ``retry_policy=None`` /
  ``breaker_policy=None`` to disable either layer.

Clients also own a notification inbox; the notification subsystem
(:mod:`repro.notify`) delivers into it and :meth:`poll_notifications`
drains it.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Callable, Optional, Sequence

from .errors import (
    CircuitOpenError,
    ClientDeadError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    RemoteIndirectionError,
)
from .fabric import Fabric, FabricResult
from .integrity import frame_block, frame_size, try_unframe
from .latency import SimClock
from .metrics import Metrics
from .ops import FAR_OPS, FarOp
from .pipeline import CompletionQueue, FarFuture
from .primitives import FarIovec, PendingIndirection
from .retry import BreakerPolicy, CircuitBreaker, RetryPolicy
from .wire import WORD, decode_u64, encode_u64

DEFAULT_RETRY_POLICY = RetryPolicy()
DEFAULT_BREAKER_POLICY = BreakerPolicy()

DEFAULT_QP_DEPTH = 16
"""Default bound on outstanding submissions (RDMA queue-pair depth)."""

# Observability hook: when set (see repro.obs.set_default_tracer), every
# subsequently-created client auto-attaches to the provided tracer. This
# is how `python -m repro trace <example>` observes unmodified scripts.
_default_tracer_provider = None


class _NullSpan:
    """The no-op span returned by Client.trace when no tracer is attached
    — so a caller can label a phase unconditionally at zero cost."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# What Client._issue hands a guarded or observed op's fabric method: the
# segments of its first range, or else the Location of its word — except to
# those that translate for themselves: load1 / store1 / add1 dereference
# ``ad + index``, rscatter / wgather have no caller in the structures, and
# write_word keeps the (address, value) signature tests hook in place.
_RANGES = frozenset({"read", "write", "rgather", "wscatter"})
_IOVECS = frozenset({"rgather", "wscatter"})
_SELF_TRANSLATING = frozenset({"write_word", "load1", "store1", "add1", "rscatter", "wgather"})


class _Batch:
    """The scope Client.batch returns."""

    __slots__ = ("client",)

    def __init__(self, client: "Client") -> None:
        self.client = client

    def __enter__(self) -> None:
        self.client._batch_depth += 1

    def __exit__(self, *exc: Any) -> bool:
        client = self.client
        client._batch_depth -= 1
        if client._batch_depth == 0:
            client._flush_window(reason="batch")
        return False


class Client:
    """One compute-node client of the far memory pool."""

    _next_id = 0

    def __init__(
        self,
        fabric: Fabric,
        name: Optional[str] = None,
        *,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        breaker_policy: Optional[BreakerPolicy] = DEFAULT_BREAKER_POLICY,
        qp_depth: int = DEFAULT_QP_DEPTH,
    ) -> None:
        if qp_depth < 1:
            raise ValueError("qp_depth must be >= 1")
        self.fabric = fabric
        self.client_id = Client._next_id
        Client._next_id += 1
        self.name = name or f"client-{self.client_id}"
        self.clock = SimClock()
        self.metrics = Metrics()
        self.retry_policy = retry_policy
        self.breaker_policy = breaker_policy
        self.breakers: dict[int, CircuitBreaker] = {}
        self.alive = True
        self.qp_depth = qp_depth
        self.cq = CompletionQueue(self)
        self._inbox: deque = deque()
        # The open overlap window: one (op, charge_ns, span_id, future)
        # entry per posting awaiting the doorbell. ``future`` is None for
        # a synchronous call; ``op`` is None for a bare latency charge
        # made inside a batch scope.
        self._window: list[tuple] = []
        self._batch_depth = 0
        # The operation currently executing and the latency charged to it
        # so far; all latency charged while _op is set folds into that
        # operation's window contribution.
        self._op: Optional[str] = None
        self._charge = 0.0
        # Observability (repro.obs). The tracer is a pure observer: every
        # emission below is bookkeeping only, so metrics and timestamps are
        # bit-identical with tracing on or off.
        self._tracer = None
        if _default_tracer_provider is not None:
            tracer = _default_tracer_provider()
            if tracer is not None:
                tracer.attach(self)

    @classmethod
    def reset_ids(cls) -> None:
        """Reset the global client-id counter.

        Client ids seed names, lock tokens, and retry jitter; tests reset
        the counter (see ``tests/conftest.py``) so those stay
        deterministic regardless of which tests ran earlier in the
        process.
        """
        cls._next_id = 0

    # ------------------------------------------------------------------
    # Crash simulation (section 2: separate fault domains — a client
    # failure leaves far memory intact)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this client: volatile state (inbox, open window,
        unreaped completions) is lost, future operations raise, and any
        far-memory state it left behind (held locks, queue claims,
        half-migrated items) stays put for other clients to recover
        (:mod:`repro.recovery`)."""
        self.alive = False
        self._inbox.clear()
        doomed, self._window = self._window, []
        error = ClientDeadError(f"{self.name} has crashed")
        for _, _, _, future in doomed:
            if future is not None:
                future._error = error
                future.completed_at_ns = self.clock.now_ns
        self.cq._clear()

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The attached :class:`repro.obs.Tracer`, or None."""
        return self._tracer

    def trace(self, label: str, **tags: Any):
        """Open a tracing span attributing this client's work to ``label``.

        With no tracer attached this returns a shared no-op context
        manager, so callers label phases unconditionally and untraced runs
        stay bit-identical (no allocation, no metric, no clock). A
        certified op's own span is opened by its ``@far_budget``
        declaration, not through here.
        """
        if self._tracer is None:
            return _NULL_SPAN
        return self._tracer.span(self, label, **tags)

    # ------------------------------------------------------------------
    # Time + accounting plumbing
    # ------------------------------------------------------------------

    @property
    def cost_model(self):
        """The fabric's cost model (shared by all clients)."""
        return self.fabric.cost_model

    def _advance(self, ns: float) -> None:
        """Charge ``ns`` of far latency.

        Inside an executing operation the charge folds into that
        operation's window contribution (this is what lets a retried op's
        timeout + backoff ladder overlap its window peers — see the
        retry/batch accounting note in :meth:`_issue`). A bare charge
        inside a batch scope becomes its own window entry; otherwise the
        clock advances immediately.
        """
        if self._op is not None:
            self._charge += ns
        elif self._batch_depth > 0:
            self._window.append((None, ns, None, None))
        else:
            self.clock.advance(ns)

    def _account_far(
        self,
        nbytes_read: int,
        nbytes_written: int,
        forward_hops: int = 0,
        segments: int = 1,
        atomic: bool = False,
        node: Optional[int] = None,
        addr: Optional[int] = None,
        target: Optional[int] = None,
    ) -> None:
        """Count, price and trace one completed far access. ``atomic``
        (the event's key), ``node``, ``addr`` and ``target`` (the resolved
        indirection) are for the tracer only."""
        m = self.metrics
        m.far_accesses += 1
        m.round_trips += 1
        m.network_traversals += 2 * segments + forward_hops  # every result has >= 1 segment
        m.bytes_read += nbytes_read
        m.bytes_written += nbytes_written
        m.indirection_forwards += forward_hops
        fabric = self.fabric
        charge = fabric.cost_model.far_access_ns(nbytes_read + nbytes_written, forward_hops)
        if fabric.fault_injector is not None:  # a latency spike slows the op (1.0 if none fired)
            charge *= fabric.consume_fault_latency()
        if self._op is not None:
            self._charge += charge  # _advance's common case, without its frame
        else:
            self._advance(charge)
        if self._tracer is not None:
            self._tracer.on_far_access(
                self,
                op=self._op,
                charge_ns=charge,
                node=node,
                addr=addr,
                target=target,
                nbytes_read=nbytes_read,
                nbytes_written=nbytes_written,
                forward_hops=forward_hops,
                segments=segments,
                atomic=atomic,
            )

    def charge_far_access(
        self, *, nbytes_read: int = 0, nbytes_written: int = 0
    ) -> None:
        """Charge this client for one far access performed on its behalf
        by another subsystem (e.g. installing a notification subscription
        at a memory node)."""
        self._account_far(nbytes_read, nbytes_written)  # no node or address to trace

    def touch_local(self, count: int = 1) -> None:
        """Charge ``count`` client-local (near) accesses — data structures
        call this when they walk their caches (section 3: trading far
        accesses for near accesses). Near accesses never enter the NIC
        pipeline; they charge the clock directly."""
        self.metrics.near_accesses += count
        self.clock.advance(self.fabric.cost_model.near_access_ns(count))

    # ------------------------------------------------------------------
    # Submission / completion pipeline
    # ------------------------------------------------------------------

    def submit(self, op: str, *args: Any, signaled: bool = True) -> FarFuture:
        """Post one far operation to the submission queue.

        ``op`` names any one-sided method (``"read"``, ``"write"``,
        ``"cas"``, ``"load0"``, ``"rgather"``, ...); the operation
        executes with its latency deferred into the open overlap window
        and a :class:`FarFuture` is returned immediately. At most
        :attr:`qp_depth` submissions stay outstanding — the window
        flushes automatically when full (counted in
        ``metrics.pipeline_stalls``). Completions are reaped via
        :attr:`cq` or ``FarFuture.result()``.

        ``signaled=False`` posts an *unsignaled* work request (RDMA
        idiom): the future never lands in the completion queue, so a
        caller that holds the future and reaps it directly — the data
        structures' pipelined bulk paths — leaves no CQ entries behind.

        Errors (timeout after retries, open breaker, address faults)
        are captured in the future and raised at ``result()`` time, as a
        completion-queue error entry would be.
        """
        impl = _DISPATCH.get(op)
        if impl is None:
            raise ValueError(f"unknown far operation {op!r}")
        future = FarFuture(self, op, signaled)
        self._post(op, future, impl, *args)
        return future

    def _post(
        self, op: str, future: Optional[FarFuture], impl: Callable, *args: Any, **kwargs: Any
    ) -> Any:
        """Execute one operation eagerly and park its latency in the open
        window as one ``(op, charge_ns, span_id, future)`` entry.

        A synchronous call (``future`` is None) returns the value or
        raises, and rings the doorbell itself unless a batch scope holds
        the window; a submission captures value or error in ``future``
        and leaves the window open until :attr:`qp_depth` fills it. This
        is the one place an op is posted, so liveness is checked here.
        """
        if self._op is not None:
            # Nested issue (e.g. ERROR-policy completion re-entering
            # read/write): fold into the enclosing operation — its charge
            # and accounting belong to the outer entry.
            if future is None:
                return impl(self, *args, **kwargs)
            future.completed_at_ns = self.clock.now_ns
            try:
                future._value = impl(self, *args, **kwargs)
            except Exception as err:
                future._error = err
            return None
        if not self.alive:
            raise ClientDeadError(f"{self.name} has crashed")
        self.metrics.pipeline_ops += 1
        # The innermost open span (an attached client always has its root).
        span_id = None if self._tracer is None else self._tracer._stacks[self.client_id][-1].span_id
        self._op = op
        self._charge = 0.0
        try:
            value = impl(self, *args, **kwargs)
            if future is not None:
                future._value = value
            return value
        except Exception as err:
            if future is None:
                raise
            future._error = err
        finally:
            # Failed or not, the op occupied its slot: its (possibly 0.0)
            # charge is posted and the doorbell rings before a
            # synchronous caller sees the error.
            self._op = None
            window = self._window
            if future is None and not window and self._batch_depth == 0 and self.qp_depth > 1:
                # A synchronous call on an idle pipeline is its own
                # one-entry window: ring it without parking it first.
                self._flush_window("reap", (op, self._charge, span_id, None))
            else:
                if future is not None:
                    future.charge_ns, future.span_id = self._charge, span_id
                window.append((op, self._charge, span_id, future))
                if self._batch_depth == 0:
                    if len(window) >= self.qp_depth:
                        self.metrics.pipeline_stalls += 1
                        if self._tracer is not None:
                            self._tracer.emit(self, "stall", qp_depth=self.qp_depth)
                        self._flush_window(reason="stall")
                    elif future is None:
                        self._flush_window(reason="reap")

    def _flush_window(self, reason: str = "drain", entry: Optional[tuple] = None) -> None:
        """Ring the doorbell: charge the open window and complete its
        futures. The window costs ``max(contributions) + (n - 1) *
        issue_ns`` — overlap hides latency; the metrics counted every
        operation individually at issue time — which for the one-deep
        window of a synchronous call is that call's own charge (``entry``:
        one rung on an idle pipeline without being parked first).
        ``reason`` is observability only (why the doorbell rang:
        stall/batch/fence/reap/drain)."""
        if entry is not None:
            window: Sequence[tuple] = (entry,)
            charged = serial = entry[1]
        else:
            window = self._window
            if not window:
                return
            self._window = []
            if len(window) == 1:
                charged = serial = window[0][1]  # window_ns([c]) == sum([c]) == c
            else:
                charges = [charge for _, charge, _, _ in window]
                charged = self.cost_model.window_ns(charges)
                serial = sum(charges)
        start_ns = self.clock.now_ns
        now = self.clock.advance(charged)
        m = self.metrics
        m.pipeline_flushes += 1
        m.pipeline_charged_ns += int(charged)
        if serial > charged:
            m.overlap_saved_ns += int(serial - charged)
        if self._tracer is not None:
            self._tracer.on_window(
                self,
                start_ns=start_ns,
                charged_ns=charged,
                serial_ns=serial,
                saved_ns=serial - charged if serial > charged else 0.0,
                reason=reason,
                window=window,
            )
        for _, _, _, future in window:
            if future is not None:
                future.completed_at_ns = now
                if future._tracked and not future._reaped:
                    self.cq._deliver(future)

    def batch(self) -> "_Batch":
        """Overlap the operations issued inside the ``with`` block.

        The scope pins the overlap window open past :attr:`qp_depth` —
        one doorbell for the whole block, costing ``max(latencies) +
        (n - 1) * issue_ns`` of simulated time; every operation is still
        counted individually in the metrics (overlap hides latency, not
        work). Nested batches flatten into the outer window, which flushes
        on the outermost exit even when the block raises.
        """
        return _Batch(self)

    def fence(self) -> None:
        """Ordering point: all prior operations complete before later ones.

        Flushes the open window (pipelined submissions and batch scopes
        alike), so earlier operations' latency is fully charged before
        any later operation issues. Outside any window it only marks
        intent (and is counted, for audit).
        """
        self.metrics.bump("fences")
        self._flush_window(reason="fence")

    # ------------------------------------------------------------------
    # Retry / circuit-breaker machinery
    # ------------------------------------------------------------------

    def _breaker_for(self, node: int) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        breaker = self.breakers.get(node)
        if breaker is None:
            breaker = self.breakers[node] = CircuitBreaker(node, self.breaker_policy)
        return breaker

    def _issue(
        self, row: FarOp, address: int, nbytes_read: int, nbytes_written: int, op, *args
    ) -> Any:
        """Run one far op of ``row`` — ``op(*args)``, the fabric method its
        body names — and account for it; returns what the fabric returned.

        Every virtually addressed op funnels through here. The flow per
        attempt is: circuit-breaker gate → fault-injection check (operation
        boundary, so a timeout has no memory-side effects; the fault kind
        is ``row.fabric``) → the fabric call. Transient failures
        (:class:`FarTimeoutError`, and :class:`NodeUnavailableError` from
        fail-stop nodes) charge the timeout-detection interval plus
        exponential backoff *to the operation's own window contribution*
        — inside an overlap window the retry ladder overlaps the other
        outstanding ops (each QP slot waits out its own timeout
        independently on real NICs), while a synchronous call serialises
        exactly as before — and are retried up to the policy's attempt
        budget. Failed attempts are *not* counted as far
        accesses (those count completed work); they appear in
        ``metrics.timeouts`` / ``retries`` / ``backoff_ns`` instead. When
        the breaker for the target node is (or trips) open, the op fails
        fast with :class:`CircuitOpenError`.

        A completed op is one far access moving the byte counts its body
        passed, counted in ``atomic_ops`` when its row is atomic; the
        result supplies segments and forward hops (a Fig. 1 op's forwarded
        segments, or a write's ranges mirrored while its extent migrates
        under FORWARD). An indirection the memory node refuses (ERROR
        policy, section 7.1) still cost a round trip — the home node read
        the pointer word, then bounced the request — and the client
        completes it directly (:meth:`_complete_pending`).

        The home node is the op's own translation: unless the client is
        bare (no policy, tracer or injector), the address is translated
        here, once, and handed to the op (see ``_RANGES``). Nothing is
        cached across ops, so a remap between two ops is always seen.

        Breaker cooldowns compare against the client's clock as of the
        last doorbell; charges still in the open window are invisible to
        it, which is deterministic and matches a NIC consulting its
        completion timestamps.
        """
        fabric = self.fabric
        tracer = self._tracer
        policy = self.retry_policy
        unguarded = policy is None and self.breaker_policy is None
        kind = row.fabric
        node = None  # the home node; a bare client never needs it
        if not (unguarded and tracer is None and fabric.fault_injector is None):
            # One translation: its node is the guards' and the tracer's.
            extents = fabric.extents
            if kind in _RANGES:
                iovec = kind in _IOVECS and args[0]
                at = extents.split(address, iovec[0][1] if iovec else nbytes_read + nbytes_written)
                home = at[0][0] if at else extents.locate(address)
            else:
                at = home = extents.locate(address)
            if kind not in _SELF_TRANSLATING:
                args += (at,)
            node = home.node
        try:
            if node is None:
                result = op(*args)  # the op translates for itself
            elif unguarded:
                try:
                    if fabric.fault_injector is not None:
                        fabric.fault_check(node, address, kind)
                    result = op(*args)
                except FarTimeoutError as err:
                    if tracer is not None and err.torn:
                        tracer.emit(
                            self, "torn_write", op=kind, node=err.node, addr=address, attempt=1
                        )
                    raise
            else:
                breaker = self._breaker_for(node)
                if breaker is not None and not breaker.allow(self.clock.now_ns):
                    self.metrics.breaker_rejections += 1
                    if tracer is not None:
                        tracer.emit(self, "breaker_reject", node=node)
                    raise CircuitOpenError(node, address)
                attempts = policy.max_attempts if policy is not None else 1
                token = (self.client_id << 48) ^ address
                last: Optional[Exception] = None
                for attempt in range(1, attempts + 1):
                    if attempt > 1:
                        backoff = policy.backoff_ns(attempt - 1, token)
                        self.metrics.retries += 1
                        self.metrics.backoff_ns += int(backoff)
                        self._advance(backoff)
                        if tracer is not None:
                            tracer.emit(
                                self,
                                "backoff",
                                op=self._op,
                                node=node,
                                attempt=attempt,
                                backoff_ns=backoff,
                            )
                    try:
                        if fabric.fault_injector is not None:
                            fabric.fault_check(node, address, kind)
                        result = op(*args)
                    except FarTimeoutError as err:
                        self.metrics.timeouts += 1
                        if tracer is not None:
                            tracer.emit(self, "timeout", op=self._op, node=node, attempt=attempt)
                        if tracer is not None and err.torn:
                            # A torn write is a timeout with teeth: a prefix landed. A
                            # later successful retry rewrites the full buffer, healing it.
                            tracer.emit(
                                self,
                                "torn_write",
                                op=kind,
                                node=node,
                                addr=address,
                                attempt=attempt,
                            )
                        last = err
                    except NodeUnavailableError as err:
                        last = err
                    else:
                        if breaker is not None:
                            breaker.record_success()
                        break
                    # Failed attempt: any pending latency spike died with it, and
                    # the client only learns of the loss after a full timeout.
                    fabric.consume_fault_latency()
                    self._advance(self.cost_model.timeout_ns)
                    if breaker is not None:
                        if breaker.record_failure(self.clock.now_ns):
                            self.metrics.breaker_trips += 1
                            if tracer is not None:
                                tracer.emit(self, "breaker_trip", node=node)
                        if not breaker.allow(self.clock.now_ns):
                            raise last  # breaker opened mid-op: stop hammering the node
                else:
                    raise last
        except RemoteIndirectionError as err:
            self._account_far(WORD, 0, node=node, addr=address)  # the refused round trip
            result = self._complete_pending(err.pending)
        else:
            if type(result) is FabricResult:
                atomic = False  # the event's ``atomic`` key marks the word atomics only
                hops, segments, target = result.forward_hops, result.segments, result.pointer
            else:  # a word op (cas, faa and swap are its atomics): one segment, no hops
                atomic, hops, segments, target = row.atomic, 0, 1, None
            self._account_far(
                nbytes_read, nbytes_written, hops, segments, atomic, node, address, target
            )
        if row.atomic:
            self.metrics.atomic_ops += 1
        return result

    # ------------------------------------------------------------------
    # Base one-sided operations. Every op is defined once, under its
    # public name: the body below is what ``submit`` dispatches to, and
    # the registration loop after the class (driven by the table in
    # repro.fabric.ops) rebinds the name to its synchronous entry. A body
    # always runs inside ``_post``, so the latency it charges lands in
    # its own window entry.
    # ------------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """One-sided read: one far access."""
        result = self._issue(FAR_OPS["read"], address, length, 0, self.fabric.read, address, length)
        return result.value

    def write(self, address: int, data: bytes) -> None:
        """One-sided write: one far access."""
        self._issue(
            FAR_OPS["write"], address, 0, len(data), self.fabric.write, address, bytes(data)
        )

    def read_u64(self, address: int) -> int:
        """Read one 64-bit word (one far access)."""
        return self._issue(FAR_OPS["read_u64"], address, WORD, 0, self.fabric.read_word, address)

    def write_u64(self, address: int, value: int) -> None:
        """Write one 64-bit word (one far access)."""
        self._issue(FAR_OPS["write_u64"], address, 0, WORD, self.fabric.write_word, address, value)

    def write_phys(self, node: int, offset: int, data: bytes) -> None:
        """Raw physical write to a migration staging slot: one far access.

        Migration-engine only (the destination slot has no virtual
        address until its remap commits). Charged and traced like any far
        write, but addressed ``(node, offset)`` — the NIC-to-NIC DMA leg
        of a live copy.
        """
        # Physically addressed, so it skips _issue (fault rules, breakers
        # and retries key on virtual addresses; the staging slot has none
        # yet). Node failure still surfaces as NodeUnavailableError.
        result = self.fabric.write_phys(node, offset, bytes(data))
        self._account_far(0, len(data), 0, result.segments, node=node)

    def cas(self, address: int, expected: int, new: int) -> tuple[int, bool]:
        """Atomic compare-and-swap (one far access)."""
        op = self.fabric.compare_and_swap
        return self._issue(FAR_OPS["cas"], address, WORD, WORD, op, address, expected, new)

    def faa(self, address: int, delta: int) -> int:
        """Atomic fetch-and-add (one far access); returns the old value."""
        return self._issue(
            FAR_OPS["faa"], address, WORD, WORD, self.fabric.fetch_add, address, delta
        )

    def swap(self, address: int, value: int) -> int:
        """Atomic exchange (one far access); returns the old value."""
        return self._issue(FAR_OPS["swap"], address, WORD, WORD, self.fabric.swap, address, value)

    # ------------------------------------------------------------------
    # Verified I/O (repro.fabric.integrity): end-to-end checksums over
    # the same one-sided ops — far memory cannot verify what it stores.
    # ------------------------------------------------------------------

    def write_framed(self, address: int, payload: bytes, *, version: int = 0) -> None:
        """Write ``payload`` wrapped in a crc+version frame (one far
        access; the frame occupies ``frame_size(len(payload))`` bytes)."""
        self.write(address, frame_block(payload, version))

    def read_verified(
        self, address: int, payload_len: int, *, fallback: Sequence[int] = ()
    ) -> tuple[int, bytes]:
        """Read and checksum-verify one frame; returns ``(version, payload)``.

        On a checksum miss (corrupted bytes or a torn write) the read
        transparently fails over to each address in ``fallback`` — healthy
        replica copies of the same block — at **one extra far access per
        verify-miss**; when every copy fails verification the last miss is
        raised as :class:`FarCorruptionError`. Misses are counted in
        ``metrics.verify_misses`` (and successful verifications in
        ``metrics.verified_reads``), so detection overhead stays explicit
        in the ledger.
        """
        length = frame_size(payload_len)
        last: Optional[FarCorruptionError] = None
        for attempt_addr in (address, *fallback):
            frame = self.read(attempt_addr, length)
            self.metrics.verified_reads += 1
            decoded = try_unframe(frame)
            if decoded is not None:
                return decoded
            self.metrics.verify_misses += 1
            node = self.fabric.node_of(attempt_addr)
            if self._tracer is not None:
                self._tracer.emit(
                    self,
                    "corruption_detected",
                    node=node,
                    addr=attempt_addr,
                    payload_len=payload_len,
                )
            last = FarCorruptionError(node, attempt_addr, payload_len)
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Fig. 1 primitives, with ERROR-policy completion
    # ------------------------------------------------------------------

    def _complete_pending(self, pending: PendingIndirection) -> FabricResult:
        """Finish an indirection the memory node refused (section 7.1:
        "leaving it up to the compute node to explicitly issue a request
        to the target memory node"). Costs one more far access."""
        self.metrics.indirection_errors += 1
        if pending.kind == "read":
            data = self.read(pending.target, pending.length)
            return FabricResult(value=data, pointer=pending.pointer)
        if pending.kind == "write":
            assert pending.payload is not None
            self.write(pending.target, pending.payload)
            return FabricResult(pointer=pending.pointer)
        if pending.kind == "add":
            old = self.faa(pending.target, pending.delta)
            return FabricResult(value=old, pointer=pending.pointer)
        if pending.kind == "swap":
            assert pending.payload is not None
            data = self.read(pending.target, pending.length)
            self.write(pending.target, pending.payload)
            return FabricResult(value=data, pointer=pending.pointer)
        raise ValueError(f"unknown pending indirection kind {pending.kind!r}")

    def load0(self, ad: int, length: int) -> FabricResult:
        """Indirect load: read ``length`` bytes at ``*ad``."""
        return self._issue(FAR_OPS["load0"], ad, length, 0, self.fabric.load0, ad, length)

    def store0(self, ad: int, value: bytes) -> FabricResult:
        """Indirect store: write ``value`` at ``*ad``."""
        return self._issue(FAR_OPS["store0"], ad, 0, len(value), self.fabric.store0, ad, value)

    def load1(self, ad: int, index: int, length: int) -> FabricResult:
        """Indexed indirect load: read at ``*(ad + index)``."""
        return self._issue(FAR_OPS["load1"], ad, length, 0, self.fabric.load1, ad, index, length)

    def store1(self, ad: int, index: int, value: bytes) -> FabricResult:
        """Indexed indirect store: write at ``*(ad + index)``."""
        return self._issue(
            FAR_OPS["store1"], ad, 0, len(value), self.fabric.store1, ad, index, value
        )

    def load2(self, ad: int, index: int, length: int) -> FabricResult:
        """Offset indirect load: read at ``*ad + index``."""
        return self._issue(FAR_OPS["load2"], ad, length, 0, self.fabric.load2, ad, index, length)

    def store2(self, ad: int, index: int, value: bytes) -> FabricResult:
        """Offset indirect store: write at ``*ad + index``."""
        return self._issue(
            FAR_OPS["store2"], ad, 0, len(value), self.fabric.store2, ad, index, value
        )

    def faai(self, ad: int, delta: int, length: int) -> FabricResult:
        """Fetch-and-add-indirect (queue dequeue fast path, section 5.3)."""
        return self._issue(
            FAR_OPS["faai"], ad, length + WORD, 0, self.fabric.faai, ad, delta, length
        )

    def saai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        """Store-and-add-indirect (queue enqueue fast path, section 5.3)."""
        return self._issue(
            FAR_OPS["saai"], ad, 0, len(value) + WORD, self.fabric.saai, ad, delta, value
        )

    def fsaai(self, ad: int, delta: int, value: bytes) -> FabricResult:
        """Fetch-store-and-add-indirect (the DESIGN.md extension): bump
        ``*ad``, atomically swap ``value`` into the old target, and return
        what was there — the fully-safe one-access dequeue."""
        return self._issue(
            FAR_OPS["fsaai"], ad, len(value), len(value) + WORD, self.fabric.fsaai, ad, delta, value
        )

    def add0(self, ad: int, delta: int) -> FabricResult:
        """``**ad += delta`` in one far access."""
        return self._issue(FAR_OPS["add0"], ad, 0, WORD, self.fabric.add0, ad, delta)

    def add1(self, ad: int, delta: int, index: int) -> FabricResult:
        """``**(ad + index) += delta`` in one far access."""
        return self._issue(FAR_OPS["add1"], ad, 0, WORD, self.fabric.add1, ad, delta, index)

    def add2(self, ad: int, delta: int, index: int) -> FabricResult:
        """``*(*ad + index) += delta`` in one far access (histogram bump)."""
        return self._issue(FAR_OPS["add2"], ad, 0, WORD, self.fabric.add2, ad, delta, index)

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------

    def rscatter(self, ad: int, lengths: Sequence[int]) -> list[bytes]:
        """Read a far range into local buffers: one far access."""
        return self._issue(
            FAR_OPS["rscatter"], ad, sum(lengths), 0, self.fabric.rscatter, ad, lengths
        ).value

    def rgather(self, iovec: FarIovec) -> bytes:
        """Read a far iovec into one local buffer: one far access."""
        anchor = iovec[0][0] if iovec else 0
        nbytes = sum(length for _, length in iovec)
        return self._issue(FAR_OPS["rgather"], anchor, nbytes, 0, self.fabric.rgather, iovec).value

    def wscatter(self, iovec: FarIovec, data: bytes) -> None:
        """Scatter a local buffer across a far iovec: one far access."""
        anchor = iovec[0][0] if iovec else 0
        self._issue(
            FAR_OPS["wscatter"], anchor, 0, len(data), self.fabric.wscatter, iovec, bytes(data)
        )

    def wgather(self, ad: int, buffers: Sequence[bytes]) -> None:
        """Gather local buffers into one far range: one far access."""
        nbytes = sum(len(b) for b in buffers)
        self._issue(FAR_OPS["wgather"], ad, 0, nbytes, self.fabric.wgather, ad, buffers)

    # ------------------------------------------------------------------
    # Word-value conveniences for the indirect primitives
    # ------------------------------------------------------------------

    def load0_u64(self, ad: int) -> int:
        """Indirect load of one word, decoded."""
        return decode_u64(self.load0(ad, WORD).value)

    def load2_u64(self, ad: int, index: int) -> int:
        """Offset indirect load of one word, decoded."""
        return decode_u64(self.load2(ad, index, WORD).value)

    def store0_u64(self, ad: int, value: int) -> None:
        """Indirect store of one word."""
        self.store0(ad, encode_u64(value))

    def store2_u64(self, ad: int, index: int, value: int) -> None:
        """Offset indirect store of one word."""
        self.store2(ad, index, encode_u64(value))

    # ------------------------------------------------------------------
    # Notification inbox (filled by repro.notify)
    # ------------------------------------------------------------------

    def deliver(self, notification: Any) -> None:
        """Called by the notification subsystem to push one notification."""
        if not self.alive:
            return  # messages to a dead process vanish with it
        self.metrics.notifications_received += 1
        self.metrics.notification_bytes += getattr(notification, "size_bytes", 0)
        if getattr(notification, "is_loss_warning", False):
            self.metrics.loss_warnings += 1
        self._inbox.append(notification)

    def pending_notifications(self) -> int:
        """Number of undrained notifications."""
        return len(self._inbox)

    def poll_notifications(self, max_items: Optional[int] = None) -> list[Any]:
        """Drain up to ``max_items`` notifications (near-memory cost only:
        the whole point of notifications is avoiding far-memory probing)."""
        out: list[Any] = []
        while self._inbox and (max_items is None or len(out) < max_items):
            out.append(self._inbox.popleft())
        if out:
            self.touch_local(len(out))
        return out

    def __repr__(self) -> str:
        return f"Client({self.name!r}, t={self.clock.now_ns:.0f}ns)"


def _sync_entry(op: str, impl: Callable) -> Callable:
    """The synchronous form of one far op: post it as one window entry and
    ring the doorbell (``Client._post`` with no future)."""

    @functools.wraps(impl)
    def entry(self: Client, *args: Any, **kwargs: Any) -> Any:
        return self._post(op, None, impl, *args, **kwargs)

    return entry


#: ``submit()``'s dispatch: op name -> the definition in the class body.
#: The table drives registration, so a row without a definition is a
#: ``KeyError`` at import and there is no second list to keep in sync.
_DISPATCH: dict[str, Callable] = {name: vars(Client)[name] for name in FAR_OPS}
for _name, _impl in _DISPATCH.items():
    setattr(Client, _name, _sync_entry(_name, _impl))
