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
  :meth:`phase` posts N calls of one op the same way, with no future.
* **Completion** (:attr:`cq`): a completion queue with ``poll()`` /
  ``wait_all()``; ``FarFuture.result()`` completes through it.
* **Synchronous calls**: every classic method (:meth:`read`,
  :meth:`write`, :meth:`cas`, the Fig. 1 primitives, scatter/gather)
  posts one window entry and rings the doorbell itself — a one-deep
  window, charging exactly what the pre-pipeline client charged, with no
  future built (a :class:`~repro.fabric.pipeline.FarFuture` is what
  :meth:`submit` returns). No op has a hand-written body: each method is
  built from its row in :mod:`repro.fabric.ops`, and :meth:`_issue` runs
  the op from that row, its arguments handed on as one tuple.
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
  ``breaker_policy=None`` to disable either layer; with both ``None``, an
  attached tracer or fault injector still runs the same ladder with one
  attempt and no breaker, so a failed attempt costs the same on every
  client.

Clients also own a notification inbox; the notification subsystem
(:mod:`repro.notify`) delivers into it and :meth:`poll_notifications`
drains it.
"""

from __future__ import annotations

import inspect
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

from .errors import (
    CircuitOpenError,
    ClientDeadError,
    FabricError,
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
from .primitives import PendingIndirection
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

#: What one item of a list-valued sized operand adds to an op's bytes.
_ITEM_SIZE = {"lengths": int, "buffers": len, "iovec": itemgetter(1)}


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
        self._crash_at: Optional[int] = None  # see crash_after
        self.qp_depth = qp_depth
        self.cq = CompletionQueue(self)
        self._inbox: deque = deque()
        # The open overlap window: one (op, charge_ns, span_id, future)
        # entry per operation awaiting the doorbell. ``future`` is None
        # for a synchronous call or a phase's call.
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

    def crash_after(self, posts: int) -> None:
        """Crash inside whatever runs next: ``posts`` more posts land, then
        the next one fail-stops this client (:meth:`crash`) and raises
        :class:`ClientDeadError` instead of landing. Posts execute eagerly,
        so this is also "crash before that post issues"."""
        self._crash_at = self.metrics.pipeline_ops + posts

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
        retry/batch accounting note in :meth:`_issue`). Outside one, the
        clock advances at once: the window holds only operations.
        """
        if self._op is not None:
            self._charge += ns
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
        spike: float = 1.0,
    ) -> None:
        """Count, price and trace one completed far access. ``atomic``
        (the event's key), ``node``, ``addr`` and ``target`` (the resolved
        indirection) are for the tracer only; ``spike`` is the latency
        multiplier the access's fault check returned. A completed op does
        the same inline, at the end of :meth:`_issue`: the two must stay
        alike."""
        m = self.metrics
        m.far_accesses += 1
        m.round_trips += 1
        m.network_traversals += 2 * segments + forward_hops  # every result has >= 1 segment
        m.bytes_read += nbytes_read
        m.bytes_written += nbytes_written
        m.indirection_forwards += forward_hops
        fabric = self.fabric
        charge = fabric.cost_model.far_access_ns(nbytes_read + nbytes_written, forward_hops) * spike
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
        self.clock.advance(count * self.fabric.cost_model.near_ns)

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
        completion-queue error entry would be. A caller that posts N
        calls of one op and reaps them all at once wants :meth:`phase`,
        which charges the same window with no future per call.
        """
        try:
            row = FAR_OPS[op]
        except KeyError:
            raise ValueError(f"unknown far operation {op!r}") from None
        future = FarFuture(self, op, signaled)
        self._post(row, future, args)
        return future

    def phase(self, op: str, calls: Sequence[tuple], *, capture: bool = False) -> list[Any]:
        """Post ``op(*args)`` for each ``args`` in ``calls`` as one window and
        return the outcomes in order — what unsignaled submissions reaped
        one by one would return, with no future built. Each call is parked
        like :meth:`submit`'s (``qp_depth`` stalls, batch deferral); one
        ``reap`` doorbell rings at the end if they are still parked. With
        ``capture`` a :class:`FabricError` stays in its call's place; any
        other failure, the first, is raised once the window is charged."""
        try:
            row = FAR_OPS[op]
        except KeyError:
            raise ValueError(f"unknown far operation {op!r}") from None
        outcomes: list[Any] = [None] * len(calls)
        failed = None
        for index, args in enumerate(calls):
            try:
                outcomes[index] = self._post(row, False, args)
            except Exception as err:
                if not self.alive:
                    raise  # this post crashed the client: nothing after it issues
                outcomes[index] = err
                if failed is None and not (capture and isinstance(err, FabricError)):
                    failed = err
        if calls and self._window and self._op is None and self._batch_depth == 0:
            self._flush_window(reason="reap")
        if failed is not None:
            raise failed
        return outcomes

    def _post(self, row: FarOp, future: FarFuture | bool | None, args: tuple) -> Any:
        """Execute one operation of ``row`` on ``args`` eagerly and park its
        latency in the open window as one ``(op, charge_ns, span_id,
        future)`` entry.

        ``future`` says who posts: None for a synchronous call, which
        returns the value or raises and rings the doorbell itself unless
        a batch scope holds the window; a :class:`FarFuture` for a
        submission, which captures value or error and leaves the window
        open until :attr:`qp_depth` fills it; False for one call of a
        :meth:`phase`, which returns or raises like a synchronous call but
        parks like an unsignaled submission, with None in its entry. This
        is the one place an op is posted, so liveness is checked here.
        """
        if self._op is not None:
            # Nested issue (e.g. ERROR-policy completion re-entering
            # read/write): fold into the enclosing operation — its charge
            # and accounting belong to the outer entry.
            if not future:
                return self._issue(row, args)
            future.completed_at_ns = self.clock.now_ns
            try:
                future._value = self._issue(row, args)
            except Exception as err:
                future._error = err
            return None
        if self.metrics.pipeline_ops == self._crash_at:
            self.crash()
        if not self.alive:
            raise ClientDeadError(f"{self.name} has crashed")
        self.metrics.pipeline_ops += 1
        # The innermost open span (an attached client always has its root).
        span_id = None if self._tracer is None else self._tracer._stacks[self.client_id][-1].span_id
        self._op = op = row.name
        self._charge = 0.0
        try:
            value = self._issue(row, args)
            if future:
                future._value = value
            return value
        except Exception as err:
            if not future:
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
                if future:
                    future.charge_ns, future.span_id = self._charge, span_id
                window.append((op, self._charge, span_id, future or None))
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
                entry=entry,
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

    def _issue(self, row: FarOp, args: tuple) -> Any:
        """Run one far op of ``row`` on ``args`` and account for it; returns
        what the fabric returned, as the row projects it (see
        :class:`~repro.fabric.ops.FarOp`).

        The op is the row's ``Fabric`` method, looked up by name on every
        call, so a patched method is the one that runs. Every op funnels
        through here and, but for the one physically addressed row, takes
        one of two paths. A bare client (no retry or breaker policy, no
        tracer, no injector) calls the method and nothing else, charging
        ``timeout_ns`` before it re-raises a failed node's
        :class:`NodeUnavailableError`. Every other client runs the guard
        ladder below, with one attempt when it has no retry policy and no
        breaker when it has no breaker policy. The flow per
        attempt is: circuit-breaker gate → fault-injection check (operation
        boundary, so a timeout has no memory-side effects; a TORN rule
        applies only when ``row.tears``) → the fabric call. Transient failures
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

        A completed op is one far access moving the bytes its row states,
        counted in ``atomic_ops`` when its row is atomic; the result
        supplies segments and forward hops (a Fig. 1 op's forwarded
        segments, or a write's ranges mirrored while its extent migrates
        under FORWARD). An indirection the memory node refuses (ERROR
        policy, section 7.1) still cost a round trip — the home node read
        the pointer word, then bounced the request — and the client
        completes it directly (:meth:`_complete_pending`). ``write_phys``'s
        staging slot ``(node, offset)`` has no virtual address for a guard
        to key on, so it is issued and accounted unguarded.

        The home node is the op's own translation: unless the client is
        bare, the address is translated here, once, as ``row.shape`` says,
        and handed to the op. Nothing is cached across ops, so a remap
        between two ops is always seen.

        Breaker cooldowns compare against the client's clock as of the
        last doorbell; charges still in the open window are invisible to
        it, which is deterministic and matches a NIC consulting its
        completion timestamps.
        """
        fabric = self.fabric
        tracer = self._tracer
        policy = self.retry_policy
        shape = row.shape
        op = getattr(fabric, row.fabric)
        kind = row.read_size or row.write_size  # the sized operand is the last argument
        if not kind:
            size = 0
        elif kind == "buffer":
            size = len(args[-1])
        elif kind == "length":
            size = args[-1]
        else:  # a list of lengths, of buffers or of (address, length) entries
            size = sum(map(_ITEM_SIZE[kind], args[-1]))
        nbytes_read = row.read_base + size if row.read_size else row.read_base
        nbytes_written = row.write_base + size if row.write_size else row.write_base
        if shape == "physical":
            result = op(*args)
            self._account_far(nbytes_read, nbytes_written, 0, result.segments, node=args[0])
            return None
        node = address = None  # the home node and address; a bare client needs neither
        spike = 1.0  # the latency multiplier the last fault check returned
        if not (
            policy is None
            and self.breaker_policy is None
            and tracer is None
            and fabric.fault_injector is None
        ):
            if not args[_ARITY[row.name] - 1 :]:  # else the translation takes a missing one's place
                raise TypeError(f"{row.name}() takes {_ARITY[row.name]} arguments, got {args!r}")
            # One translation: its node is the guards' and the tracer's.
            extents = fabric.extents
            address = args[0]
            if shape == "word" or shape == "indexed":
                at = home = extents.locate(address)
            else:  # a range, or an iovec's first entry
                length = nbytes_read + nbytes_written
                if shape == "iovec":
                    address, length = address[0] if address else (0, length)
                at = extents.split(address, length)
                home = at[0][0] if at else extents.locate(address)
            if shape != "indexed":
                args += (at,)
            node = home[0]
        try:
            if node is None:
                try:
                    result = op(*args)  # the op translates for itself
                except NodeUnavailableError:
                    self._advance(self.cost_model.timeout_ns)  # the one-attempt ladder's charge
                    raise
                except (AttributeError, TypeError):
                    if len(args) > _ARITY[row.name]:  # an extra one took the translation's place
                        raise TypeError(
                            f"{row.name}() takes {_ARITY[row.name]} arguments, got {args!r}"
                        ) from None
                    raise
            else:
                # A breaker with no failure streak is CLOSED (CircuitBreaker's
                # invariant): it admits the op and has no streak to clear.
                breaker = None
                if self.breaker_policy is not None:
                    breaker = self.breakers.get(node)
                    if breaker is None:
                        breaker = self.breakers[node] = CircuitBreaker(node, self.breaker_policy)
                    elif breaker.consecutive_failures and not breaker.allow(self.clock.now_ns):
                        self.metrics.breaker_rejections += 1
                        if tracer is not None:
                            tracer.emit(self, "breaker_reject", node=node)
                        raise CircuitOpenError(node, address)
                attempts = policy.max_attempts if policy is not None else 1
                last: Optional[Exception] = None
                for attempt in range(1, attempts + 1):
                    if attempt > 1:
                        backoff = policy.backoff_ns(attempt - 1, (self.client_id << 48) ^ address)
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
                            spike = fabric.fault_check(node, address, row.tears)
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
                                op=row.fabric,
                                node=node,
                                addr=address,
                                attempt=attempt,
                            )
                        last = err
                    except NodeUnavailableError as err:
                        last = err
                    else:
                        if breaker is not None and breaker.consecutive_failures:
                            breaker.record_success()
                        break
                    # Failed attempt: its latency spike died with it, and the
                    # client only learns of the loss after a full timeout.
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
            # The refused round trip, slowed by its own fault check's spike.
            self._account_far(WORD, 0, node=node, addr=address, spike=spike)
            result = self._complete_pending(err.pending)
        else:
            if type(result) is FabricResult:
                atomic = False  # the event's ``atomic`` key marks the word atomics only
                hops, segments, target = result.forward_hops, result.segments, result.pointer
                if shape == "range" or shape == "iovec":  # a transfer's bytes, or nothing
                    result = result.value if row.reads else None
            else:  # a word op (cas, faa and swap are its atomics): one segment, no hops
                atomic, hops, segments, target = row.atomic, 0, 1, None
            # One completed far access: _account_far's body, without its frame
            # (an op always runs inside _post, so its charge folds into the op).
            m = self.metrics
            m.far_accesses += 1
            m.round_trips += 1
            m.network_traversals += 2 * segments + hops
            m.bytes_read += nbytes_read
            m.bytes_written += nbytes_written
            m.indirection_forwards += hops
            charge = fabric.cost_model.far_access_ns(nbytes_read + nbytes_written, hops) * spike
            self._charge += charge
            if tracer is not None:
                tracer.on_far_access(
                    self,
                    op=self._op,
                    charge_ns=charge,
                    node=node,
                    addr=address,
                    target=target,
                    nbytes_read=nbytes_read,
                    nbytes_written=nbytes_written,
                    forward_hops=hops,
                    segments=segments,
                    atomic=atomic,
                )
        if row.atomic:
            self.metrics.atomic_ops += 1
        return result

    # The far ops have no bodies here: the registration loop after the
    # class builds each synchronous method from its row in
    # repro.fabric.ops, and ``_issue`` runs the op from that row.

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
    # ERROR-policy completion of the Fig. 1 primitives
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


def _sync_entry(row: FarOp) -> Callable:
    """The synchronous method of one far op: post it as one window entry and
    ring the doorbell (``Client._post`` with no future). Its parameters are
    its ``Fabric`` method's less the translation a guarded client hands on;
    keywords are bound to them only when a caller passes some."""
    params = inspect.signature(getattr(Fabric, row.fabric)).parameters.values()
    signature = inspect.Signature([p for p in params if p.name not in ("segments", "location")])

    def entry(self: Client, *args: Any, **kwargs: Any) -> Any:
        if kwargs:
            args = signature.bind(self, *args, **kwargs).args[1:]
        return self._post(row, None, args)

    _ARITY[row.name] = len(signature.parameters) - 1  # self
    entry.__name__, entry.__qualname__ = row.name, f"Client.{row.name}"
    entry.__signature__ = signature
    entry.__doc__ = (
        f"One far access issuing ``Fabric.{row.fabric}``; its row in"
        " :data:`repro.fabric.ops.FAR_OPS` states the bytes it moves and what it returns."
    )
    return entry


#: Each op's argument count: a guarded client checks it before it appends
#: its translation, a bare one once its fabric call has failed.
_ARITY: dict[str, int] = {}
for _row in FAR_OPS.values():
    setattr(Client, _row.name, _sync_entry(_row))
