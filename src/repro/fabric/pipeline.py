"""Submission/completion pipeline: the asynchronous fabric interface.

The paper's cost model (section 3.1) is round-trip-centric: a far access
is O(1 us) no matter how little it moves, so *independent* far accesses
should overlap instead of serialising. Real one-sided NICs expose that
overlap as an explicit issue/complete split — work requests are posted to
a submission queue (bounded by the queue-pair depth), a doorbell ring
hands a batch of them to the NIC, and completions are reaped from a
completion queue (the same "request completion queues" section 2 leans on
for ordering). This module is that split for the simulated fabric:

* :meth:`Client.submit` posts one operation and returns a
  :class:`FarFuture` immediately.
* The client keeps at most ``qp_depth`` submissions outstanding; hitting
  the bound rings the doorbell (flushes the current overlap window) before
  admitting the next submission.
* :class:`CompletionQueue` (``client.cq``) exposes ``poll()`` /
  ``wait_all()`` to reap completions, exactly like polling a CQ.

Simulation semantics — read this before touching the code
---------------------------------------------------------

The simulator executes every operation *eagerly* at submit time (far
memory mutates immediately, operation counts are charged immediately) and
defers only the *latency* into the open window. A window of ``n``
outstanding operations costs ``max(op charges) + (n - 1) * issue_ns`` of
simulated time when it flushes — the doorbell-batching model the old
``Client.batch`` used, now the primary issue path. Consequences:

* ``FarFuture.result()`` never blocks: the value is already known. What
  ``result()`` does is *complete* the future — flush the window it sits
  in, so its latency is charged — unless an enclosing ``Client.batch``
  scope is deferring the charge to scope exit.
* An op is posted in one of three forms, all through ``Client._post``:
  a synchronous call is one window entry that rings the doorbell
  itself; ``submit`` builds a :class:`FarFuture`; ``phase`` posts N
  calls of one op as unsignaled entries, rings once at the end and
  returns their outcomes, with no future.
* ``Metrics.far_accesses`` is identical whether call sites use the
  synchronous methods, explicit ``submit``, or any ``qp_depth``: overlap
  hides latency, never work. Every structural-cost claim stays
  bit-identical by construction.
* A retried operation (:mod:`repro.fabric.retry`) folds its timeout and
  backoff charges into *its own* window contribution, so one slow op
  overlaps the rest of the window instead of stalling it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import Client

class FarFuture:
    """One submitted far-memory operation.

    The future is created by :meth:`Client.submit` with its value (or
    exception) already recorded — the simulator executes eagerly — and
    its latency charge recorded in ``charge_ns``. It *completes* when
    the window it was issued into flushes: only then has the client's
    simulated clock paid for it, and ``completed_at_ns`` says when.
    """

    __slots__ = (
        "client",
        "op",
        "charge_ns",
        "completed_at_ns",
        "span_id",
        "_value",
        "_error",
        "_reaped",
        "_tracked",
    )

    def __init__(self, client: "Client", op: str, signaled: bool) -> None:
        self.client = client
        self.op = op
        self.charge_ns: float = 0.0
        self.completed_at_ns: Optional[float] = None
        # Tracing only: the span this submission was issued under (None
        # when no tracer is attached). Never read by the pipeline itself.
        self.span_id: Optional[int] = None
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._reaped = False
        self._tracked = signaled

    def done(self) -> bool:
        """Has the latency for this operation been charged yet?"""
        return self.completed_at_ns is not None

    def result(self) -> Any:
        """Complete the future and return its value (or raise its error).

        Completion flushes the submission window this future was issued
        into — all its peers complete with it, as they would on hardware
        when the completion queue is drained. Inside a ``Client.batch``
        scope the flush is deferred to scope exit and the (eagerly
        computed) value is returned immediately.
        """
        self._reap()
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self) -> Optional[BaseException]:
        """The exception this operation failed with, if any (completes
        the future, like :meth:`result`, but does not raise)."""
        self._reap()
        return self._error

    def _reap(self) -> None:
        client = self.client
        # A pending future is by construction in the client's open window
        # (crash() and flushes complete everything they remove), so
        # completing it is ringing that doorbell — unless a batch scope
        # holds the window, which defers the charge to scope exit.
        if self.completed_at_ns is None and client._batch_depth == 0:
            client._flush_window(reason="reap")
        # Direct result()/exception() consumes the completion, so a
        # signaled future reaped in hand does not linger in the CQ.
        if not self._reaped:
            self._reaped = True
            if self._tracked and self.completed_at_ns is not None:
                client.cq._discard(self)

    def __repr__(self) -> str:
        if self.completed_at_ns is None:
            state = "pending"
        else:
            state = "failed" if self._error is not None else "done"
        return f"FarFuture({self.op!r}, state={state}, charge={self.charge_ns:.0f}ns)"


class CompletionQueue:
    """Reaping side of the pipeline: completed-but-unreaped futures.

    Futures submitted via :meth:`Client.submit` land here when their
    window flushes; synchronous calls build no future and never
    appear. Draining costs near-memory time only (one local
    access per reaped completion) — polling a CQ is a cache hit, which is
    the entire point of completion queues.
    """

    def __init__(self, client: "Client") -> None:
        self._client = client
        self._ready: deque[FarFuture] = deque()

    # -- driver-side hooks ----------------------------------------------

    def _deliver(self, future: FarFuture) -> None:
        self._ready.append(future)

    def _discard(self, future: FarFuture) -> None:
        try:
            self._ready.remove(future)
        except ValueError:
            pass

    def _clear(self) -> None:
        self._ready.clear()

    # -- caller API ------------------------------------------------------

    def outstanding(self) -> int:
        """Submissions issued but not yet completed (current window size)."""
        return len(self._client._window)

    def ready(self) -> int:
        """Completions waiting to be reaped."""
        return len(self._ready)

    def poll(self, max_items: Optional[int] = None) -> list[FarFuture]:
        """Reap up to ``max_items`` completed futures (no flush: only
        operations whose window already closed are visible, exactly like
        a non-blocking CQ poll)."""
        out: list[FarFuture] = []
        while self._ready and (max_items is None or len(out) < max_items):
            future = self._ready.popleft()
            future._reaped = True
            out.append(future)
        if out:
            self._client.touch_local(len(out))
        return out

    def wait_all(self) -> list[FarFuture]:
        """Flush the open window, then reap every completion."""
        self._client._flush_window(reason="reap")
        return self.poll()

    def __repr__(self) -> str:
        return (
            f"CompletionQueue(outstanding={self.outstanding()}, "
            f"ready={len(self._ready)})"
        )
