"""Far queues (paper section 5.3).

"We address this problem by using fetch-and-add-indirect and
store-and-add-indirect (faai, saai). These instructions permit a client to
do two things atomically: (1) update the head or tail pointers and (2)
extract or insert the required item. As a result, we can execute dequeue
and enqueue operations without costly concurrency control mechanisms ...
with one far access in the common fast-path case."

Layout (all 64-bit words, addresses are global far-memory addresses)::

    +0             head pointer   (address of next slot to dequeue)
    +8             tail pointer   (address of next slot to enqueue)
    +16            array[capacity] slots
    +16 + cap*8    slack[max_clients + 1] slots   (section 5.3's slack)

The paper omits the slow-path details ("Due to space constraints, we omit
the details here"); DESIGN.md section 5 documents this module's
concretization, summarised:

* **Fast path** — enqueue is one ``saai`` (bump tail, store at old tail);
  dequeue is one ``faai`` (bump head, load at old head). Both return the
  old pointer in the same response, so the slack check is local and free.
* **Wrap-around** — a pointer that lands in the slack region is repaired
  *after* the fast path completes: the client moves its item between the
  slack slot and the wrapped array slot (one ``wscatter``) and CAS-wraps
  the shared pointer back into the array. At most ``max_clients`` pointers
  can be in flight, hence the ``n + 1`` slack slots of the paper.
* **Empty detection** — slots hold an ``EMPTY`` sentinel; a dequeuer that
  reads the sentinel first tries to CAS its head bump back (undo). If
  another dequeuer has already advanced the head, the client instead keeps
  a *claim* on its unique overshoot slot: the next enqueue must land
  there, and the claimant consumes it on its next dequeue call. Claims are
  what bound head-past-tail divergence to ``max_clients`` slots — the
  paper's "second logical slack region" keeping head and tail ``2n``
  positions apart is realised as ``usable capacity = capacity - 2 *
  max_clients``.
* **Full detection** — never on the fast path. Each ``saai`` response
  carries the true old tail, so only the head estimate can go stale; a
  client refreshes it (one extra far access, amortised) only when its
  conservative occupancy estimate approaches the usable capacity.
* **Slot clearing** — consumed slots must return to ``EMPTY`` before the
  head wraps to them again. Two modes:

  - ``use_fsaai=True`` (default): dequeue uses the ``fsaai``
    fetch-store-and-add-indirect extension (see
    :meth:`repro.fabric.primitives.FarPrimitivesMixin.fsaai`), which
    swaps the EMPTY sentinel into the slot *atomically with consuming
    it* — one far access, no deferred state, unconditionally safe. This
    primitive goes one word beyond the paper's Fig. 1; building the
    queue with Fig. 1 alone exposed a real gap (below), which is itself
    a reproduction finding recorded in EXPERIMENTS.md.
  - ``use_fsaai=False`` (Fig. 1 primitives only): clearing is deferred
    and batched — every ``clear_batch`` dequeues, one ``wscatter``
    resets them (amortised ``1 + 1/clear_batch`` far accesses). Blind
    deferred clears carry a **bounded-stall / bounded-occupancy
    assumption**: a pending clear must land before the tail laps back to
    that slot (≈ ``capacity - occupancy`` enqueues), or the late clear
    destroys a live item. Randomized crash-soak testing demonstrates
    the hazard at high occupancy; deployments restricted to Fig. 1 must
    either keep occupancy low and consumers active, use
    ``clear_batch=1`` (2 far accesses per dequeue, safe at operation
    granularity), or accept the recovery scrubber's quiescence step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc import FarAllocator, PlacementHint
from ..analysis.budget import far_budget
from ..fabric.client import Client
from ..fabric.errors import FabricError, QueueEmpty, QueueFull
from ..fabric.wire import WORD, Layout, decode_u64, encode_u64, pack_words

HEADER = Layout("head tail")  # then array[capacity] and slack[slack_slots], one word each
EMPTY = (1 << 64) - 1
"""Slot sentinel: no item present. Applications cannot enqueue this value."""


@dataclass
class QueueStats:
    """Fast/slow path accounting — the evidence for the section 5.3 claim."""

    enqueues: int = 0
    dequeues: int = 0
    fast_enqueues: int = 0
    fast_dequeues: int = 0
    enqueue_wraps: int = 0
    dequeue_wraps: int = 0
    empty_undos: int = 0
    claims_registered: int = 0
    claims_consumed: int = 0
    head_refreshes: int = 0
    clear_flushes: int = 0
    full_rejections: int = 0
    empty_rejections: int = 0

    def fast_path_fraction(self) -> float:
        """Fraction of completed operations that took exactly the fast path."""
        done = self.enqueues + self.dequeues
        if done == 0:
            return 0.0
        return (self.fast_enqueues + self.fast_dequeues) / done


@dataclass
class _ClientState:
    """Per-client local state (near memory; never shared)."""

    cached_head: Optional[int] = None
    last_tail: Optional[int] = None
    pending_claim: Optional[int] = None
    pending_clears: list[int] = field(default_factory=list)


class FarQueue:
    """A multi-producer multi-consumer FIFO queue in far memory."""

    def __init__(
        self,
        allocator: FarAllocator,
        base: int,
        capacity: int,
        max_clients: int,
        *,
        clear_batch: int = 8,
        slack_slots: Optional[int] = None,
        use_fsaai: bool = True,
    ) -> None:
        if capacity <= 2 * max_clients:
            raise ValueError(
                "capacity must exceed 2 * max_clients (the logical slack)"
            )
        if max_clients <= 0:
            raise ValueError("max_clients must be positive")
        if clear_batch < 1:
            raise ValueError("clear_batch must be >= 1")
        self.allocator = allocator
        self.capacity = capacity
        self.max_clients = max_clients
        self.clear_batch = clear_batch
        self.use_fsaai = use_fsaai
        self.slack_slots = slack_slots if slack_slots is not None else max_clients + 1
        self.head_addr = base + HEADER.offset["head"]
        self.tail_addr = base + HEADER.offset["tail"]
        self.array_base = base + HEADER.size
        self.span = capacity * WORD
        self.slack_base = self.array_base + self.span
        self.slack_end = self.slack_base + self.slack_slots * WORD
        self.stats = QueueStats()
        self._clients: dict[int, _ClientState] = {}

    # Usable capacity: the paper's "second logical slack region to keep
    # the head and tail 2n positions apart".
    @property
    def usable_capacity(self) -> int:
        """Items the queue admits before reporting full."""
        return self.capacity - 2 * self.max_clients

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        *,
        capacity: int,
        max_clients: int,
        clear_batch: int = 8,
        slack_slots: Optional[int] = None,
        use_fsaai: bool = True,
        hint: Optional[PlacementHint] = None,
    ) -> "FarQueue":
        """Allocate and initialise a queue (all slots EMPTY)."""
        slack = slack_slots if slack_slots is not None else max_clients + 1
        base = allocator.alloc(HEADER.size + (capacity + slack) * WORD, hint)
        queue = cls(
            allocator,
            base,
            capacity,
            max_clients,
            clear_batch=clear_batch,
            slack_slots=slack,
            use_fsaai=use_fsaai,
        )
        allocator.provision(queue.head_addr, queue.array_base)
        allocator.provision(queue.tail_addr, queue.array_base)
        allocator.provision(
            queue.array_base, encode_u64(EMPTY) * (capacity + queue.slack_slots)
        )
        return queue

    # ------------------------------------------------------------------
    # Local helpers (near-memory arithmetic, no far accesses)
    # ------------------------------------------------------------------

    def _state(self, client: Client) -> _ClientState:
        state = self._clients.get(client.client_id)
        if state is None:
            if len(self._clients) >= self.max_clients:
                raise FabricError(
                    f"queue sized for {self.max_clients} clients; too many attached"
                )
            state = _ClientState()
            self._clients[client.client_id] = state
        return state

    def _logical(self, address: int) -> int:
        """Slot index with slack wrapped onto the array start."""
        return ((address - self.array_base) % self.span) // WORD

    def _wrapped(self, address: int) -> int:
        """Array address corresponding to a (possibly slack) address."""
        return self.array_base + (address - self.array_base) % self.span

    def _occupancy(self, head: int, tail: int) -> int:
        distance = (self._logical(tail) - self._logical(head)) % self.capacity
        # Dequeuers may overshoot the tail by up to max_clients slots while
        # arming empty-claims; that negative occupancy wraps to a huge
        # modular distance. Real occupancy never exceeds the usable
        # capacity (capacity - 2 * max_clients), so any distance at or
        # beyond capacity - max_clients is overshoot.
        if distance >= self.capacity - self.max_clients:
            return 0
        return distance

    def _occupancy_estimate(self, state: _ClientState) -> int:
        if state.last_tail is None or state.cached_head is None:
            return self.usable_capacity  # force a refresh on first use
        return self._occupancy(state.cached_head, state.last_tail)

    def _check_pointer(self, address: int) -> None:
        if not self.array_base <= address < self.slack_end:
            raise FabricError(
                f"queue pointer 0x{address:x} escaped the slack region — "
                "slack undersized for the client count (see bench A2)"
            )

    def _repair_pointer(self, client: Client, ptr_addr: int) -> None:
        """CAS a pointer that ran past the array back to its wrapped slot.

        Runs until the pointer is back in the array; any client can finish
        the repair, so the loop also terminates when someone else does.
        """
        while True:
            current = client.read_u64(ptr_addr)
            if current < self.slack_base:
                return
            self._check_pointer(current)
            _, ok = client.cas(ptr_addr, current, self._wrapped(current))
            if ok:
                return

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------

    @far_budget(1, claim="C5", span="queue.enqueue")
    def enqueue(self, client: Client, value: int) -> None:
        """Add ``value``: one ``saai`` on the fast path.

        Raises :class:`QueueFull` when the usable capacity is exhausted
        (detected before the fast-path store, via the amortised head
        refresh — never on the fast path itself).
        """
        if not 0 <= value < EMPTY:
            raise ValueError("value must be a u64 other than the EMPTY sentinel")
        state = self._state(client)

        # Background fullness guard: refresh the head estimate only when
        # the conservative occupancy estimate says we might be near full.
        if self._occupancy_estimate(state) >= self.usable_capacity - self.max_clients:
            self._refresh_head(client, state)
            if self._occupancy_estimate(state) >= self.usable_capacity:
                self.stats.full_rejections += 1
                raise QueueFull(f"queue at usable capacity {self.usable_capacity}")

        old_tail = self._push(client, state, value)
        if old_tail >= self.slack_base:
            self._unwrap_tail(client, state, old_tail, value)

    def _push(self, client: Client, state: _ClientState, value: int) -> int:
        """The fast-path step: one ``saai`` stores ``value`` at the old tail
        and bumps it. Returns the old tail."""
        old_tail = client.saai(self.tail_addr, WORD, encode_u64(value)).pointer
        self._check_pointer(old_tail)
        state.last_tail = old_tail + WORD
        self.stats.enqueues += 1
        if old_tail < self.slack_base:
            self.stats.fast_enqueues += 1
        return old_tail

    def _unwrap_tail(
        self, client: Client, state: _ClientState, old_tail: int, value: int
    ) -> None:
        """Slow path: the push landed in slack. Move the item to its wrapped
        slot and clear the slack slot in one scatter, then repair the pointer."""
        self.stats.enqueue_wraps += 1
        wrapped = self._wrapped(old_tail)
        client.wscatter([(wrapped, WORD), (old_tail, WORD)], pack_words((value, EMPTY)))
        state.last_tail = wrapped + WORD
        self._repair_pointer(client, self.tail_addr)

    @far_budget(1, per_item=True, claim="C5", span="queue.enqueue_many n")
    def enqueue_many(self, client: Client, values: "list[int]") -> None:
        """Enqueue ``values`` with fast-path ``saai`` submissions
        overlapped, up to the client's QP depth per doorbell window.

        Per-item operations (and their counts) are exactly those of
        :meth:`enqueue`; only the latency overlaps. The stream serialises
        at the points where the next action depends on a response: a tail
        that landed in the slack region (migrate + repair before issuing
        more, so the slack bound still holds with one window in flight),
        and the near-full zone (falls back to the per-op head-refresh
        guard, so :class:`QueueFull` fires after the same prefix the
        serial loop would have enqueued).
        """
        for value in values:
            if not 0 <= value < EMPTY:
                raise ValueError("value must be a u64 other than the EMPTY sentinel")
        state = self._state(client)
        i, n = 0, len(values)
        near_full = self.usable_capacity - self.max_clients
        while i < n:
            if self._occupancy_estimate(state) >= near_full:
                self.enqueue(client, values[i])
                i += 1
                continue
            landed = None  # (old_tail, value) of a push that landed in slack
            budget = min(client.qp_depth, n - i)
            with client.batch():
                while budget > 0 and self._occupancy_estimate(state) < near_full:
                    old_tail = self._push(client, state, values[i])
                    i += 1
                    budget -= 1
                    if old_tail >= self.slack_base:
                        landed = (old_tail, values[i - 1])
                        break
            if landed is not None:
                self._unwrap_tail(client, state, *landed)

    def _pointers(self, client: Client) -> tuple[int, int]:
        """``(head, tail)``, both read in one gather (one far access)."""
        return HEADER.unpack(client.rgather([(self.head_addr, WORD), (self.tail_addr, WORD)]))

    def _refresh_head(self, client: Client, state: _ClientState) -> None:
        # Take the fresh tail too: an old local tail estimate that the head
        # has since overtaken would wrap the modular occupancy estimate
        # into a spurious near-full reading.
        state.cached_head, state.last_tail = self._pointers(client)
        self.stats.head_refreshes += 1

    # ------------------------------------------------------------------
    # Dequeue
    # ------------------------------------------------------------------

    @far_budget(1, claim="C5", span="queue.dequeue")
    def dequeue(self, client: Client) -> int:
        """Remove and return the oldest item: one ``faai`` on the fast path.

        Raises :class:`QueueEmpty` when no item is available. A raising
        call may leave a claim armed on this client (see module docs);
        the claimed item is returned by a later call once a producer
        fills the slot.
        """
        state = self._state(client)
        if state.pending_claim is not None:
            return self._consume_claim(client, state)
        return self._land(client, state, *self._pop(client))

    def _pop(self, client: Client) -> tuple[int, int]:
        """The fast-path step: one ``fsaai`` (or ``faai``) bumps the head and
        loads the slot it pointed at. Returns ``(old head, value)``."""
        if self.use_fsaai:
            # Extension primitive: consume and reset the slot atomically.
            result = client.fsaai(self.head_addr, WORD, encode_u64(EMPTY))
        else:
            result = client.faai(self.head_addr, WORD, WORD)
        self._check_pointer(result.pointer)
        return result.pointer, decode_u64(result.value)

    def _take(self, client: Client, slot: int) -> int:
        """Load ``slot``: a ``swap`` that resets it to EMPTY, or a plain read
        when clears are deferred."""
        return client.swap(slot, EMPTY) if self.use_fsaai else client.read_u64(slot)

    def _land(self, client: Client, state: _ClientState, old_head: int, value: int) -> int:
        """Finish a pop that loaded ``value`` at ``old_head``: consume the
        item, or raise :class:`QueueEmpty` after undoing the head bump or
        arming a claim on the overshoot slot."""
        slot = old_head
        if old_head >= self.slack_base:
            # Slack landing: the real slot is the wrapped one; the slack
            # slot's content is never trusted (an in-flight enqueue may be
            # mid-migration; fsaai's swap of the slack slot is harmless —
            # a mid-migration enqueuer rewrites it and then clears it).
            self.stats.dequeue_wraps += 1
            slot = self._wrapped(old_head)
            self._repair_pointer(client, self.head_addr)
            value = self._take(client, slot)
        if value != EMPTY:
            self._finish_dequeue(client, state, slot, fast=slot == old_head)
            return value
        if slot == old_head:
            _, ok = client.cas(self.head_addr, old_head + WORD, old_head)
            if ok:
                self.stats.empty_undos += 1
                self.stats.empty_rejections += 1
                raise QueueEmpty("queue empty (head bump undone)")
        # Another dequeuer advanced past us (or we wrapped): our overshoot
        # slot is uniquely ours — the next enqueues must fill it. Keep a
        # claim and let the caller retry later.
        state.pending_claim = slot
        self.stats.claims_registered += 1
        self.stats.empty_rejections += 1
        raise QueueEmpty("queue empty (claim armed on overshoot slot)")

    @far_budget(1, claim="C5")
    def try_dequeue(self, client: Client) -> Optional[int]:
        """Like :meth:`dequeue` but returns None instead of raising."""
        try:
            return self.dequeue(client)
        except QueueEmpty:
            return None

    @far_budget(None, claim="C5", span="queue.dequeue_many max_items")
    def dequeue_many(self, client: Client, max_items: int) -> "list[int]":
        """Dequeue up to ``max_items`` items with fast-path submissions
        overlapped, up to the client's QP depth per doorbell window.

        Per-item operations match :meth:`dequeue` exactly; the stream
        serialises where the next action depends on a response — a head
        that landed in slack (repair first) or an EMPTY slot (undo/claim,
        like the serial path). Returns the items dequeued; fewer than
        ``max_items`` (possibly none) means the queue drained — unlike
        :meth:`dequeue`, nothing is raised, but a claim may be left armed
        on this client just the same.
        """
        state = self._state(client)
        out: "list[int]" = []
        try:
            while len(out) < max_items:
                if state.pending_claim is not None:
                    out.append(self._consume_claim(client, state))
                    continue
                boundary = None  # a pop that landed in slack or on EMPTY
                budget = min(client.qp_depth, max_items - len(out))
                with client.batch():
                    while budget > 0:
                        old_head, value = self._pop(client)
                        budget -= 1
                        if old_head >= self.slack_base or value == EMPTY:
                            boundary = (old_head, value)
                            break
                        out.append(self._land(client, state, old_head, value))
                if boundary is not None:
                    out.append(self._land(client, state, *boundary))
        except QueueEmpty:
            pass  # drained: a landing or a claim raised, as dequeue() would
        return out

    def _finish_dequeue(
        self, client: Client, state: _ClientState, slot: int, *, fast: bool
    ) -> None:
        self.stats.dequeues += 1
        if fast:
            self.stats.fast_dequeues += 1
        if self.use_fsaai:
            return  # the slot was reset atomically by the fsaai/swap
        state.pending_clears.append(slot)
        if len(state.pending_clears) >= self.clear_batch:
            self.flush_clears(client)

    def _consume_claim(self, client: Client, state: _ClientState) -> int:
        assert state.pending_claim is not None
        slot = state.pending_claim
        value = self._take(client, slot)
        if value == EMPTY:
            self.stats.empty_rejections += 1
            raise QueueEmpty("queue empty (claimed slot still unfilled)")
        state.pending_claim = None
        self.stats.claims_consumed += 1
        self._finish_dequeue(client, state, slot, fast=False)
        return value

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------

    @far_budget(None, ceiling=1, claim="C5")
    def flush_clears(self, client: Client) -> int:
        """Reset consumed slots to EMPTY: one ``wscatter`` for the whole
        batch (the amortised background cost of empty detection)."""
        state = self._state(client)
        slots = state.pending_clears
        if not slots:
            return 0
        client.wscatter(
            [(slot, WORD) for slot in slots], encode_u64(EMPTY) * len(slots)
        )
        cleared = len(slots)
        slots.clear()
        self.stats.clear_flushes += 1
        return cleared

    def detach_client(self, client_id: int) -> None:
        """Forget a (crashed or departed) client's local state, freeing its
        slot in the ``max_clients`` budget. Far-memory residue it left —
        an armed claim slot, unflushed clears — is the scrubber's job
        (:class:`repro.recovery.QueueScrubber`)."""
        self._clients.pop(client_id, None)

    @far_budget(1, ceiling=1)
    def size_estimate(self, client: Client) -> int:
        """Occupancy from a fresh pointer gather (one far access).

        An estimate only: concurrent operations may move either pointer
        immediately after the read.
        """
        return self._occupancy(*self._pointers(client))

    def __repr__(self) -> str:
        return (
            f"FarQueue(capacity={self.capacity}, usable={self.usable_capacity}, "
            f"clients<= {self.max_clients}, slack={self.slack_slots})"
        )
