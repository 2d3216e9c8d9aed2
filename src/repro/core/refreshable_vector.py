"""Refreshable vectors (paper section 5.4).

"Caching a vector at clients may generate excessive notifications when the
vector changes often. To address this issue, we propose refreshable
vectors, which can return stale data, but include a refresh operation to
guarantee the freshness of the next lookup. ... Vector entries are
grouped, with a version number per group; a client reads the version
numbers from far memory, compares against its cached versions, and then
uses a gather operation (rgather) to read at once all entries of groups
whose versions have changed."

Far-memory layout::

    +0                 group_versions[G]   (one word per group)
    +G*8               data[N]             (one word per element)

Reader cost model (the claim of experiment E6): a refresh is at most two
far accesses — one read of the version block, one ``rgather`` of exactly
the changed groups — **independent of vector size**, and proportional in
bytes to how much actually changed.

The dynamic policy: while updates are frequent, readers poll versions
(client-initiated checks); when ``quiet_refreshes`` consecutive refreshes
see no changes, the reader shifts to ``notify0`` subscriptions on the
version block ("to avoid the latency of explicitly reading slowly changing
version numbers ... as iterative algorithms converge") — refreshes then
cost zero far accesses until a notification arrives. A burst of
``busy_notifications`` pending notifications (or a loss warning) shifts it
back to polling.

``element_versions=True`` switches to the paper's finer-grained variant:
per-element version words watched with ``notify0d``, whose payload tells
the reader *which specific entries* changed, so the follow-up gather reads
only those elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..alloc import FarAllocator, PlacementHint
from ..analysis.budget import far_budget
from ..fabric.address import PAGE_SIZE
from ..fabric.client import Client
from ..fabric.errors import AddressError
from ..fabric.wire import WORD, encode_u64, unpack_words
from ..notify.manager import NotificationManager
from ..notify.subscription import NotifyKind, Subscription


@dataclass
class RefreshReport:
    """What one :meth:`RefreshableVector.refresh` did."""

    mode: str
    groups_checked: int = 0
    groups_refreshed: int = 0
    elements_refreshed: int = 0
    notifications_consumed: int = 0
    loss_warning: bool = False
    switched_mode: Optional[str] = None


@dataclass
class _ReaderState:
    """Per-client cached copy plus dynamic-policy state."""

    data: np.ndarray
    versions: np.ndarray
    mode: str = "poll"  # "poll" | "notify"
    quiet_streak: int = 0
    subscriptions: list[Subscription] = field(default_factory=list)
    sub_ids: set[int] = field(default_factory=set)
    refreshes: int = 0


class RefreshableVector:
    """A far vector with grouped versions and bounded-staleness refresh."""

    def __init__(
        self,
        allocator: FarAllocator,
        manager: NotificationManager,
        base: int,
        length: int,
        group_size: int,
        *,
        element_versions: bool,
        quiet_refreshes: int,
        busy_notifications: int,
    ) -> None:
        self.allocator = allocator
        self.manager = manager
        self.base = base
        self.length = length
        self.group_size = group_size
        self.element_versions = element_versions
        self.quiet_refreshes = quiet_refreshes
        self.busy_notifications = busy_notifications
        self.groups = (length + group_size - 1) // group_size
        self.version_words = length if element_versions else self.groups
        self.data_base = base + self.version_words * WORD
        self._writer_versions = np.zeros(self.version_words, dtype="<u8")
        self._readers: dict[int, _ReaderState] = {}

    @classmethod
    def create(
        cls,
        allocator: FarAllocator,
        manager: NotificationManager,
        length: int,
        *,
        group_size: int = 64,
        element_versions: bool = False,
        quiet_refreshes: int = 3,
        busy_notifications: int = 8,
        hint: Optional[PlacementHint] = None,
    ) -> "RefreshableVector":
        """Allocate a zeroed refreshable vector."""
        if length <= 0 or group_size <= 0:
            raise ValueError("length and group_size must be positive")
        if element_versions:
            version_words = length
        else:
            version_words = (length + group_size - 1) // group_size
        total = (version_words + length) * WORD
        base = allocator.alloc(total, hint)
        allocator.provision(base, b"\x00" * total)
        return cls(
            allocator,
            manager,
            base,
            length,
            group_size,
            element_versions=element_versions,
            quiet_refreshes=quiet_refreshes,
            busy_notifications=busy_notifications,
        )

    # ------------------------------------------------------------------
    # Addresses
    # ------------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise AddressError(index, 0, f"index out of range [0, {self.length})")

    def group_of(self, index: int) -> int:
        """Group number of element ``index``."""
        return index // self.group_size

    def _version_address(self, slot: int) -> int:
        return self.base + slot * WORD

    def _element_address(self, index: int) -> int:
        return self.data_base + index * WORD

    def _group_span(self, group: int) -> tuple[int, int]:
        start = group * self.group_size
        count = min(self.group_size, self.length - start)
        return start, count

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    @far_budget(1, ceiling=1, claim="C2", span="rvec.set index")
    def set(self, client: Client, index: int, value: int) -> None:
        """Write one element and bump its (group or element) version in a
        single ``wscatter``: one far access for the writer.

        The version counters are writer-local (the parameter-server use
        case is single-writer per shard); multi-writer deployments should
        shard the vector or use :meth:`set_multi_writer`.
        """
        return self._set_many(client, {index: value})

    @far_budget(2, ceiling=2, claim="C2")
    def set_multi_writer(self, client: Client, index: int, value: int) -> None:
        """Writer path safe under concurrent writers: element write plus an
        atomic version bump (two far accesses)."""
        self._check_index(index)
        slot = index if self.element_versions else self.group_of(index)
        client.write_u64(self._element_address(index), value)
        client.faa(self._version_address(slot), 1)

    @far_budget(1, ceiling=1, claim="C2", span="rvec.set_many n")
    def set_many(self, client: Client, updates: dict[int, int]) -> None:
        """Write a batch of elements and their version bumps in one
        ``wscatter`` (one far access for any batch size)."""
        return self._set_many(client, updates)

    def _set_many(self, client: Client, updates: dict[int, int]) -> None:
        iovec: list[tuple[int, int]] = []
        payload: list[bytes] = []
        touched: set[int] = set()
        for index, value in sorted(updates.items()):
            self._check_index(index)
            iovec.append((self._element_address(index), WORD))
            payload.append(encode_u64(value))
            touched.add(index if self.element_versions else self.group_of(index))
        for slot in sorted(touched):
            self._writer_versions[slot] += 1
            iovec.append((self._version_address(slot), WORD))
            payload.append(encode_u64(int(self._writer_versions[slot])))
        client.wscatter(iovec, b"".join(payload))

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def _reader(self, client: Client) -> _ReaderState:
        state = self._readers.get(client.client_id)
        if state is None:
            # The initial data and version loads are independent: overlap
            # them in one submission window.
            with client.batch():
                raw_data = client.read(self.data_base, self.length * WORD)
                raw_versions = client.read(self.base, self.version_words * WORD)
            data = np.frombuffer(raw_data, dtype="<u8").copy()
            versions = np.frombuffer(raw_versions, dtype="<u8").copy()
            state = _ReaderState(data=data, versions=versions)
            self._readers[client.client_id] = state
        return state

    @far_budget(0, ceiling=2, claim="C2")
    def get(self, client: Client, index: int) -> int:
        """Read from the client cache (near access; possibly stale — call
        :meth:`refresh` first for bounded staleness). Ceiling 2: a
        client's first touch seeds its reader state."""
        self._check_index(index)
        state = self._reader(client)
        client.touch_local()
        return int(state.data[index])

    @far_budget(0, ceiling=2)
    def snapshot(self, client: Client) -> np.ndarray:
        """A copy of the client's cached view (near accesses; a first
        touch seeds the reader state, hence the ceiling)."""
        state = self._reader(client)
        client.touch_local(self.length)
        return state.data.copy()

    # -- refresh ---------------------------------------------------------

    @far_budget(2, claim="C2", span="rvec.refresh")
    def refresh(self, client: Client) -> RefreshReport:
        """Bring the cache up to date; at most two far accesses."""
        state = self._reader(client)
        state.refreshes += 1
        if state.mode == "poll":
            return self._refresh_poll(client, state)
        return self._refresh_notify(client, state)

    def _refresh_poll(self, client: Client, state: _ReaderState) -> RefreshReport:
        report = RefreshReport(mode="poll", groups_checked=self.version_words)
        remote = np.frombuffer(
            client.read(self.base, self.version_words * WORD), dtype="<u8"
        )
        changed = np.flatnonzero(remote != state.versions)
        if len(changed):
            self._pull(client, state, changed, report)
            state.versions[changed] = remote[changed]
            state.quiet_streak = 0
        else:
            state.quiet_streak += 1
            if state.quiet_streak >= self.quiet_refreshes:
                self._enter_notify_mode(client, state)
                report.switched_mode = "notify"
        return report

    def _refresh_notify(self, client: Client, state: _ReaderState) -> RefreshReport:
        report = RefreshReport(mode="notify")
        changed_slots: set[int] = set()
        loss = False
        for n in client.poll_notifications():
            if n.sub_id not in state.sub_ids:
                client.deliver(n)
                continue
            report.notifications_consumed += 1
            if n.is_loss_warning:
                loss = True
            first = (n.address - self.base) // WORD
            count = max(1, n.length // WORD)
            changed_slots.update(range(first, min(first + count, self.version_words)))
        if loss:
            # Unknown versions were dropped: fall back to a full poll.
            report.loss_warning = True
            self._leave_notify_mode(state)
            report.switched_mode = "poll"
            inner = self._refresh_poll(client, state)
            report.groups_checked = inner.groups_checked
            report.groups_refreshed = inner.groups_refreshed
            report.elements_refreshed = inner.elements_refreshed
            return report
        if changed_slots:
            slots = np.array(sorted(changed_slots), dtype=np.int64)
            # The notifications already named the changed slots, so the
            # version gather and the data pull have independent iovecs:
            # overlap them in one submission window (still two far
            # accesses — C6's count is unchanged, only the wall-clock).
            # Poll-mode refresh cannot do this: its pull iovec depends on
            # the version read's result.
            with client.batch():
                raw = client.rgather(
                    [(self._version_address(int(s)), WORD) for s in slots]
                )
                self._pull(client, state, slots, report)
            for s, version in zip(slots, unpack_words(raw)):
                state.versions[int(s)] = version
            if report.notifications_consumed >= self.busy_notifications:
                # Updates sped back up: notifications are now the expensive
                # path; return to client-initiated version checks.
                self._leave_notify_mode(state)
                report.switched_mode = "poll"
        return report

    def _pull(
        self,
        client: Client,
        state: _ReaderState,
        slots: np.ndarray,
        report: RefreshReport,
    ) -> None:
        """Gather the data behind changed version slots (one far access)."""
        if self.element_versions:
            iovec = [(self._element_address(int(s)), WORD) for s in slots]
            raw = client.rgather(iovec)
            for s, value in zip(slots, unpack_words(raw)):
                state.data[int(s)] = value
            report.elements_refreshed = len(slots)
            report.groups_refreshed = len(slots)
            return
        iovec = []
        spans = []
        for group in slots:
            start, count = self._group_span(int(group))
            spans.append((start, count))
            iovec.append((self._element_address(start), count * WORD))
        raw = client.rgather(iovec)
        cursor = 0
        for start, count in spans:
            words = np.frombuffer(raw[cursor : cursor + count * WORD], dtype="<u8")
            state.data[start : start + count] = words
            cursor += count * WORD
        report.groups_refreshed = len(slots)
        report.elements_refreshed = sum(count for _, count in spans)

    # -- dynamic policy ---------------------------------------------------

    def _enter_notify_mode(self, client: Client, state: _ReaderState) -> None:
        kind = NotifyKind.NOTIFY0D if self.element_versions else NotifyKind.NOTIFY0
        address = self.base
        remaining = self.version_words * WORD
        while remaining > 0:
            room = PAGE_SIZE - (address % PAGE_SIZE)
            chunk = min(room, remaining)
            sub = self.manager.subscribe(client, kind, address, chunk)
            state.subscriptions.append(sub)
            state.sub_ids.add(sub.sub_id)
            address += chunk
            remaining -= chunk
        state.mode = "notify"
        state.quiet_streak = 0

    def _leave_notify_mode(self, state: _ReaderState) -> None:
        for sub in state.subscriptions:
            self.manager.unsubscribe(sub)
        state.subscriptions.clear()
        state.sub_ids.clear()
        state.mode = "poll"
        state.quiet_streak = 0

    @far_budget(0, ceiling=2)
    def reader_mode(self, client: Client) -> str:
        """Current dynamic-policy mode for this client. Free once the
        per-client reader state exists; first touch seeds it (<= 2 far
        accesses for the initial version snapshot)."""
        return self._reader(client).mode

    def __repr__(self) -> str:
        granularity = "element" if self.element_versions else f"group({self.group_size})"
        return (
            f"RefreshableVector(length={self.length}, versions={granularity}, "
            f"groups={self.groups})"
        )
