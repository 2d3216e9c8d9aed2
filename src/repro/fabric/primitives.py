"""The Fig. 1 extended far-memory primitives, executed memory-side.

This module implements, verbatim, the primitive table of the paper
(Figure 1): indirect addressing (``load0-2``, ``store0-2``), the
pointer-bump atomics (``faai``, ``saai``), indirect adds (``add0-2``), and
the four scatter/gather variants. Notifications (``notify0``, ``notifye``,
``notify0d``) live in :mod:`repro.notify` because they are stateful
subscriptions rather than one-shot operations.

Semantics follow the figure's pseudo-code, with the prose of section 4.1
resolving its abbreviations:

========  =============================================================
load0     ``tmp = *ad; return read(tmp, len)``
store0    ``tmp = *ad; write(tmp, v)``
load1     ``tmp = *(ad + i); return read(tmp, len)``
store1    ``tmp = *(ad + i); write(tmp, v)``
load2     ``tmp = *ad + i; return read(tmp, len)``
store2    ``tmp = *ad + i; write(tmp, v)``
faai      ``old = *ad; *ad += v; return (read(old, len), old)``
saai      ``old = *ad; *ad += v; write(old, v')``
add0      ``**ad += v``
add1      ``*(*(ad + i)) += v``
add2      ``*(*ad + i) += v``
rscatter  read far range, scatter into local buffers
rgather   read far iovec, gather into one local buffer
wscatter  scatter one local buffer into a far iovec
wgather   gather local buffers into one far range
========  =============================================================

All pointer words hold **global** far-memory addresses. When a
dereferenced target lives on a different memory node than the pointer,
the fabric's :class:`IndirectionPolicy` decides between forwarding (extra
traversals, same round trip) and erroring (section 7.1). Under the error
policy the raised :class:`~repro.fabric.errors.RemoteIndirectionError`
carries a :class:`PendingIndirection` describing exactly what the client
must do to complete the operation — built only when the node refuses, so
a local or forwarded indirection never pays for it. For ``faai``/``saai``
the pointer bump has *already committed* at the home node by then,
matching hardware that cannot roll back its local half.

Every indirect primitive translates exactly twice: one ``locate`` of the
pointer word (its home node *and* its value), one ``split`` of the target
(forward hops, segment count *and* the data movement). Each but ``load1``
/ ``store1`` / ``add1`` takes the caller's ``locate`` of the pointer word as
an optional last argument, as ``rgather`` / ``wscatter`` take the caller's
``split`` of their first entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Optional, Sequence

from .address import Location
from .errors import AddressError, RemoteIndirectionError
from .extent import Segments
from .memory_node import MemoryNode
from .wire import WORD


class IndirectionPolicy(enum.Enum):
    """How a memory node handles a dereferenced pointer on another node."""

    FORWARD = "forward"
    ERROR = "error"


@dataclass
class FabricResult:
    """Outcome of one memory-side operation, with routing facts attached.

    Attributes:
        value: operation result (``bytes`` for loads, ``int`` for atomics,
            ``None`` for stores).
        pointer: for indirect operations, the pointer value that was
            dereferenced (clients use it, e.g., for queue slack checks).
        forward_hops: memory-to-memory forwards taken (FORWARD policy).
        segments: per-node segments touched by the data transfer.
    """

    value: Optional[object] = None
    pointer: Optional[int] = None
    forward_hops: int = 0
    segments: int = 1


@dataclass(frozen=True)
class PendingIndirection:
    """What remains to be done after a ``RemoteIndirectionError``.

    Attributes:
        kind: ``"read"``, ``"write"``, ``"add"`` or ``"swap"``.
        target: global address the client must access directly.
        length: bytes to read (``kind == "read"``).
        payload: bytes to write (``kind == "write"``).
        delta: value to fetch-add (``kind == "add"``).
        pointer: the dereferenced pointer value (already resolved at the
            home node; returned so clients can, e.g., run queue slack
            checks without another far access).
    """

    kind: str
    target: int
    length: int = 0
    payload: Optional[bytes] = None
    delta: int = 0
    pointer: int = 0


FarIovec = Sequence[tuple[int, int]]
"""A far-memory iovec: ``[(global_address, length), ...]``."""


class FarPrimitivesMixin:
    """Memory-side implementation of the Fig. 1 primitives.

    Mixed into :class:`repro.fabric.fabric.Fabric`; relies on its extent
    table, its ``indirection_policy`` and its already-translated data path
    (``read`` / ``write`` / ``_read_word_at`` / ``_atomic_at``).
    """

    def _deref(
        self, ad: int, bump: Optional[int] = None, location: Optional[Location] = None
    ) -> tuple[int, int]:
        """Translate the pointer word at ``ad`` once: ``(home node, value)``.

        With ``bump`` the word is atomically fetch-added first — the
        ``*ptr++`` half of ``faai``/``saai`` — and the old value returned.
        ``location``, when given, is the caller's translation of ``ad``.
        """
        location = location or self.extents.locate(ad)
        if bump is None:
            return location[0], self._read_word_at(ad, location)
        return location[0], self._atomic_at(ad, location, MemoryNode.fetch_add, bump)

    def _target(self, home: int, target: int, length: int, refuse: partial) -> tuple[Segments, int]:
        """Translate an indirect target once: ``(segments, forward hops)``.

        The segments drive the data movement; each one off ``home`` is a
        forward hop, or under the ERROR policy the refusal, raised before
        any data moves with ``refuse()`` — the :class:`PendingIndirection`,
        built only then — attached for the client to finish. Hops are
        judged on at least the target word, so a sub-word transfer is
        re-split to its own length.
        """
        segments = self.extents.split(target, length if length > WORD else WORD)
        hops = 0
        cursor = target
        for (node, _), seg_len in segments:
            if node != home:
                if self.indirection_policy is IndirectionPolicy.ERROR:
                    err = RemoteIndirectionError(target, home, node)
                    err.pending = refuse()  # type: ignore[attr-defined]
                    raise err
                # Locality telemetry for the rebalancer: each forwarded segment
                # names ``home`` as a "forward source" of the target's extent.
                self.extents.note_forward(cursor, home)
                hops += 1
            cursor += seg_len
        if length < WORD:
            segments = self.extents.split(target, length)
        return segments, hops

    def _indirect_read(self, home: int, pointer: int, target: int, length: int) -> FabricResult:
        refuse = partial(PendingIndirection, "read", target, length=length, pointer=pointer)
        segments, hops = self._target(home, target, length, refuse)
        result = self.read(target, length, segments)
        result.pointer, result.forward_hops = pointer, hops
        return result

    def _indirect_write(self, home: int, pointer: int, target: int, value: bytes) -> FabricResult:
        value = bytes(value)
        refuse = partial(PendingIndirection, "write", target, payload=value, pointer=pointer)
        segments, hops = self._target(home, target, len(value), refuse)
        result = self.write(target, value, segments)
        result.pointer, result.forward_hops = pointer, hops
        return result

    def _indirect_add(self, home: int, pointer: int, target: int, delta: int) -> FabricResult:
        refuse = partial(PendingIndirection, "add", target, delta=delta, pointer=pointer)
        segments, hops = self._target(home, target, WORD, refuse)
        old = self._atomic_at(target, segments[0][0], MemoryNode.fetch_add, delta)
        return FabricResult(value=old, pointer=pointer, forward_hops=hops)

    # ------------------------------------------------------------------
    # Indirect loads / stores (section 4.1)
    # ------------------------------------------------------------------

    def load0(self, ad: int, length: int, location: Optional[Location] = None) -> FabricResult:
        """``tmp = *ad; return *tmp`` — dereference then read ``length`` bytes."""
        home, pointer = self._deref(ad, None, location)
        return self._indirect_read(home, pointer, pointer, length)

    def store0(self, ad: int, value: bytes, location: Optional[Location] = None) -> FabricResult:
        """``tmp = *ad; *tmp = v`` — dereference then write ``value``."""
        home, pointer = self._deref(ad, None, location)
        return self._indirect_write(home, pointer, pointer, value)

    def load1(self, ad: int, index: int, length: int) -> FabricResult:
        """``tmp = *(ad + i); return *tmp`` — indexed pointer, then read."""
        return self.load0(ad + index, length)

    def store1(self, ad: int, index: int, value: bytes) -> FabricResult:
        """``tmp = *(ad + i); *tmp = v`` — indexed pointer, then write."""
        return self.store0(ad + index, value)

    def load2(
        self, ad: int, index: int, length: int, location: Optional[Location] = None
    ) -> FabricResult:
        """``tmp = *ad + i; return *tmp`` — dereference, offset, then read."""
        home, pointer = self._deref(ad, None, location)
        return self._indirect_read(home, pointer, pointer + index, length)

    def store2(
        self, ad: int, index: int, value: bytes, location: Optional[Location] = None
    ) -> FabricResult:
        """``tmp = *ad + i; *tmp = v`` — dereference, offset, then write."""
        home, pointer = self._deref(ad, None, location)
        return self._indirect_write(home, pointer, pointer + index, value)

    # ------------------------------------------------------------------
    # Pointer-bump atomics: the ``*ptr++`` idiom (section 4.1)
    # ------------------------------------------------------------------

    def faai(
        self, ad: int, delta: int, length: int, location: Optional[Location] = None
    ) -> FabricResult:
        """Fetch-and-add-indirect: bump ``*ad`` by ``delta`` atomically,
        return the ``length`` bytes pointed to by the *old* value.

        Under the ERROR policy the pointer bump has already committed when
        the error is raised; the pending completion is the data read.
        """
        home, old = self._deref(ad, delta, location)
        return self._indirect_read(home, old, old, length)

    def saai(
        self, ad: int, delta: int, value: bytes, location: Optional[Location] = None
    ) -> FabricResult:
        """Store-and-add-indirect: bump ``*ad`` by ``delta`` atomically,
        store ``value`` at the *old* pointer value."""
        home, old = self._deref(ad, delta, location)
        return self._indirect_write(home, old, old, value)

    def fsaai(
        self, ad: int, delta: int, value: bytes, location: Optional[Location] = None
    ) -> FabricResult:
        """Fetch-*store*-and-add-indirect: bump ``*ad`` by ``delta``
        atomically, then atomically exchange the ``len(value)`` bytes at
        the *old* pointer for ``value``, returning what was there.

        **An extension beyond Fig. 1** (documented in DESIGN.md): ``faai``
        and ``saai`` each do half of the ``*ptr++`` idiom — fetch *or*
        store. The fused form is the same hardware complexity class (one
        dereference, one memory transaction at the target) and is what a
        fully-safe one-access MPMC dequeue needs: consuming a queue slot
        and resetting it to the EMPTY sentinel in one atomic step removes
        the deferred-clear hazard entirely.
        """
        home, old = self._deref(ad, delta, location)
        value = bytes(value)
        refuse = partial(
            PendingIndirection, "swap", old, length=len(value), payload=value, pointer=old
        )
        segments, hops = self._target(home, old, len(value), refuse)
        result = self.read(old, len(value), segments)
        self.write(old, value, segments)
        result.pointer, result.forward_hops = old, hops
        return result

    # ------------------------------------------------------------------
    # Indirect adds (section 4.1: "add v to a value pointed to by a location")
    # ------------------------------------------------------------------

    def add0(self, ad: int, delta: int, location: Optional[Location] = None) -> FabricResult:
        """``**ad += v`` — atomic add at the word ``*ad`` points to."""
        home, pointer = self._deref(ad, None, location)
        return self._indirect_add(home, pointer, pointer, delta)

    def add1(self, ad: int, delta: int, index: int) -> FabricResult:
        """``**(ad + i) += v`` — indexed pointer, then atomic add."""
        return self.add0(ad + index, delta)

    def add2(
        self, ad: int, delta: int, index: int, location: Optional[Location] = None
    ) -> FabricResult:
        """``*(*ad + i) += v`` — dereference, offset, then atomic add.

        This is the monitoring producer's histogram increment (section 6):
        one far access bumps ``histogram_base[index]``.
        """
        home, pointer = self._deref(ad, None, location)
        return self._indirect_add(home, pointer, pointer + index, delta)

    # ------------------------------------------------------------------
    # Scatter / gather (section 4.2)
    # ------------------------------------------------------------------

    def rscatter(
        self, ad: int, lengths: Sequence[int], segments: Optional[Segments] = None
    ) -> FabricResult:
        """Read the far range at ``ad``, scattering into local buffers of
        the given ``lengths``. One far access regardless of buffer count."""
        total = sum(lengths)
        if any(n < 0 for n in lengths):
            raise AddressError(ad, total, "negative buffer length")
        result = self.read(ad, total, segments)
        data = result.value
        buffers: list[bytes] = []
        cursor = 0
        for n in lengths:
            buffers.append(data[cursor : cursor + n])
            cursor += n
        result.value = buffers
        return result

    def rgather(self, iovec: FarIovec, segments: Optional[Segments] = None) -> FabricResult:
        """Read a far iovec, gathering into one local contiguous buffer.

        The client adapter issues the per-buffer reads concurrently
        (section 4.2), so the whole gather is one far access / round trip.
        """
        pieces: list[bytes] = []
        count = 0
        for address, length in iovec:
            result = self.read(address, length, segments)
            segments = None  # the caller's translation covers the first entry only
            pieces.append(result.value)
            count += result.segments
        return FabricResult(value=b"".join(pieces), segments=count or 1)

    def wscatter(
        self, iovec: FarIovec, data: bytes, segments: Optional[Segments] = None
    ) -> FabricResult:
        """Scatter one local buffer across a far iovec (one far access)."""
        total = sum(map(itemgetter(1), iovec))
        if total != len(data):
            raise AddressError(
                iovec[0][0] if iovec else 0,
                len(data),
                f"iovec wants {total} bytes, local buffer has {len(data)}",
            )
        cursor = count = 0
        for address, length in iovec:
            count += self.write(address, data[cursor : cursor + length], segments).segments
            segments = None  # the caller's translation covers the first entry only
            cursor += length
        return FabricResult(segments=count or 1)

    def wgather(
        self, ad: int, buffers: Sequence[bytes], segments: Optional[Segments] = None
    ) -> FabricResult:
        """Gather local buffers into one contiguous far range at ``ad``."""
        result = self.write(ad, b"".join(buffers), segments)
        return FabricResult(segments=result.segments)
