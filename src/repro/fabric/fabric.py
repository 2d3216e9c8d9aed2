"""The far-memory fabric: routing, base one-sided operations, indirection.

The fabric ties together the memory nodes (:mod:`repro.fabric.memory_node`),
the extent table that maps virtual addresses onto them
(:mod:`repro.fabric.extent`), and the extended Fig. 1 primitives
(:mod:`repro.fabric.primitives`). It is the "memory side" of
the simulator: everything here executes without any application processor,
exactly the constraint the paper imposes on far memory (section 2).

Every operation translates its range exactly once — one ``locate`` for a
word, one ``split`` for a range — and the result drives routing, heat
telemetry and the data movement. An op whose caller already translated
(``Client._issue``, for the home node its guards need) takes that
translation — ``segments`` or a word's ``location`` — as its optional last
argument and translates nothing itself.

Cross-node indirection (section 7.1) is governed by
:class:`~repro.fabric.primitives.IndirectionPolicy`:

* ``FORWARD`` — the home node forwards the dereferenced request to the
  node holding the target; the client still sees one round trip, the
  fabric pays one extra traversal per forwarded segment.
* ``ERROR`` — the home node refuses, raising
  :class:`repro.fabric.errors.RemoteIndirectionError` which carries enough
  state for the client to complete the indirection itself with a second,
  direct round trip.
"""

from __future__ import annotations

from typing import Optional, Protocol

from .address import Location, Placement
from .errors import FarTimeoutError, NodeUnavailableError
from .extent import ExtentTable, Segments
from .latency import CostModel
from .memory_node import MemoryNode
from .primitives import FabricResult, FarPrimitivesMixin, IndirectionPolicy
from .wire import WORD, align_down


class Notifier(Protocol):
    """Interface the notification subsystem presents to the fabric."""

    def on_write(self, address: int, length: int, new_bytes: bytes) -> None:
        """Called after a mutation of far memory, with global addresses. Memory-side
        matching runs only while a subscription exists: it is section 4.3's
        page-table lookup, and at a node whose table is empty it matches nothing."""


class Fabric(FarPrimitivesMixin):
    """A pool of far memory nodes behind a system interconnect."""

    def __init__(
        self,
        placement: Placement,
        *,
        extent_size: Optional[int] = None,
        indirection_policy: IndirectionPolicy = IndirectionPolicy.FORWARD,
    ) -> None:
        self.placement = placement  # initial-layout policy only; see self.extents
        self.extents = ExtentTable(placement, extent_size=extent_size)
        self.cost_model = CostModel()
        self.indirection_policy = indirection_policy
        self.nodes = [
            MemoryNode(node_id, placement.node_size)
            for node_id in range(placement.node_count)
        ]
        self._notifier: Optional[Notifier] = None
        self._write_hook = None  # what arm_write_hooks installed on every node
        self._failed_nodes: set[int] = set()
        self.fault_injector = None  # the attached faults.FaultInjector, if any

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def total_size(self) -> int:
        """Total virtual far memory bytes in the pool."""
        return self.extents.virtual_size

    @property
    def node_count(self) -> int:
        """Number of memory nodes currently in the pool (grows elastically)."""
        return len(self.nodes)

    @property
    def supports_node_hints(self) -> bool:
        """Whether allocation-time node hints make sense under the initial layout."""
        return self.placement.supports_node_hints

    def check(self, address: int, length: int) -> None:
        """Validate a virtual range against the current address space."""
        self.extents.check(address, length)

    def add_node(self, node_size: Optional[int] = None, *, grow_virtual: bool = False) -> int:
        """Elastically add a memory node; returns its id.

        By default the node is migration headroom (all slots free); with
        ``grow_virtual`` it also extends the virtual address space — the
        caller is responsible for handing the new range to its allocator.
        """
        node_id, _ = self.extents.add_node(node_size, grow_virtual=grow_virtual)
        node = MemoryNode(node_id, self.extents.node_size_of(node_id))
        node.set_write_hook(self._write_hook)
        self.nodes.append(node)
        return node_id

    def set_notifier(self, notifier: Optional[Notifier]) -> None:
        """Attach the notification subsystem (section 4.3) and arm the write
        hooks, so ``notifier`` sees every write; ``None`` detaches it."""
        self._notifier = notifier
        self.arm_write_hooks(notifier is not None)

    def arm_write_hooks(self, armed: bool) -> None:
        """Install (or remove) the write hook on every memory node, and on every
        node :meth:`add_node` creates while armed; armed only with a notifier."""
        self._write_hook = self._on_node_write if armed and self._notifier is not None else None
        for node in self.nodes:
            node.set_write_hook(self._write_hook)

    def _on_node_write(self, node_id: int, offset: int, length: int, data: bytes) -> None:
        address = self.extents.try_globalize(node_id, offset)
        if address is None:
            return  # migration staging slot: not yet a virtual address
        self._notifier.on_write(address, length, data)

    # ------------------------------------------------------------------
    # Fault injection (section 2: far memory is its own fault domain)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Fail-stop one memory node: every access to addresses it owns
        raises :class:`NodeUnavailableError` until :meth:`repair_node`.
        Contents are retained across the outage (battery-backed /
        persistent far memory), matching the availability argument of
        section 2."""
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"no such node {node_id}")
        self._failed_nodes.add(node_id)

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back (contents intact)."""
        self._failed_nodes.discard(node_id)

    def node_available(self, node_id: int) -> bool:
        """True unless the node is currently failed."""
        return node_id not in self._failed_nodes

    # -- transient faults (repro.fabric.faults) -------------------------

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach, with ``None``) a transient-fault injector."""
        self.fault_injector = injector

    def fault_check(self, node: int, address: int, tears: bool = False) -> float:
        """Consult the fault injector at one operation boundary; returns
        the access's latency multiplier (1.0 when no spike fired).

        Clients call this once per one-sided op (``node`` is the node
        ``address`` currently lives on), *before* the fabric executes
        anything, so an injected timeout has no memory-side
        effects and the op is always safe to retry (request-drop
        semantics — crucial for the non-idempotent ``faai``/``saai``/CAS
        family). Raises :class:`~repro.fabric.errors.FarTimeoutError`
        when a fault fires. A latency spike is the return value, not
        pending state: the client multiplies this access's charge by it,
        and a failed attempt drops it.

        ``tears`` says the op about to run can tear (its row's ``tears``
        flag: the multi-word writes), so TORN rules match only those. A
        CORRUPT rule that fires rots stored bytes near ``address`` here,
        silently, before the op body runs — so the op observes (or
        overwrites) the corruption exactly as real hardware would.
        """
        injector = self.fault_injector
        if injector is None:
            return 1.0
        multiplier = injector.before_access(node, address, tears)
        if injector._pending_corruption is not None:
            total = self.extents.virtual_size
            for byte_off, bit in injector.take_corruption():
                target = address + byte_off
                if target >= total:
                    continue  # rot past the end of the pool lands nowhere
                node, offset = self.extents.locate(target)
                # Applied even on a failed node: data decays while down.
                self.nodes[node].corrupt_bit(offset, bit)
        return multiplier

    def _node_for(self, node: int, address: int) -> MemoryNode:
        if node in self._failed_nodes:
            raise NodeUnavailableError(node, address)
        return self.nodes[node]

    def locate(self, address: int) -> Location:
        """Resolve a virtual address to its *current* (node, offset).

        The answer is only valid for the duration of one operation: a
        live migration may remap the extent at any boundary. Code above
        the fabric/recovery/migration layers must not hold onto it
        (fmlint FM007 enforces this).
        """
        return self.extents.locate(address)

    def node_of(self, address: int) -> int:
        """Memory node id *currently* holding ``address`` (see :meth:`locate`)."""
        return self.extents.node_of(address)

    # ------------------------------------------------------------------
    # Base one-sided operations (section 2: loads/stores/atomics)
    # ------------------------------------------------------------------

    def read(self, address: int, length: int, segments: Optional[Segments] = None) -> FabricResult:
        """One-sided read of a virtual range (split across nodes if needed);
        ``segments``, when given, is the caller's split of exactly this range."""
        if segments is None:
            segments = self.extents.split(address, length)
        heat, es = self.extents._heat, self.extents._es
        pieces: list[bytes] = []
        cursor = address
        for (node, offset), seg_len in segments:
            if node in self._failed_nodes:  # _node_for, inlined on every data path
                raise NodeUnavailableError(node, cursor)
            heat[cursor // es] += 1
            pieces.append(self.nodes[node].read(offset, seg_len))
            cursor += seg_len
        return FabricResult(value=b"".join(pieces), segments=len(segments) or 1)

    def write(self, address: int, data: bytes, segments: Optional[Segments] = None) -> FabricResult:
        """One-sided write of a global range (split across nodes if striped);
        ``segments``, when given, is the caller's split of exactly this range.

        A pending TORN fault (set by :meth:`fault_check` for this op)
        lands a word-aligned prefix of ``data``, then raises
        :class:`~repro.fabric.errors.FarTimeoutError` with ``torn=True``
        — the far bytes are now neither old nor new. ``wscatter`` and
        ``wgather`` funnel through here per buffer, so a torn replicated
        write tears its first target and never reaches the rest.
        """
        length = len(data)
        injector = self.fault_injector
        if injector is not None and injector._pending_torn is not None:
            fraction = injector.take_torn_fraction()
            prefix = align_down(int(length * fraction), WORD)
            if prefix > 0:
                self.write(address, bytes(data[:prefix]))
            raise FarTimeoutError(
                self.node_of(address), address,
                reason=f"torn write ({prefix}/{length} bytes applied)",
                torn=True,
            )
        # Police in-flight migrations first: a FENCE raises before any
        # byte moves, so a fenced write is all-or-nothing.
        mirrors = self.extents.write_intercept(address, length) if self.extents._migrating else ()
        if segments is None:
            segments = self.extents.split(address, length)
        heat, es = self.extents._heat, self.extents._es
        cursor = 0
        for (node, offset), seg_len in segments:
            if node in self._failed_nodes:
                raise NodeUnavailableError(node, address + cursor)
            heat[(address + cursor) // es] += 1
            self.nodes[node].write(offset, data[cursor : cursor + seg_len])
            cursor += seg_len
        hops = self._apply_mirrors(data, mirrors) if mirrors else 0
        return FabricResult(segments=len(segments) or 1, forward_hops=hops)

    def _apply_mirrors(self, data: bytes, mirrors) -> int:
        """FORWARD-policy dual writes: mirror the already-copied portion
        of a migrating extent to its new home (one forward hop each)."""
        hops = 0
        for data_off, length, dst_node, dst_offset in mirrors:
            node = self._node_for(dst_node, dst_offset)
            node.write(dst_offset, data[data_off : data_off + length])
            hops += 1
        return hops

    def write_phys(self, node: int, offset: int, data: bytes) -> FabricResult:
        """Raw write to a *physical* node-local range (migration staging).

        The destination slot of an in-flight migration has no virtual
        address until the remap commits, so the copy engine addresses it
        physically — this models the NIC-to-NIC DMA a real fabric would
        use. Deliberately bypasses fault injection (transient-fault rules
        key on virtual addresses); callers charge it like any far write.
        """
        self._node_for(node, offset).write(offset, data)
        return FabricResult(segments=1)

    def _read_word_at(self, address: int, location: Location) -> int:
        """Read the aligned word at ``address``, already translated."""
        self.extents._heat[address // self.extents._es] += 1
        node, offset = location
        if node in self._failed_nodes:
            raise NodeUnavailableError(node, address)
        return self.nodes[node].read_word(offset)

    def _atomic_at(self, address: int, location: Location, op, *args):
        """Apply the word-sized :class:`MemoryNode` mutation ``op`` at
        ``address``, already translated, under migration policing."""
        mirrors = self.extents.write_intercept(address, WORD) if self.extents._migrating else ()
        self.extents._heat[address // self.extents._es] += 1
        node_id, offset = location
        if node_id in self._failed_nodes:
            raise NodeUnavailableError(node_id, address)
        node = self.nodes[node_id]
        result = op(node, offset, *args)
        if mirrors:
            # Mirror the post-op value of the word (re-read from the
            # source, it is the linearised result).
            word = node.read(offset, WORD)
            self._apply_mirrors(word, [(0, WORD, m[2], m[3]) for m in mirrors])
        return result

    def read_word(self, address: int, location: Optional[Location] = None) -> int:
        """Read one aligned word (always within a single node)."""
        return self._read_word_at(address, location or self.extents.locate(address))

    def write_word(self, address: int, value: int, location: Optional[Location] = None) -> None:
        """Write one aligned word."""
        location = location or self.extents.locate(address)
        self._atomic_at(address, location, MemoryNode.write_word, value)

    def compare_and_swap(
        self, address: int, expected: int, new: int, location: Optional[Location] = None
    ) -> tuple[int, bool]:
        """Fabric-level atomic CAS on a word (section 2)."""
        location = location or self.extents.locate(address)
        return self._atomic_at(address, location, MemoryNode.compare_and_swap, expected, new)

    def fetch_add(self, address: int, delta: int, location: Optional[Location] = None) -> int:
        """Fabric-level atomic fetch-and-add on a word; returns old value."""
        location = location or self.extents.locate(address)
        return self._atomic_at(address, location, MemoryNode.fetch_add, delta)

    def swap(self, address: int, value: int, location: Optional[Location] = None) -> int:
        """Fabric-level atomic exchange on a word; returns old value."""
        location = location or self.extents.locate(address)
        return self._atomic_at(address, location, MemoryNode.swap, value)

    def __repr__(self) -> str:
        return (
            f"Fabric(nodes={len(self.nodes)}, "
            f"node_size={self.placement.node_size}, "
            f"policy={self.indirection_policy.value})"
        )
