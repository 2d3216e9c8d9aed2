"""Global far-memory address space and initial data layouts.

A far memory pool comprises one or more memory nodes (section 7.1 of the
paper). The global byte-addressable address space is *virtual*: the
per-fabric :class:`~repro.fabric.extent.ExtentTable` is the only address
map, and a :class:`Placement` merely describes the layout that table starts
from — a pool geometry plus one seed formula. Two layouts are provided,
mirroring the paper's discussion of interleaving:

* :class:`RangePlacement` — each node owns one contiguous address range
  ("data structure-aware" placement is achieved by allocating within a
  chosen node's range, see :mod:`repro.alloc`).
* :class:`InterleavedPlacement` — addresses are striped round-robin across
  nodes at a fixed granularity, "similar to interleaving in traditional
  local memories", maximising aggregate bandwidth at the cost of breaking
  locality for pointer-linked data.

Both are the same formula: stripe ``s`` of ``granularity`` bytes starts on
node ``s % node_count`` at local stripe ``s // node_count``; a range layout
is the stripe that spans a whole node.

What a translation answers is a :class:`Location`: the tuple ``(node,
offset)``, built once per lookup on the far-access path.
"""

from __future__ import annotations

from array import array
from operator import itemgetter

from .wire import WORD

PAGE_SIZE = 4096
"""Page size used for notification bookkeeping (section 4.3)."""


class Location(tuple):
    """A node-local location: the tuple ``(node, offset)``.

    Built as ``Location((node, offset))``, a bare type call with no Python
    frame, because the fabric builds one per translation. It unpacks like
    the pair it is; ``node`` and ``offset`` name its two fields.
    """

    __slots__ = ()

    node = property(itemgetter(0), doc="Memory node id.")
    offset = property(itemgetter(1), doc="Byte offset within the node.")


class Placement:
    """Initial-layout descriptor for the virtual far address space.

    Carries the pool geometry and the seed formula the extent table
    materialises once at construction; it translates nothing itself, so
    extents can move at runtime without the layout knowing.
    """

    supports_node_hints = False
    """Whether allocation-time node hints are meaningful under this layout
    (contiguous per-node ranges yes; fine-grained striping no)."""

    def __init__(self, node_count: int, node_size: int, granularity: int) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        if node_size <= 0 or node_size % PAGE_SIZE != 0:
            raise ValueError("node_size must be a positive multiple of the page size")
        if granularity <= 0 or granularity % WORD != 0:
            raise ValueError("granularity must be a positive multiple of the word size")
        if node_size % granularity != 0:
            raise ValueError("node_size must be a multiple of the granularity")
        self._node_count = node_count
        self._node_size = node_size
        self._granularity = granularity

    @property
    def node_count(self) -> int:
        """Number of memory nodes in the pool."""
        return self._node_count

    @property
    def node_size(self) -> int:
        """Capacity in bytes of each memory node."""
        return self._node_size

    @property
    def granularity(self) -> int:
        """Stripe width in bytes (the node size, for a range layout)."""
        return self._granularity

    @property
    def total_size(self) -> int:
        """Total bytes of far memory across all nodes."""
        return self._node_count * self._node_size

    def seed(self, extent_size: int) -> tuple[array, array]:
        """The initial ``extent -> node`` and ``extent -> slot`` columns.

        ``extent_size`` must divide the granularity, so every extent lies
        inside one stripe and slots count extents within a node.
        """
        per_stripe = self._granularity // extent_size
        nodes = self._node_count
        extents = range(self.total_size // extent_size)
        return (
            array("i", [e // per_stripe % nodes for e in extents]),
            array("i", [e // per_stripe // nodes * per_stripe + e % per_stripe for e in extents]),
        )


class RangePlacement(Placement):
    """Node ``i`` owns the contiguous range ``[i * node_size, (i+1) * node_size)``."""

    supports_node_hints = True

    def __init__(self, node_count: int, node_size: int) -> None:
        super().__init__(node_count, node_size, granularity=node_size)


class InterleavedPlacement(Placement):
    """Addresses striped round-robin across nodes at ``granularity`` bytes.

    The granularity must be a multiple of the word size so that atomics
    never straddle nodes, and a divisor of the node size.
    """

    def __init__(self, node_count: int, node_size: int, granularity: int = PAGE_SIZE) -> None:
        super().__init__(node_count, node_size, granularity)


def make_placement(
    node_count: int,
    node_size: int,
    *,
    interleaved: bool = False,
    granularity: int = PAGE_SIZE,
) -> Placement:
    """The one place initial layouts are constructed.

    ``Cluster``, the benchmark helpers, fixtures, and the topology CLI
    all route through here so layout defaults cannot drift apart.
    """
    if interleaved:
        return InterleavedPlacement(
            node_count=node_count, node_size=node_size, granularity=granularity
        )
    return RangePlacement(node_count=node_count, node_size=node_size)


def page_of(address: int) -> int:
    """Page number containing ``address`` (global pages, for notifications)."""
    return address // PAGE_SIZE


def same_page(address: int, length: int) -> bool:
    """True if ``[address, address + length)`` does not cross a page boundary."""
    if length <= 0:
        return True
    return page_of(address) == page_of(address + length - 1)
