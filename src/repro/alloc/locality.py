"""Locality hints for far-memory allocation.

Section 7.1: "Far memory allocators may be designed with locality in mind,
to permit applications to provide hints about the desired (anti-)locality
of a data structure, which the allocator can consider when granting the
allocation request."

Hints matter because memory-side indirection is cheap only when the
pointer and its target share a memory node: a hash bucket and the chain it
points to should be co-located (``near=`` the bucket), while the root
pointers of independent hash tables should be spread for parallelism
(``spread=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fabric.wire import WORD


@dataclass(frozen=True)
class PlacementHint:
    """Advice to the allocator about where an allocation should land.

    Attributes:
        node: place on this exact memory node.
        near: place on the same node as this global address (locality for
            indirection chains, section 7.1).
        spread: round-robin across nodes (maximise parallelism between
            independent requests).
        alignment: required address alignment (defaults to word).
    """

    node: Optional[int] = None
    near: Optional[int] = None
    spread: bool = False
    alignment: int = WORD

    def __post_init__(self) -> None:
        if self.alignment <= 0 or self.alignment % WORD != 0:
            raise ValueError("alignment must be a positive multiple of the word size")
        chosen = [
            name
            for name, value in (
                ("node", self.node),
                ("near", self.near),
                ("spread", self.spread or None),
            )
            if value is not None
        ]
        if len(chosen) > 1:
            raise ValueError(f"conflicting placement hints: {', '.join(chosen)}")


NEAR_WORD = PlacementHint()
"""The default hint: word alignment, allocator's choice of node."""


def near(address: int, alignment: int = WORD) -> PlacementHint:
    """Hint: co-locate with ``address`` (for indirection locality)."""
    return PlacementHint(near=address, alignment=alignment)


def on_node(node: int, alignment: int = WORD) -> PlacementHint:
    """Hint: place on memory node ``node``."""
    return PlacementHint(node=node, alignment=alignment)


def spread(alignment: int = WORD) -> PlacementHint:
    """Hint: stripe independent allocations across nodes."""
    return PlacementHint(spread=True, alignment=alignment)
