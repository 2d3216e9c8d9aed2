"""The closed-form layout formulas the placements used to translate with.

Until the extent table became the only address map, ``RangePlacement`` and
``InterleavedPlacement`` each carried their own ``locate`` / ``globalize`` /
``contiguous_extent`` / ``split``. They are kept here, verbatim in substance,
as the independent oracle the table's seed mapping is tested against.
"""

from repro.fabric.address import InterleavedPlacement


def locate(layout, address):
    """``(node, offset)`` of ``address`` under the untouched initial layout."""
    if isinstance(layout, InterleavedPlacement):
        stripe, within = divmod(address, layout.granularity)
        local_stripe = stripe // layout.node_count
        return stripe % layout.node_count, local_stripe * layout.granularity + within
    return address // layout.node_size, address % layout.node_size


def globalize(layout, node, offset):
    """Inverse of :func:`locate`."""
    if isinstance(layout, InterleavedPlacement):
        local_stripe, within = divmod(offset, layout.granularity)
        return (local_stripe * layout.node_count + node) * layout.granularity + within
    return node * layout.node_size + offset


def contiguous_extent(layout, address):
    """Bytes from ``address`` to the end of its stripe (range: its node)."""
    unit = layout.granularity if isinstance(layout, InterleavedPlacement) else layout.node_size
    return unit - address % unit


def split(layout, address, length):
    """``[((node, offset), length), ...]``: one segment per stripe / node."""
    segments = []
    while length > 0:
        take = min(contiguous_extent(layout, address), length)
        segments.append((locate(layout, address), take))
        address += take
        length -= take
    return segments


def as_pairs(segments):
    """An ``ExtentTable.split`` result in the oracle's plain-tuple shape."""
    return [((location.node, location.offset), length) for location, length in segments]
