"""Live extent migration and elastic membership for the far-memory pool.

Built on the :class:`~repro.fabric.extent.ExtentTable` (PR 7's virtual
address space): a :class:`MigrationCoordinator` moves extents between
nodes through the ordinary charged client data path — pipelined copy
windows shared with :mod:`repro.recovery.repair` — with per-extent epoch
fencing or §7.1-style write forwarding so concurrent writers never lose
a byte. The :class:`Rebalancer` turns the table's per-extent heat and
forward-source telemetry into placement moves that pull hot extents next
to the nodes dereferencing into them.
"""

from .coordinator import (
    DrainReport,
    ExtentMigration,
    MigrationCoordinator,
    MigrationStats,
)
from .copy import read_window, write_window
from .rebalance import Rebalancer, RebalanceMove, RebalanceReport

__all__ = [
    "DrainReport",
    "ExtentMigration",
    "MigrationCoordinator",
    "MigrationStats",
    "read_window",
    "write_window",
    "Rebalancer",
    "RebalanceMove",
    "RebalanceReport",
]
