"""A deliberately over-budget far structure (fmcost must-fail fixture).

Every method here violates the cost discipline in a distinct way; the
certificate built over this file (see ``test_fmcost.py``) must reject
all of them. Not imported by the library — it exists only to prove that
the static gate actually fails when budgets lie.
"""

from repro.analysis.budget import far_budget
from repro.fabric.client import Client


class OverBudgetRegister:
    """A two-word register whose declared prices are all wrong."""

    def __init__(self, addr: int) -> None:
        self.addr = addr

    @far_budget(1, ceiling=1)
    def double_read(self, client: Client) -> int:
        """Declares one far access, unconditionally issues two."""
        low = client.read_u64(self.addr)
        high = client.read_u64(self.addr + 8)
        return (high << 64) | low

    @far_budget(1, ceiling=2)
    def drain(self, client: Client) -> int:
        """Declares a finite ceiling over an unbounded far-access loop."""
        spins = 0
        while client.read_u64(self.addr) != 0:
            spins += 1
        return spins

    def unpriced_touch(self, client: Client) -> int:
        """Public far op with no ``@far_budget`` declaration at all."""
        return client.read_u64(self.addr)


class MatchRegister:
    """Far accesses inside a statement kind the walk once did not model
    (and therefore certified as free)."""

    def __init__(self, addr: int) -> None:
        self.addr = addr

    @far_budget(0, ceiling=0)
    def select(self, client: Client, high: bool) -> int:
        """Declares no far access; every ``match`` arm issues one."""
        match high:
            case True:
                return client.read_u64(self.addr + 8)
            case _:
                return client.read_u64(self.addr)
