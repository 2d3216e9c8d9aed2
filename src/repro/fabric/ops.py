"""The far-op table: one row per one-sided operation, stated once.

The paper's interface is a table — section 2's base one-sided operations
plus Fig. 1's indirect and scatter/gather extensions. Everything that needs
that vocabulary derives it from here: :class:`~repro.fabric.client.Client`
registers its synchronous methods and ``submit()``'s dispatch by walking
:data:`FAR_OPS` (a row without a definition fails at import), ``_issue``
translates an op by its row's ``shape`` and hands the fault injector its
``tears`` flag, and fmlint, fmcost and the race detector compute their op
sets from the row flags.

Data only: no function lives here and nothing from ``repro`` is imported,
so ``repro.fabric`` and ``repro.analysis`` can each import it first.
"""

from __future__ import annotations

from typing import NamedTuple


class FarOp(NamedTuple):
    """One one-sided far operation.

    ``name`` is the ``Client`` method, the ``submit()`` key and the trace
    event's ``op`` field; ``fabric`` is the ``Fabric`` method it issues.
    ``shape`` is how a guarded client translates the op once and hands the
    translation on: a ``word`` method takes its word's ``location``, a
    ``range`` or ``iovec`` method the ``segments`` of its (first) range; an
    ``indexed`` op's pointer is at ``ad + index``, so it translates itself.
    """

    name: str
    fabric: str
    reads: bool = False  # returns far bytes (or a word) to the caller
    writes: bool = False  # modifies far memory
    atomic: bool = False  # a read-modify-write executed at the memory node
    indirect: bool = False  # dereferences a far pointer (Fig. 1)
    shape: str = "word"  # word / range / iovec / indexed / physical
    tears: bool = False  # a multi-word write a TORN rule can cut short


FAR_OPS: dict[str, FarOp] = {
    row.name: row
    for row in (
        # Base one-sided operations (section 2).
        FarOp("read", "read", reads=True, shape="range"),
        FarOp("write", "write", writes=True, shape="range", tears=True),
        FarOp("read_u64", "read_word", reads=True),
        FarOp("write_u64", "write_word", writes=True),
        FarOp("write_phys", "write_phys", writes=True, shape="physical"),
        FarOp("cas", "compare_and_swap", reads=True, writes=True, atomic=True),
        FarOp("faa", "fetch_add", reads=True, writes=True, atomic=True),
        FarOp("swap", "swap", reads=True, writes=True, atomic=True),
        # Fig. 1 indirect addressing.
        FarOp("load0", "load0", reads=True, indirect=True),
        FarOp("store0", "store0", writes=True, indirect=True),
        FarOp("load1", "load1", reads=True, indirect=True, shape="indexed"),
        FarOp("store1", "store1", writes=True, indirect=True, shape="indexed"),
        FarOp("load2", "load2", reads=True, indirect=True),
        FarOp("store2", "store2", writes=True, indirect=True),
        FarOp("faai", "faai", reads=True, writes=True, atomic=True, indirect=True),
        FarOp("saai", "saai", writes=True, atomic=True, indirect=True),
        FarOp("fsaai", "fsaai", reads=True, writes=True, atomic=True, indirect=True),
        FarOp("add0", "add0", writes=True, atomic=True, indirect=True),
        FarOp("add1", "add1", writes=True, atomic=True, indirect=True, shape="indexed"),
        FarOp("add2", "add2", writes=True, atomic=True, indirect=True),
        # Fig. 1 scatter / gather.
        FarOp("rscatter", "rscatter", reads=True, shape="range"),
        FarOp("rgather", "rgather", reads=True, shape="iovec"),
        FarOp("wscatter", "wscatter", writes=True, shape="iovec", tears=True),
        FarOp("wgather", "wgather", writes=True, shape="range", tears=True),
    )
}

#: Word-value conveniences on the client -> the op each one issues (their
#: trace events carry the issued op's name, never the convenience's).
WORD_OPS: dict[str, str] = {
    "load0_u64": "load0",
    "load2_u64": "load2",
    "store0_u64": "store0",
    "store2_u64": "store2",
}
