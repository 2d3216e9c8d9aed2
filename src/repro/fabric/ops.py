"""The far-op table: one row per one-sided operation, stated once.

The paper's interface is a table — section 2's base one-sided operations
plus Fig. 1's indirect and scatter/gather extensions. Everything that needs
that vocabulary derives it from here: :class:`~repro.fabric.client.Client`
builds every synchronous method and ``submit()``'s dispatch from
:data:`FAR_OPS`, and ``Client._issue`` runs an op from its row alone — it
translates by ``shape``, hands the fault injector the ``tears`` flag and
counts the bytes the ``read_*`` / ``write_*`` columns state — while fmlint,
fmcost and the race detector compute their op sets from the row flags.

Data only: no function lives here and nothing from ``repro`` but the word
size is imported, so ``repro.fabric`` and ``repro.analysis`` can each import
it first.
"""

from __future__ import annotations

from typing import NamedTuple

from .wire import WORD


class FarOp(NamedTuple):
    """One one-sided far operation.

    ``name`` is the ``Client`` method, the ``submit()`` key and the trace
    event's ``op`` field; ``fabric`` is the ``Fabric`` method it issues, and
    its parameters (less the translation a guarded client hands on) are the
    client method's. ``shape`` is how a guarded client translates the op once
    and hands the translation on: a ``word`` method takes its word's
    ``location``, a ``range`` or ``iovec`` method the ``segments`` of its
    (first) range; an ``indexed`` op's pointer is at ``ad + index``, so it
    translates itself. A ``range`` or ``iovec`` op returns its bytes if it
    reads and nothing if it writes; every other op returns what its fabric
    method returns.

    The bytes an op moves: each direction moves its ``*_base`` (``WORD`` or
    0) plus, when its ``*_size`` names a kind, the size of the op's sized
    operand — its last argument, a ``length``, a ``buffer``, a list of
    ``lengths``, a list of ``buffers`` or an ``iovec`` (the sum of its
    lengths); when both directions are sized, both name that one kind.
    """

    name: str
    fabric: str
    reads: bool = False  # returns far bytes (or a word) to the caller
    writes: bool = False  # modifies far memory
    atomic: bool = False  # a read-modify-write executed at the memory node
    indirect: bool = False  # dereferences a far pointer (Fig. 1)
    shape: str = "word"  # word / range / iovec / indexed / physical
    tears: bool = False  # a multi-word write a TORN rule can cut short
    read_base: int = 0  # bytes read: this, plus the operand's size if read_size
    read_size: str = ""  # the sized operand's kind when it sizes the read
    write_base: int = 0  # bytes written, likewise
    write_size: str = ""


# fmt: off
FAR_OPS: dict[str, FarOp] = {
    row.name: row
    for row in (
        # Base one-sided operations (section 2).
        FarOp("read", "read", reads=True, shape="range", read_size="length"),
        FarOp("write", "write", writes=True, shape="range", tears=True, write_size="buffer"),
        FarOp("read_u64", "read_word", reads=True, read_base=WORD),
        FarOp("write_u64", "write_word", writes=True, write_base=WORD),
        FarOp("write_phys", "write_phys", writes=True, shape="physical", write_size="buffer"),
        FarOp("cas", "compare_and_swap", reads=True, writes=True, atomic=True,
              read_base=WORD, write_base=WORD),
        FarOp("faa", "fetch_add", reads=True, writes=True, atomic=True,
              read_base=WORD, write_base=WORD),
        FarOp("swap", "swap", reads=True, writes=True, atomic=True,
              read_base=WORD, write_base=WORD),
        # Fig. 1 indirect addressing.
        FarOp("load0", "load0", reads=True, indirect=True, read_size="length"),
        FarOp("store0", "store0", writes=True, indirect=True, write_size="buffer"),
        FarOp("load1", "load1", reads=True, indirect=True, shape="indexed", read_size="length"),
        FarOp("store1", "store1", writes=True, indirect=True, shape="indexed", write_size="buffer"),
        FarOp("load2", "load2", reads=True, indirect=True, read_size="length"),
        FarOp("store2", "store2", writes=True, indirect=True, write_size="buffer"),
        FarOp("faai", "faai", reads=True, writes=True, atomic=True, indirect=True,
              read_base=WORD, read_size="length"),
        FarOp("saai", "saai", writes=True, atomic=True, indirect=True,
              write_base=WORD, write_size="buffer"),
        FarOp("fsaai", "fsaai", reads=True, writes=True, atomic=True, indirect=True,
              read_size="buffer", write_base=WORD, write_size="buffer"),
        FarOp("add0", "add0", writes=True, atomic=True, indirect=True, write_base=WORD),
        FarOp("add1", "add1", writes=True, atomic=True, indirect=True, shape="indexed",
              write_base=WORD),
        FarOp("add2", "add2", writes=True, atomic=True, indirect=True, write_base=WORD),
        # Fig. 1 scatter / gather.
        FarOp("rscatter", "rscatter", reads=True, shape="range", read_size="lengths"),
        FarOp("rgather", "rgather", reads=True, shape="iovec", read_size="iovec"),
        FarOp("wscatter", "wscatter", writes=True, shape="iovec", tears=True, write_size="buffer"),
        FarOp("wgather", "wgather", writes=True, shape="range", tears=True, write_size="buffers"),
    )
}
# fmt: on

#: Word-value conveniences on the client -> the op each one issues (their
#: trace events carry the issued op's name, never the convenience's).
WORD_OPS: dict[str, str] = {
    "load0_u64": "load0",
    "load2_u64": "load2",
    "store0_u64": "store0",
    "store2_u64": "store2",
}
