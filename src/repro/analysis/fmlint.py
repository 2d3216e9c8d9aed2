"""``fmlint`` — a static AST linter for far-memory anti-patterns.

The paper's performance argument is entirely structural: operations are
priced in far accesses, and the reproduction's invariants (C2/C4/C5)
hold only while every far access goes through the metered
:class:`~repro.fabric.client.Client` pipeline, completions are reaped,
and simulated runs stay deterministic. This linter encodes those
conventions as checkable rules over ``src/`` and ``examples/``:

========  ======================  ==============================================
code      name                    what it flags
========  ======================  ==============================================
FM001     sync-far-op-in-loop     a synchronous far op discarded inside a
                                  ``for`` loop — independent iterations that
                                  should overlap via ``phase()``/``submit()``/
                                  ``batch()``
FM002     leaked-far-future       a ``submit()`` future that is never polled,
                                  ``result()``-ed, stored, or returned
FM003     bypass-client-metering  a raw ``fabric.*`` data-plane call that
                                  skips the metered Client layer
FM004     swallowed-far-timeout   ``except FarTimeoutError`` that neither
                                  retries, records, nor re-raises
FM005     nondeterministic-source wall-clock time or an unseeded global RNG
                                  in simulation code
FM006     unverified-replicated-read a raw client read addressed via a replica
                                  pointer — replicated data carries checksum
                                  frames; read it via read_verified()/read_block()
FM007     physical-placement-leak ``fabric.node_of()``/``fabric.locate()`` or a
                                  hand-built ``Location(...)`` outside the layers
                                  that move bytes between physical homes —
                                  coordinates go stale on the next migration
FM009     unused-suppression      a ``# fmlint: disable=...`` comment whose code
                                  no longer triggers on the covered line(s)
FM010     raw-txn-version-atomic  a raw ``cas``/``saai``/``faa`` aimed at a
                                  txn-managed version word outside ``repro.txn``
                                  — the commit protocol owns those words
========  ======================  ==============================================

Suppressions
------------

A finding can be silenced on its line (or by a standalone comment on the
line directly above) with::

    client.write(addr, data)  # fmlint: disable=FM001 — data-dependent retry

or for a whole file with ``# fmlint: disable-file=FM003`` anywhere in the
file. Suppressions should carry a justification; they are how intentional
exceptions (one-time unmetered provisioning, debug introspection) stay
visible instead of silently normalized.

FM003, FM006, FM007 and FM010 are one kind of rule — "this call is only
legal inside packages X" — and are one table, :data:`LAYERING`, checked
by one function; which package may make which call is stated there and
nowhere else (``python -m repro lint --list-rules`` prints it). A public
far op without a ``@far_budget`` is not a lint rule: fmcost's
interprocedural ``missing_budget`` verdict decides it.

The public API is :func:`lint_source` / :func:`lint_file` /
:func:`lint_paths`; ``python -m repro lint`` is the CLI.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from ..fabric.ops import FAR_OPS, WORD_OPS

#: Synchronous far-op method names on the metered Client: every row of
#: the op table (:mod:`repro.fabric.ops`) plus the word conveniences. Each
#: posts a one-deep pipeline window; fmcost prices each at one far access.
FAR_SYNC_OPS = frozenset(FAR_OPS) | frozenset(WORD_OPS)

#: Data-plane methods on the raw Fabric (what the table's rows issue).
#: Calling these moves bytes without charging any client's metrics — the
#: exact accounting leak FM003 exists to catch.
FABRIC_DATA_OPS = frozenset(row.fabric for row in FAR_OPS.values())

#: random-module attributes that are fine: seeded/self-contained RNG
#: constructors and state plumbing, not the hidden global generator.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
_NP_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence", "PCG64"}
)

_SUPPRESS_RE = re.compile(r"#\s*fmlint:\s*disable=([A-Z0-9, ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*fmlint:\s*disable-file=([A-Z0-9, ]+)")

#: The far data structures whose public operations carry declared
#: far-access budgets (fmcost certifies them statically, and reports a
#: public far op without one as ``missing_budget``).
REGISTERED_FAR_STRUCTURES = frozenset(
    {
        "HTTree",
        "FarQueue",
        "RefreshableVector",
        "FarKVStore",
        "FarMutex",
        "FarCounter",
        "ReplicatedRegion",
        "TxnSpace",
    }
)

#: Every client-receiver method that costs far accesses: the sync ops
#: plus submit() (one posted op), the explicit accounting hook, and the
#: framed/verified I/O helpers. fmcost prices each at one far access
#: (and read_verified()'s fallbacks on top) — and phase(), which returns
#: outcomes, not futures (nothing for FM002), at one per call it posts.
FAR_COST_OPS = FAR_SYNC_OPS | frozenset(
    {"submit", "phase", "charge_far_access", "write_framed", "read_verified"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One lint rule: its error code, name, and one-line summary."""

    code: str
    name: str
    summary: str


def attr_name(node: ast.AST) -> Optional[str]:
    """Terminal attribute/name identifier of an expression, if simple."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def decorator_name(dec: ast.AST) -> Optional[str]:
    return attr_name(dec.func if isinstance(dec, ast.Call) else dec)


def is_client_receiver(receiver: ast.AST) -> bool:
    """True when a call's receiver looks like a metered Client.

    Generic op names (``write``, ``read``, ``swap``) appear on file
    handles, memory nodes, and buffers too; requiring "client" in the
    receiver's terminal identifier keeps FM001 about far memory.
    """
    name = attr_name(receiver)
    return name is not None and "client" in name.lower()


#: Identifiers that name a txn-managed version word. Exact matches
#: only: structures with private versioning of their own (e.g.
#: RefreshableVector._version_address) must not trip the rule.
_TXN_VERSION_NAMES = frozenset(
    {"version_addr", "version_word", "txn_slot", "txn_slot_addr"}
)


def _identifiers(arg: ast.AST) -> Iterator[str]:
    for sub in ast.walk(arg):
        name = attr_name(sub)
        if name is not None:
            yield name.lower()


def _mentions_version_word(arg: ast.AST) -> bool:
    """True when the address expression names a txn version word
    (``space.version_addr(slot)``, ``version_word + off``...)."""
    return any(name in _TXN_VERSION_NAMES for name in _identifiers(arg))


def _mentions_replica(arg: ast.AST) -> bool:
    """True when the address expression names a replica (``replica +
    off``, ``region.replicas[0]``, ``primary_replica``...)."""
    return any("replica" in name for name in _identifiers(arg))


@dataclass(frozen=True)
class LayerRule(Rule):
    """A rule of the form "this call is only legal inside packages X".

    ``receiver`` is how the callee is spelt — ``"fabric"`` for
    ``<anything>.fabric.<call>(...)`` (aliases included), ``"client"``
    for ``<client>.<call>(address, ...)`` or its ``submit("<call>",
    address, ...)`` form, ``"bare"`` for a plain ``<call>(...)`` — and
    ``address``, when given, must hold of the address argument. ``legal``
    names the packages under ``repro/`` that may make the call: they *are*
    the layer the rule protects.
    """

    receiver: str
    calls: frozenset
    address: Optional[Callable[[ast.AST], bool]]
    legal: tuple[str, ...]


#: FM010's policy: the atomics that write the word at their own address (the
#: lock CAS, the validation FAA, ``*aai``'s bump). No row flag says so:
#: ``add0``–``add2`` are atomic too but modify the pointee.
_TXN_VERSION_ATOMICS = frozenset({"cas", "faa", "swap", "faai", "saai", "fsaai"})

_FM007 = LayerRule(
    "FM007",
    "physical-placement-leak",
    "resolves or stores a physical location outside the translation "
    "layer; the answer is only valid for one operation — live migration "
    "remaps extents under you (suppress for allocation-time placement)",
    receiver="fabric",
    # Translation queries: they return *physical* coordinates.
    calls=frozenset({"node_of", "locate"}),
    address=None,
    # Translation itself, plus repair and migration, which move bytes
    # *between* physical homes and so must resolve node identities.
    legal=("fabric", "recovery", "migration"),
)

#: The layering table: every exception to "everything above the fabric
#: goes through the metered Client, addresses stay virtual, replicas are
#: read verified and txn version words belong to the commit protocol".
LAYERING: tuple[LayerRule, ...] = (
    LayerRule(
        "FM003",
        "bypass-client-metering",
        "raw fabric data-plane call bypasses the metered Client: no "
        "metrics, no budget, no trace; issue it through a client "
        "(FarAllocator.provision for create()-time set-up)",
        receiver="fabric",
        calls=FABRIC_DATA_OPS,
        address=None,
        # The metering boundary itself, and the allocator's provision():
        # the one sanctioned unmetered write above it.
        legal=("fabric", "alloc"),
    ),
    LayerRule(
        "FM006",
        "unverified-replicated-read",
        "raw client read addressed through a replica pointer returns "
        "unchecked bytes; corruption and torn writes flow through "
        "silently — use read_verified() or the region's read_block()",
        receiver="client",
        # The plain reads: far bytes (or a word) back with no checksum consulted.
        calls=frozenset(
            r.name for r in FAR_OPS.values() if r.reads and not (r.atomic or r.indirect)
        ),
        address=_mentions_replica,
        # Legal nowhere: even the fabric reads replicas only verified.
        legal=(),
    ),
    _FM007,
    # Constructing (and implicitly storing) a Location by hand is the
    # other half of the same leak.
    replace(_FM007, receiver="bare", calls=frozenset({"Location"})),
    LayerRule(
        "FM010",
        "raw-txn-version-atomic",
        "raw atomic on a txn-managed version word outside repro.txn; "
        "ad-hoc atomics on those words break optimistic validation — go "
        "through TxnSpace (read/write/commit, or recover)",
        receiver="client",
        calls=_TXN_VERSION_ATOMICS,
        address=_mentions_version_word,
        # The commit protocol owns the words; the primitives implement it.
        legal=("fabric", "txn"),
    ),
)

_ALL_RULES = [
    Rule(
        "FM001",
        "sync-far-op-in-loop",
        "synchronous far op discarded inside a for loop; pipeline it "
        "with client.phase(op, calls), submit(..., signaled=False), "
        "client.batch(), or a bulk op",
    ),
    Rule(
        "FM002",
        "leaked-far-future",
        "submit() future never result()-ed, polled, stored, or "
        "returned — its completion is unreachable",
    ),
    Rule(
        "FM004",
        "swallowed-far-timeout",
        "except FarTimeoutError with an empty body; a transient fault "
        "must be retried, recorded, or re-raised",
    ),
    Rule(
        "FM005",
        "nondeterministic-source",
        "wall-clock time or unseeded global RNG breaks simulation "
        "determinism; use the SimClock / a seeded random.Random",
    ),
    Rule(
        "FM009",
        "unused-suppression",
        "a # fmlint: disable comment whose code does not trigger on "
        "the covered line(s); remove it so real exceptions stay "
        "visible",
    ),
    *LAYERING,
]
RULES: dict[str, Rule] = {rule.code: rule for rule in sorted(_ALL_RULES, key=lambda r: r.code)}


def _layer_call(node: ast.Call) -> Optional[tuple[str, str, Optional[ast.AST]]]:
    """``(receiver kind, callee, address argument)`` as :class:`LayerRule`
    spells them, or None for a call no row can match."""
    func = node.func
    if isinstance(func, ast.Name):
        return "bare", func.id, None
    if not isinstance(func, ast.Attribute):
        return None
    if attr_name(func.value) == "fabric":
        return "fabric", func.attr, None
    if not is_client_receiver(func.value):
        return None
    name, args = func.attr, node.args
    if name == "submit" and args and isinstance(args[0], ast.Constant):
        name, args = args[0].value, args[1:]
    return "client", name, args[0] if args else None


class _Checker(ast.NodeVisitor):
    """Single-pass visitor implementing every rule."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._for_depth = 0
        self._batch_depth = 0
        # Per-function FM002 state, pushed/popped on (async) function defs:
        # [(assigned name -> submit node), set of loaded names, uses_cq]
        self._fn_stack: list[dict] = []
        # Statement -> (enclosing body list, index), for sibling lookups.
        self._siblings: dict[int, tuple[list, int]] = {}

    def check(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if isinstance(stmts, list):
                    for index, stmt in enumerate(stmts):
                        self._siblings[id(stmt)] = (stmts, index)
        self.visit(tree)

    # -- plumbing --------------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0) + 1,
                code,
                message,
            )
        )

    # -- structure tracking ----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._for_depth += 1
        self.generic_visit(node)
        self._for_depth -= 1

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        batched = any(
            isinstance(item.context_expr, ast.Call)
            and attr_name(item.context_expr.func) == "batch"
            for item in node.items
        )
        if batched:
            self._batch_depth += 1
        self.generic_visit(node)
        if batched:
            self._batch_depth -= 1

    def _enter_function(self, node) -> None:
        self._fn_stack.append(
            {"assigned": {}, "loaded": set(), "uses_cq": False, "bare": []}
        )
        # A fresh function body is a fresh loop scope: a helper defined
        # inside a loop is not itself "in" that loop.
        outer_for, self._for_depth = self._for_depth, 0
        outer_batch, self._batch_depth = self._batch_depth, 0
        self.generic_visit(node)
        self._for_depth, self._batch_depth = outer_for, outer_batch
        state = self._fn_stack.pop()
        if not state["uses_cq"]:
            # Deferred: the CQ drain may appear anywhere in the function,
            # including after the submit site.
            for bare_node in state["bare"]:
                self._emit(
                    bare_node,
                    "FM002",
                    "submit() future discarded with no completion-queue "
                    "drain in this function; hold the future or poll "
                    "client.cq",
                )
        for name, submit_node in state["assigned"].items():
            if name not in state["loaded"]:
                self._emit(
                    submit_node,
                    "FM002",
                    f"FarFuture assigned to {name!r} is never used; "
                    "call .result(), reap it via the completion queue, or "
                    "return it",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # -- FM002: name tracking -------------------------------------------

    @staticmethod
    def _is_submit_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and attr_name(node.func) == "submit"
        )

    @staticmethod
    def _submit_unsignaled(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "signaled" and isinstance(kw.value, ast.Constant):
                return kw.value.value is False
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._fn_stack and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                if self._is_submit_call(value):
                    self._fn_stack[-1]["assigned"][target.id] = value
                elif isinstance(value, (ast.ListComp, ast.GeneratorExp)):
                    if self._is_submit_call(value.elt):
                        self._fn_stack[-1]["assigned"][target.id] = value.elt
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._fn_stack and isinstance(node.ctx, ast.Load):
            self._fn_stack[-1]["loaded"].add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._fn_stack and node.attr == "cq":
            self._fn_stack[-1]["uses_cq"] = True
        self.generic_visit(node)

    # -- FM001 / FM002 / FM003 call sites --------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            name = attr_name(call.func)
            if name == "submit" and isinstance(call.func, ast.Attribute):
                # A discarded submission: unsignaled futures can never be
                # reaped; signaled ones only via an explicit CQ drain.
                if self._submit_unsignaled(call):
                    self._emit(
                        node,
                        "FM002",
                        "unsignaled submit() discarded: the future never "
                        "reaches the completion queue and can never be "
                        "reaped",
                    )
                elif self._fn_stack:
                    self._fn_stack[-1]["bare"].append(node)
                else:
                    self._emit(
                        node,
                        "FM002",
                        "submit() future discarded with no completion-queue "
                        "drain in this function; hold the future or poll "
                        "client.cq",
                    )
            elif (
                name in FAR_SYNC_OPS
                and isinstance(call.func, ast.Attribute)
                and is_client_receiver(call.func.value)
                and self._for_depth > 0
                and self._batch_depth == 0
                and not self._loop_exits_after(node)
            ):
                self._emit(
                    node,
                    "FM001",
                    f"synchronous {name}() discarded inside a for loop "
                    "serialises one round trip per iteration; use "
                    "client.phase(op, calls), submit(..., signaled=False), "
                    "client.batch(), or the structure's bulk operation",
                )
        self.generic_visit(node)

    def _loop_exits_after(self, stmt: ast.stmt) -> bool:
        """True when a break/return/raise follows ``stmt`` at its level.

        A sync far op followed by a loop exit is the find-then-act-once
        pattern (probe until hit, then write and leave): the op runs at
        most once per call, so there is nothing to pipeline.
        """
        entry = self._siblings.get(id(stmt))
        if entry is None:
            return False
        stmts, index = entry
        return any(
            isinstance(later, (ast.Break, ast.Return, ast.Raise))
            for later in stmts[index + 1 :]
        )

    def visit_Call(self, node: ast.Call) -> None:
        # FM003 / FM006 / FM007 / FM010: the layering table, one check.
        call = _layer_call(node)
        if call is not None:
            kind, name, address = call
            for row in LAYERING:
                if (
                    row.receiver == kind
                    and name in row.calls
                    and (
                        row.address is None
                        or (address is not None and row.address(address))
                    )
                ):
                    spelt = name if kind == "bare" else f"{kind}.{name}"
                    self._emit(node, row.code, f"{spelt}(): {row.summary}")
        if isinstance(node.func, ast.Attribute):
            self._check_nondeterminism_call(node)
        self.generic_visit(node)

    # -- FM004 -----------------------------------------------------------

    @staticmethod
    def _names_timeout(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return False
        if isinstance(type_node, ast.Tuple):
            return any(_Checker._names_timeout(e) for e in type_node.elts)
        return attr_name(type_node) == "FarTimeoutError"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._names_timeout(node.type):
            meaningful = [
                stmt
                for stmt in node.body
                if not isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
                and not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
            ]
            if not meaningful:
                self._emit(
                    node,
                    "FM004",
                    "FarTimeoutError swallowed: retry the operation, record "
                    "the fault, or re-raise (the client's RetryPolicy "
                    "already retried transients — dropping the residue "
                    "hides real outages)",
                )
        self.generic_visit(node)

    # -- FM005 -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "time":
                self._emit(
                    node,
                    "FM005",
                    "import time: wall-clock time diverges run to run; "
                    "simulated latency lives on client.clock (SimClock)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "time":
            self._emit(
                node,
                "FM005",
                "from time import ...: wall-clock time diverges run to "
                "run; simulated latency lives on client.clock (SimClock)",
            )
        self.generic_visit(node)

    def _check_nondeterminism_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # random.<fn>() on the module's hidden global generator.
        if (
            isinstance(base, ast.Name)
            and base.id == "random"
            and func.attr not in _RANDOM_ALLOWED
        ):
            self._emit(
                node,
                "FM005",
                f"random.{func.attr}() uses the unseeded global RNG; "
                "construct a random.Random(seed) instead",
            )
            return
        # np.random.<fn>() / numpy.random.<fn>() global state.
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and func.attr not in _NP_RANDOM_ALLOWED
        ):
            self._emit(
                node,
                "FM005",
                f"numpy.random.{func.attr}() uses global RNG state; use "
                "numpy.random.default_rng(seed)",
            )
            return
        # datetime.now()/utcnow()/today() wall-clock reads.
        if func.attr in ("now", "utcnow", "today") and attr_name(base) in (
            "datetime",
            "date",
        ):
            self._emit(
                node,
                "FM005",
                f"{attr_name(base)}.{func.attr}() reads the wall clock; "
                "derive timestamps from the simulated clock or pass them in",
            )


# -- suppressions ----------------------------------------------------------


@dataclass
class _Suppression:
    """One ``# fmlint: disable[-file]=`` comment and its coverage."""

    line: int
    codes: set[str]
    covers: set[int]  # line numbers it silences; empty = file-wide
    file_wide: bool
    used: set[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.used = set()


def _comment_lines(source: str) -> "Optional[set[int]]":
    """Line numbers holding a real ``#`` comment token, or None when the
    source does not tokenize. Keeps suppression examples inside strings
    and docstrings (like this module's own) from registering."""
    import io
    import tokenize

    lines: set[int] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
    return lines


def _suppressions(source: str) -> list[_Suppression]:
    """Every suppression comment, with the line(s) it covers."""
    out: list[_Suppression] = []
    comments = _comment_lines(source)
    for lineno, text in enumerate(source.splitlines(), start=1):
        if comments is not None and lineno not in comments:
            continue
        match = _SUPPRESS_FILE_RE.search(text)
        if match:
            codes = {
                code.strip()
                for code in match.group(1).split(",")
                if code.strip()
            }
            out.append(_Suppression(lineno, codes, set(), True))
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        codes = {
            code.strip() for code in match.group(1).split(",") if code.strip()
        }
        covers = {lineno}
        # A standalone suppression comment covers the next line too.
        if text.lstrip().startswith("#"):
            covers.add(lineno + 1)
        out.append(_Suppression(lineno, codes, covers, False))
    return out


def lint_source(
    source: str, path: str = "<string>", *, codes: Optional[set[str]] = None
) -> list[Finding]:
    """Lint one source string; returns surviving findings in line order."""
    tree = ast.parse(source, filename=path)
    checker = _Checker(path)
    checker.check(tree)
    suppressions = _suppressions(source)
    out = []
    for finding in checker.findings:
        silenced = False
        for suppression in suppressions:
            if finding.code not in suppression.codes:
                continue
            if suppression.file_wide or finding.line in suppression.covers:
                suppression.used.add(finding.code)
                silenced = True
        if silenced:
            continue
        if codes is not None and finding.code not in codes:
            continue
        out.append(finding)
    # FM009: suppression comments none of whose codes fired. A code is
    # "unused" only when the checker looked for it (the ``codes`` filter
    # restricts the checked set), and disable=FM009 itself is exempt —
    # it exists to silence this very rule.
    fm009: list[Finding] = []
    if codes is None or "FM009" in codes:
        for suppression in suppressions:
            for code in sorted(suppression.codes - suppression.used):
                if code == "FM009" or (codes is not None and code not in codes):
                    continue
                scope = "file-wide " if suppression.file_wide else ""
                fm009.append(
                    Finding(
                        path,
                        suppression.line,
                        1,
                        "FM009",
                        f"unused {scope}suppression: {code} does not "
                        "trigger here; remove it so real exceptions stay "
                        "visible",
                    )
                )
    for finding in fm009:
        silenced = False
        for suppression in suppressions:
            if "FM009" not in suppression.codes:
                continue
            if suppression.file_wide or finding.line in suppression.covers:
                silenced = True
        if not silenced:
            out.append(finding)
    out.sort(key=lambda f: (f.line, f.col, f.code))
    return out


def _package(path: str) -> Optional[str]:
    """The ``repro`` package a file belongs to: the path component after
    the last ``repro`` one (None outside the tree, or for a module
    directly under it)."""
    directory = "/" + os.path.dirname(path.replace(os.sep, "/")) + "/"
    _, found, below = directory.rpartition("/repro/")
    return below.split("/")[0] or None if found else None


def _exempt_codes(path: str) -> set[str]:
    """The layering codes that do not apply to ``path``: it lies in a
    package where the row's calls are legal."""
    package = _package(path)
    return {row.code for row in LAYERING if package in row.legal}


def lint_file(path: str) -> list[Finding]:
    """Lint one file, applying per-layer exemptions."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    exempt = _exempt_codes(path)
    return [f for f in lint_source(source, path) if f.code not in exempt]


def python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted."""
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for path in python_files(paths):
        findings.extend(lint_file(path))
    return findings


def render_rules() -> str:
    """The rule table for ``repro lint --list-rules``; a layering rule
    also lists the packages where its calls are legal."""
    width = max(len(rule.name) for rule in RULES.values())
    lines = []
    for rule in RULES.values():
        line = f"{rule.code}  {rule.name:<{width}}  {rule.summary}"
        if isinstance(rule, LayerRule) and rule.legal:
            line += " [legal in " + ", ".join(f"repro/{p}/" for p in rule.legal) + "]"
        lines.append(line)
    return "\n".join(lines)
