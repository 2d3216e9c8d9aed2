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
                                  should overlap via ``submit()``/``batch()``
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
                                  hand-built ``Location(...)`` outside the
                                  translation/repair/migration layers — physical
                                  coordinates go stale on the next migration
FM008     missing-far-budget      a public method on a registered far structure
                                  that issues far accesses (directly or through
                                  a ``self.``-helper) without a ``@far_budget``
                                  declaration
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

The public API is :func:`lint_source` / :func:`lint_file` /
:func:`lint_paths`; ``python -m repro lint`` is the CLI. Files under
``repro/fabric/`` are exempt from FM003, FM006, and FM007 — they *are*
the metering layer, the verified-read implementation, and the
virtual-to-physical translation layer. ``repro/recovery/`` and
``repro/migration/`` are exempt from FM007 only: repair and live
migration move bytes between physical homes, so resolving placement is
their job, not a leak. ``repro/txn/`` (and the fabric) are exempt from
FM010 — the transaction layer *is* the owner of the version words the
rule protects.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..fabric.ops import FAR_OPS, WORD_OPS

#: Synchronous far-op method names on the metered Client: every row of
#: the op table (:mod:`repro.fabric.ops`) plus the word conveniences. Each
#: posts a one-deep pipeline window; fmcost prices each at one far access.
FAR_SYNC_OPS = frozenset(FAR_OPS) | frozenset(WORD_OPS)

#: Data-plane methods on the raw Fabric (what the table's rows issue).
#: Calling these anywhere outside ``repro/fabric/`` moves bytes without
#: charging any client's metrics — the exact accounting leak FM003
#: exists to catch.
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
#: far-access budgets (fmlint FM008 enforces the declarations; fmcost
#: certifies them statically).
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
#: framed/verified I/O helpers. FM008 looks for these; fmcost prices each
#: at one far access (and read_verified()'s fallbacks on top).
FAR_COST_OPS = FAR_SYNC_OPS | frozenset(
    {"submit", "charge_far_access", "write_framed", "read_verified"}
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


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "FM001",
            "sync-far-op-in-loop",
            "synchronous far op discarded inside a for loop; pipeline it "
            "with submit(..., signaled=False), client.batch(), or a bulk op",
        ),
        Rule(
            "FM002",
            "leaked-far-future",
            "submit() future never result()-ed, polled, stored, or "
            "returned — its completion is unreachable",
        ),
        Rule(
            "FM003",
            "bypass-client-metering",
            "raw fabric.* data-plane call skips the metered Client; the "
            "far access is invisible to metrics, budgets, and traces",
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
            "FM006",
            "unverified-replicated-read",
            "raw client read addressed through a replica pointer returns "
            "bytes unchecked; corruption flows silently — use "
            "read_verified() or the region's read_block()",
        ),
        Rule(
            "FM007",
            "physical-placement-leak",
            "resolving or storing a physical location (fabric.node_of / "
            "fabric.locate / Location(...)) outside the translation layer; "
            "the answer goes stale on the next migration",
        ),
        Rule(
            "FM008",
            "missing-far-budget",
            "public method on a registered far structure issues far "
            "accesses without a @far_budget declaration; state its "
            "fast/ceiling cost (or suppress with an 'observe only' note)",
        ),
        Rule(
            "FM009",
            "unused-suppression",
            "a # fmlint: disable comment whose code does not trigger on "
            "the covered line(s); remove it so real exceptions stay "
            "visible",
        ),
        Rule(
            "FM010",
            "raw-txn-version-atomic",
            "raw cas/saai/faa aimed at a txn-managed version word outside "
            "repro.txn; ad-hoc atomics on those words break optimistic "
            "validation — go through TxnSpace (read/write/commit)",
        ),
    )
}

#: Atomics FM010 watches on txn version words: the lock CAS, the
#: indirect add family, and the zero-delta validation FAA.
_TXN_VERSION_ATOMICS = frozenset({"cas", "saai", "fsaai", "faa"})

#: Translation queries FM007 watches: they return *physical* coordinates,
#: valid only for the duration of one operation once extents can migrate.
_PLACEMENT_QUERY_OPS = frozenset({"node_of", "locate"})

#: Client read-family ops FM006 watches: these return far bytes (or a
#: word decoded from them) without consulting any checksum.
_UNVERIFIED_READ_OPS = frozenset({"read", "read_u64", "rscatter", "rgather"})


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
                    "submit(..., signaled=False), client.batch(), or the "
                    "structure's bulk operation",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_fabric_receiver(func: ast.Attribute) -> bool:
        return attr_name(func.value) == "fabric"

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
        # FM003: <anything>.fabric.<data op>(...) — including through a
        # local alias (fabric = self.allocator.fabric; fabric.write(...)).
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in FABRIC_DATA_OPS and self._is_fabric_receiver(node.func):
                self._emit(
                    node,
                    "FM003",
                    f"raw fabric.{name}() bypasses the metered Client: no "
                    "metrics, no budget, no trace; issue it through a "
                    "client (or suppress for one-time provisioning)",
                )
            # FM007: physical placement resolved outside the translation
            # layer. Addresses are virtual; a cached (node, offset) answer
            # is invalidated by the next extent migration.
            if name in _PLACEMENT_QUERY_OPS and self._is_fabric_receiver(
                node.func
            ):
                self._emit(
                    node,
                    "FM007",
                    f"fabric.{name}() resolves a physical location outside "
                    "the translation layer; the answer is only valid for "
                    "one operation — live migration remaps extents under "
                    "you (suppress for allocation-time placement decisions)",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "Location":
            # Constructing (and implicitly storing) a Location by hand is
            # the other half of the same leak.
            self._emit(
                node,
                "FM007",
                "Location(...) constructed outside the translation layer; "
                "physical coordinates must not outlive one operation once "
                "extents can migrate",
            )
        if isinstance(node.func, ast.Attribute):
            # FM006: client.read(replica + off, ...) — the address names a
            # replica, so the bytes came from replicated (hence framed)
            # storage, but nothing checked the frame.
            if (
                name in _UNVERIFIED_READ_OPS
                and is_client_receiver(node.func.value)
                and node.args
                and self._mentions_replica(node.args[0])
            ):
                self._emit(
                    node,
                    "FM006",
                    f"client.{name}() addressed through a replica pointer "
                    "returns unchecked bytes; corruption and torn writes "
                    "flow through silently — use read_verified() or the "
                    "region's read_block()",
                )
            # FM010: raw atomics on txn-managed version words. The commit
            # protocol (repro.txn) owns those words — lock CAS, validate
            # FAA, recovery rollback — and an out-of-band atomic breaks
            # its optimistic-validation invariant silently.
            if (
                name in _TXN_VERSION_ATOMICS
                and is_client_receiver(node.func.value)
                and node.args
                and self._mentions_version_word(node.args[0])
            ):
                self._emit(
                    node,
                    "FM010",
                    f"raw client.{name}() on a txn-managed version word "
                    "outside repro.txn; the commit protocol owns these "
                    "words — use TxnSpace.read/write/commit (or recover)",
                )
            elif (
                name == "submit"
                and is_client_receiver(node.func.value)
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in _TXN_VERSION_ATOMICS
                and self._mentions_version_word(node.args[1])
            ):
                self._emit(
                    node,
                    "FM010",
                    f"submitted {node.args[0].value!r} atomic on a "
                    "txn-managed version word outside repro.txn; the "
                    "commit protocol owns these words — use "
                    "TxnSpace.read/write/commit (or recover)",
                )
            self._check_nondeterminism_call(node)
        self.generic_visit(node)

    #: Identifiers that name a txn-managed version word. Exact matches
    #: only: structures with private versioning of their own (e.g.
    #: RefreshableVector._version_address) must not trip the rule.
    _TXN_VERSION_NAMES = frozenset(
        {"version_addr", "version_word", "txn_slot", "txn_slot_addr"}
    )

    @classmethod
    def _mentions_version_word(cls, arg: ast.AST) -> bool:
        """True when the address expression names a txn version word
        (``space.version_addr(slot)``, ``version_word + off``...)."""
        for sub in ast.walk(arg):
            text = None
            if isinstance(sub, ast.Name):
                text = sub.id.lower()
            elif isinstance(sub, ast.Attribute):
                text = sub.attr.lower()
            if text in cls._TXN_VERSION_NAMES:
                return True
        return False

    @staticmethod
    def _mentions_replica(arg: ast.AST) -> bool:
        """True when the address expression names a replica (``replica +
        off``, ``region.replicas[0]``, ``primary_replica``...)."""
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and "replica" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "replica" in sub.attr.lower():
                return True
        return False

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


# -- FM008: missing far budgets on registered structures -------------------


def _issues_far_ops(fn: ast.AST) -> bool:
    """True when ``fn`` directly issues a metered client far op."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FAR_COST_OPS
            and is_client_receiver(node.func.value)
        ):
            return True
    return False


def _self_helper_calls(fn: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            out.add(node.func.attr)
    return out


def _missing_budget_findings(tree: ast.AST, path: str) -> list[Finding]:
    """FM008: budget-less public far-ops on registered structures.

    "Issues far ops" is checked one level deep: the method itself, or any
    ``self.``-helper it calls (where the real access usually lives).
    """
    findings = []
    for node in ast.walk(tree):
        if (
            not isinstance(node, ast.ClassDef)
            or node.name not in REGISTERED_FAR_STRUCTURES
        ):
            continue
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        direct = {name: _issues_far_ops(fn) for name, fn in methods.items()}
        for name, fn in methods.items():
            if name.startswith("_"):
                continue
            decorators = {decorator_name(d) for d in fn.decorator_list}
            if "far_budget" in decorators:
                continue
            if decorators & {
                "classmethod",
                "staticmethod",
                "property",
                "cached_property",
            }:
                # Constructors and attribute views: provisioning cost,
                # not a per-operation budget.
                continue
            far = direct[name] or any(
                direct.get(helper, False)
                for helper in _self_helper_calls(fn)
            )
            if far:
                findings.append(
                    Finding(
                        path,
                        fn.lineno,
                        fn.col_offset + 1,
                        "FM008",
                        f"public {node.name}.{name}() issues far accesses "
                        "without a @far_budget declaration; state its "
                        "fast/ceiling cost so the sanitizer and fmcost can "
                        "hold it (or suppress with an 'observe only' note)",
                    )
                )
    return findings


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
    raw = checker.findings + _missing_budget_findings(tree, path)
    suppressions = _suppressions(source)
    out = []
    for finding in raw:
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


def _exempt_codes(path: str) -> set[str]:
    normalized = path.replace(os.sep, "/")
    if "repro/fabric/" in normalized:
        # The fabric layer IS the metering boundary, and replication.py's
        # verified paths are where replica-addressed raw reads are legal
        # (read() is the documented unverified fallback; read_block() is
        # built from them). It is also the translation layer itself, so
        # FM007's "outside the translation layer" premise does not apply.
        # FM010's "outside repro.txn" premise likewise cannot apply to
        # the primitive implementations themselves.
        return {"FM003", "FM006", "FM007", "FM010"}
    if "repro/recovery/" in normalized or "repro/migration/" in normalized:
        # Repair and migration are the two sanctioned physical-placement
        # consumers: they move bytes *between* physical homes, so they
        # must resolve node identities by design.
        return {"FM007"}
    if "repro/txn/" in normalized:
        # The transaction layer owns the version words FM010 protects:
        # its lock CAS / validate FAA / rollback writes are the protocol.
        return {"FM010"}
    return set()


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
    """The rule table for ``repro lint --list-rules``."""
    width = max(len(rule.name) for rule in RULES.values())
    return "\n".join(
        f"{rule.code}  {rule.name:<{width}}  {rule.summary}"
        for rule in RULES.values()
    )
