"""``fmcost`` — static far-access cost certification.

The paper prices every operation of a far data structure in *far
accesses* (C4: HT-tree lookups cost 1 and stores 2; C5: queue ops cost 1
on the fast path; C2: one-sided designs beat RPC only while those counts
hold).  The ``@far_budget`` declarations state those prices on the code
and the :class:`~repro.analysis.budget.BudgetSanitizer` spot-checks them
at runtime — but a regression that adds a far access to a hot path is
only caught if a sanitized run happens to exercise it.  ``fmcost``
closes that gap: it *proves* the budgets from the source.

It is an interprocedural abstract interpreter over the AST of
``src/repro/``.  Far-access costs form a small expression lattice::

    cost ::= c                    a constant number of far accesses
           | c + p*n              p extra accesses per item of a bulk
                                  argument (multiget, enqueue_many, ...)
           | cost  [retry]        a retry-exempt window: the bound holds
                                  per attempt of an annotated CAS loop
           | T (top)              an unbounded far-access loop

Leaves are the metered :class:`~repro.fabric.client.Client` operations
(every synchronous far op, ``submit()``, ``charge_far_access()``,
``write_framed()``, ``read_verified()`` — each is exactly one far
access, mirroring ``Client._account_far`` — and ``phase()``, one per
item of its calls list).  Raw ``fabric.*`` calls are
deliberately **free**: they bypass client metering, which is fmlint
FM003's job to flag, not fmcost's to price.  Per-function summaries are
solved on demand, callee first, from the operations the certificate
reports — a worklist fixpoint handles recursion (a summary still moving
after 12 of its own changes is widened to T).  Receivers resolve through annotations and
constructor flow; an untyped receiver falls back to the repo-wide
method-name index only when exactly one class defines the name
(ambiguous names are assumed near-only and surfaced as diagnostics —
joining them would lift the whole graph to T through ``dict.get``
look-alikes).  The fabric layer below the client is the cost-bearing
leaf set and is not itself analyzed (its internal fan-out is already
priced into the one-access-per-op model), with the exception of
``fabric/replication.py``, whose :class:`ReplicatedRegion` is a far data
structure in its own right.

Two bounds are inferred per operation:

``fast``
    The cheapest *non-raising* path (exceptions are slow paths by
    convention, and the runtime sanitizer never records a raising call).
    Loops contribute nothing unless they are provably entered: a
    ``while True`` body runs at least once, and a loop over a bulk
    argument is charged one pass at ``p*n`` so that per-item regressions
    stay visible.  ``inferred fast > declared fast`` is a
    **regression**; ``<`` is **slack** (informational).
``worst``
    An additive upper bound over non-raising executions.  Unbounded
    far-access loops yield T; a loop annotated ``# fmcost: retry`` is
    charged one attempt and marked retry-exempt (the declared ceiling
    then bounds each attempt, exactly like the sanitizer's view of a
    contended CAS).  A finite declared ``ceiling`` must dominate the
    inferred worst.

Escape hatches, used sparingly and justified in place:

* ``# fmcost: cost=N`` on a ``def`` line fixes that function's summary
  to N (for costs invisible to the AST, e.g. a far access issued through
  ``getattr``).
* ``# fmcost: retry`` on a loop line marks a bounded-per-attempt retry
  window.

The checker verifies every ``@far_budget`` declaration against the
inferred bounds, flags budget-less public far-ops on the registered
structures, and emits a machine-readable **cost certificate**: a
:mod:`~repro.analysis.recorded` recording ``{structure: {op: record}}``, a
record per operation holding its declared budget, inferred expression and
verdict. ``python -m repro cost --out analysis/cost_baseline.json`` writes
it as the committed baseline, one operation per line, and ``python -m
repro check`` re-derives it and names every operation that moved from the
baseline — a PR that changes the far-access complexity of any operation
must regenerate the baseline, so cost regressions become visible diffs.

Soundness caveats (see DESIGN.md §14): costs attach to *client* ops, so
metering bypasses (FM003) are invisible here; dynamic dispatch through
``getattr`` or an ambiguously-named untyped receiver is assumed
near-only (use ``# fmcost: cost=N`` where that is wrong); a statement
kind the walk does not model is T unless it contains no call — the
hypothesis bridge test (``tests/analysis/test_cost_soundness.py``)
checks the static bound against sanitizer-observed deltas end to end.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .fmlint import (
    FAR_COST_OPS,
    REGISTERED_FAR_STRUCTURES,
    attr_name,
    decorator_name,
    is_client_receiver,
    python_files,
)

#: Verdicts that fail ``repro cost`` and ``repro check``.
FAILING_VERDICTS = frozenset({"regression", "over_ceiling", "missing_budget"})

_COST_DIRECTIVE_RE = re.compile(r"#\s*fmcost:\s*cost=(\d+)")
_RETRY_DIRECTIVE_RE = re.compile(r"#\s*fmcost:\s*retry\b")

_CONSTRUCTOR_NAMES = frozenset({"create", "create_framed", "open"})

# Widening: a summary that has changed this many times is in a recursive
# cycle with far-access growth — its worst bound is T.
_WIDEN_PASSES = 12


# ---------------------------------------------------------------------------
# The cost lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cost:
    """One point of the worst-case lattice: ``const + per_item*n``,
    optionally T (``unbounded``) and/or retry-exempt."""

    const: int = 0
    per_item: int = 0
    unbounded: bool = False
    retry: bool = False

    def is_zero(self) -> bool:
        return not (self.const or self.per_item or self.unbounded)

    def add(self, other: "Cost") -> "Cost":
        retry = self.retry or other.retry
        if self.unbounded or other.unbounded:
            return Cost(unbounded=True, retry=retry)
        return Cost(
            self.const + other.const,
            self.per_item + other.per_item,
            False,
            retry,
        )

    def join(self, other: "Cost") -> "Cost":
        retry = self.retry or other.retry
        if self.unbounded or other.unbounded:
            return Cost(unbounded=True, retry=retry)
        return Cost(
            max(self.const, other.const),
            max(self.per_item, other.per_item),
            False,
            retry,
        )

    def times_const(self, k: int) -> "Cost":
        if k <= 0 or self.is_zero():
            return Cost(retry=self.retry) if k > 0 else Cost()
        if self.unbounded:
            return Cost(unbounded=True, retry=self.retry)
        return Cost(self.const * k, self.per_item * k, False, self.retry)

    def times_n(self) -> "Cost":
        """Multiply by the symbolic bulk size ``n``."""
        if self.is_zero():
            return self
        if self.unbounded or self.per_item:
            return Cost(unbounded=True, retry=self.retry)
        return Cost(0, self.const, False, self.retry)

    def times_unbounded(self) -> "Cost":
        if self.is_zero():
            return self
        return Cost(unbounded=True, retry=self.retry)

    def render(self) -> str:
        if self.unbounded:
            text = "T"
        else:
            terms = []
            if self.const or not self.per_item:
                terms.append(str(self.const))
            if self.per_item:
                terms.append(f"{self.per_item}*n")
            text = " + ".join(terms)
        return text + (" [retry]" if self.retry else "")


ZERO = Cost()
TOP = Cost(unbounded=True)

#: Fast-path (min) costs are ``(const, per_item)`` pairs; ``None`` marks
#: an unreachable outcome (no non-raising path).
MinCost = Optional[tuple]


def _madd(a: MinCost, b: MinCost) -> MinCost:
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


def _mbest(*options: MinCost) -> MinCost:
    best = None
    for option in options:
        if option is None:
            continue
        if best is None or (option[0] + option[1], option[1]) < (
            best[0] + best[1],
            best[1],
        ):
            best = option
    return best


def _render_min(m: MinCost) -> str:
    if m is None:
        return "unreachable"
    const, per_item = m
    if per_item and const:
        return f"{const} + {per_item}*n"
    if per_item:
        return f"{per_item}*n"
    return str(const)


# ---------------------------------------------------------------------------
# Source index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetDecl:
    """A ``@far_budget(...)`` declaration as read from the AST."""

    fast: Optional[int]
    ceiling: Optional[int]
    per_item: bool
    claim: Optional[str]


@dataclass
class FuncInfo:
    name: str
    qualname: str  # "module:Class.method" or "module:func"
    module: str
    path: str
    cls: Optional[str]
    node: ast.AST
    params: list = field(default_factory=list)
    param_anns: dict = field(default_factory=dict)
    is_classmethod: bool = False
    is_staticmethod: bool = False
    is_property: bool = False
    budget: Optional[BudgetDecl] = None
    has_budget_decorator: bool = False
    cost_override: Optional[int] = None
    return_ann: Optional[str] = None


@dataclass
class ClassInfo:
    name: str
    module: str
    path: str
    line: int
    bases: list = field(default_factory=list)
    methods: dict = field(default_factory=dict)  # name -> FuncInfo
    attr_anns: dict = field(default_factory=dict)  # self.x -> ann string


def _is_leaf_module(path: str) -> bool:
    """Fabric modules below the Client are the cost-bearing leaf set —
    everything except replication.py, which hosts a far data structure."""
    normalized = path.replace(os.sep, "/")
    return (
        "repro/fabric/" in normalized
        and os.path.basename(normalized) != "replication.py"
    )


def _module_name(path: str) -> str:
    normalized = path.replace(os.sep, "/")
    marker = "src/repro/"
    idx = normalized.rfind(marker)
    if idx >= 0:
        rel = normalized[idx + len("src/") :]
    elif "/repro/" in normalized:
        rel = "repro/" + normalized.split("/repro/", 1)[1]
    else:
        rel = os.path.basename(normalized)
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace("/", ".")


def _budget_from_decorators(node) -> tuple[Optional[BudgetDecl], bool]:
    for dec in node.decorator_list:
        if decorator_name(dec) != "far_budget":
            continue
        if not isinstance(dec, ast.Call):
            return None, True
        fast = ceiling = claim = None
        per_item = False
        if dec.args and isinstance(dec.args[0], ast.Constant):
            fast = dec.args[0].value
        for kw in dec.keywords:
            if not isinstance(kw.value, ast.Constant):
                continue
            if kw.arg == "ceiling":
                ceiling = kw.value.value
            elif kw.arg == "per_item":
                per_item = bool(kw.value.value)
            elif kw.arg == "claim":
                claim = kw.value.value
        return BudgetDecl(fast, ceiling, per_item, claim), True
    return None, False


class _Directives:
    """Per-file ``# fmcost:`` magic comments, looked up by line."""

    def __init__(self, source: str) -> None:
        self.cost_by_line: dict[int, int] = {}
        self.retry_lines: set[int] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _COST_DIRECTIVE_RE.search(text)
            if match:
                self.cost_by_line[lineno] = int(match.group(1))
            if _RETRY_DIRECTIVE_RE.search(text):
                self.retry_lines.add(lineno)

    def cost_for(self, node: ast.AST) -> Optional[int]:
        line = getattr(node, "lineno", 0)
        return self.cost_by_line.get(line, self.cost_by_line.get(line - 1))

    def is_retry(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return line in self.retry_lines or (line - 1) in self.retry_lines


class Index:
    """Every class and function under the analyzed roots."""

    def __init__(self) -> None:
        self.classes: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, FuncInfo] = {}  # qualname -> info
        self.methods_by_name: dict[str, list[FuncInfo]] = {}
        self.directives: dict[str, _Directives] = {}  # path -> directives

    # -- construction ----------------------------------------------------

    def add_file(self, path: str, source: str) -> None:
        tree = ast.parse(source, filename=path)
        module = _module_name(path)
        directives = _Directives(source)
        self.directives[path] = directives
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._add_class(node, module, path, directives)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, module, path, None, directives)

    def _add_class(
        self, node: ast.ClassDef, module: str, path: str, directives
    ) -> None:
        info = ClassInfo(
            name=node.name,
            module=module,
            path=path,
            line=node.lineno,
            bases=[b.id for b in node.bases if isinstance(b, ast.Name)],
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.attr_anns[stmt.target.id] = ast.unparse(stmt.annotation)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(
                    stmt, module, path, node.name, directives
                )
                info.methods[stmt.name] = fn
                self._harvest_self_anns(stmt, fn, info)
        self.classes.setdefault(node.name, []).append(info)

    @staticmethod
    def _harvest_self_anns(stmt, fn: FuncInfo, info: ClassInfo) -> None:
        """``self.x: T = ...`` and ``self.x = <annotated param>``."""
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Attribute)
                and isinstance(sub.target.value, ast.Name)
                and sub.target.value.id == "self"
            ):
                info.attr_anns.setdefault(
                    sub.target.attr, ast.unparse(sub.annotation)
                )
            elif (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Attribute)
                and isinstance(sub.targets[0].value, ast.Name)
                and sub.targets[0].value.id == "self"
                and isinstance(sub.value, ast.Name)
                and sub.value.id in fn.param_anns
            ):
                info.attr_anns.setdefault(
                    sub.targets[0].attr, fn.param_anns[sub.value.id]
                )

    def _add_function(
        self, node, module: str, path: str, cls: Optional[str], directives
    ) -> FuncInfo:
        qual = f"{module}:{cls}.{node.name}" if cls else f"{module}:{node.name}"
        decorators = {decorator_name(d) for d in node.decorator_list}
        budget, has_decorator = _budget_from_decorators(node)
        params = [a.arg for a in node.args.args]
        anns = {
            a.arg: ast.unparse(a.annotation)
            for a in node.args.args
            if a.annotation is not None
        }
        info = FuncInfo(
            name=node.name,
            qualname=qual,
            module=module,
            path=path,
            cls=cls,
            node=node,
            params=params,
            param_anns=anns,
            is_classmethod="classmethod" in decorators,
            is_staticmethod="staticmethod" in decorators,
            is_property="property" in decorators or "cached_property" in decorators,
            budget=budget,
            has_budget_decorator=has_decorator,
            cost_override=directives.cost_for(node),
            return_ann=(
                ast.unparse(node.returns) if node.returns is not None else None
            ),
        )
        self.functions[qual] = info
        if cls:
            self.methods_by_name.setdefault(node.name, []).append(info)
        return info

    # -- lookup ----------------------------------------------------------

    def lookup_method(self, cls_name: str, method: str) -> Optional[FuncInfo]:
        for info in self.classes.get(cls_name, ()):
            if method in info.methods:
                return info.methods[method]
            for base in info.bases:
                found = self.lookup_method(base, method)
                if found is not None:
                    return found
        return None

    def class_info(self, cls_name: str) -> Optional[ClassInfo]:
        infos = self.classes.get(cls_name)
        return infos[0] if infos else None


# ---------------------------------------------------------------------------
# Summaries and the interprocedural fixpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    fast: MinCost  # None = no non-raising path found (yet)
    worst: Cost

    def render(self) -> str:
        return f"fast={_render_min(self.fast)} worst={self.worst.render()}"


_BOTTOM = Summary(fast=None, worst=ZERO)


class CostModel:
    """The analyzer: index, fixpoint over summaries, budget verdicts."""

    def __init__(self, structures: Optional[Iterable[str]] = None) -> None:
        self.index = Index()
        self.structures = frozenset(
            structures if structures is not None else REGISTERED_FAR_STRUCTURES
        )
        # Every key demanded so far, ``_BOTTOM`` until (and unless) its
        # evaluation says otherwise -- an always-raising helper evaluates
        # *to* ``_BOTTOM`` and must still count as solved.
        self.summaries: dict[tuple, Summary] = {}
        # callee key -> caller keys, and the worklist of keys whose callee
        # changed. Dicts, not sets: evaluation order (so the widened set
        # and the diagnostics order) must not depend on PYTHONHASHSEED.
        self._callers: dict[tuple, dict[tuple, None]] = {}
        self._dirty: dict[tuple, None] = {}
        self._stack: list[tuple] = []  # keys being evaluated, innermost last
        self._changes: dict[tuple, int] = {}
        self._widened: set[tuple] = set()
        self.diagnostics: list[str] = []
        self._diag_seen: set[str] = set()

    # -- loading ---------------------------------------------------------

    def load_paths(self, paths: Iterable[str]) -> "CostModel":
        for path in python_files(paths):
            self._load_file(path)
        return self

    def _load_file(self, path: str) -> None:
        if _is_leaf_module(path):
            return
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        self.index.add_file(path, source)

    # -- diagnostics -----------------------------------------------------

    def _diag(self, message: str) -> None:
        if message not in self._diag_seen:
            self._diag_seen.add(message)
            self.diagnostics.append(message)

    # -- fixpoint --------------------------------------------------------

    def _certified_ops(self) -> Iterator[FuncInfo]:
        """Every operation the certificate reports, in record order."""
        for name in sorted(self.structures):
            cls = self.index.class_info(name)
            for method_name in sorted(cls.methods if cls is not None else ()):
                fn = cls.methods[method_name]
                # Constructors and views are provisioning, not per-op, cost.
                if not (
                    fn.name.startswith("_")
                    or fn.is_classmethod
                    or fn.is_staticmethod
                    or fn.is_property
                ):
                    yield fn

    def solve(self) -> None:
        """Solve what :meth:`records` reads -- and only what that reaches."""
        for fn in self._certified_ops():
            self.summary_for(fn, self._default_ctx(fn))

    def _default_ctx(self, info: FuncInfo) -> frozenset:
        if info.budget is not None and info.budget.per_item:
            offset = 0 if info.is_staticmethod else 1
            bulk_index = offset + 1  # (self, client, items, ...)
            if len(info.params) > bulk_index:
                return frozenset({info.params[bulk_index]})
        return frozenset()

    def summary_for(self, info: FuncInfo, ctx: frozenset) -> Summary:
        """The summary of ``info`` under ``ctx``, solved on demand.

        Called from inside an evaluation it records the caller -> callee
        edge and evaluates a callee nobody has demanded yet on the spot
        (a key already being evaluated -- recursion -- answers with what
        it has so far); called from outside it also runs the worklist to
        the fixpoint, so the answer is final.
        """
        key = (info.qualname, ctx)
        if self._stack:
            self._callers.setdefault(key, {})[self._stack[-1]] = None
        if key not in self.summaries:
            self._evaluate(key)
        if not self._stack:
            while self._dirty:
                dirty = next(iter(self._dirty))
                del self._dirty[dirty]
                self._evaluate(dirty)
        return self.summaries[key]

    def _evaluate(self, key: tuple) -> None:
        """(Re-)evaluate ``key``; if its summary moved, queue its callers."""
        old = self.summaries.setdefault(key, _BOTTOM)
        if key in self._widened:
            return
        qualname, ctx = key
        info = self.index.functions[qualname]
        if info.cost_override is not None:
            cost = info.cost_override
            new = Summary(fast=(cost, 0), worst=Cost(const=cost))
        else:
            self._stack.append(key)
            try:
                new = _FnEval(self, info, ctx).run()
            finally:
                self._stack.pop()
        if new == old:
            return
        self._changes[key] = self._changes.get(key, 0) + 1
        if self._changes[key] >= _WIDEN_PASSES:
            # Still growing after this many of its own changes means a
            # recursive far-access cycle: its worst-case is unbounded.
            self._widened.add(key)
            new = Summary(
                fast=new.fast,
                worst=Cost(unbounded=True, retry=new.worst.retry),
            )
        self.summaries[key] = new
        for caller in self._callers.get(key, ()):
            # A caller still on the stack is the one that demanded this
            # key just now: it reads the new summary as the return value.
            if caller not in self._stack:
                self._dirty[caller] = None

    # -- verdicts --------------------------------------------------------

    def _record_for(self, fn: FuncInfo) -> Optional[dict]:
        summary = self.summary_for(fn, self._default_ctx(fn))
        declared = fn.budget
        if declared is None and not fn.has_budget_decorator:
            if summary.worst.is_zero() and summary.fast == (0, 0):
                return None  # near-memory only: nothing to certify
            verdict, detail = "missing_budget", (
                "public far-op without @far_budget "
                f"(inferred {summary.render()})"
            )
        elif declared is None:
            # Decorated, but with arguments fmcost cannot read statically.
            verdict, detail = "missing_budget", (
                "@far_budget arguments are not static constants"
            )
        else:
            verdict, detail = self._verdict(declared, summary)
        record = {
            "module": fn.module,
            "declared": (
                None
                if declared is None
                else {
                    "fast": declared.fast,
                    "ceiling": declared.ceiling,
                    "per_item": declared.per_item,
                    "claim": declared.claim,
                }
            ),
            "inferred": {
                "fast": _render_min(summary.fast),
                "fast_const": None if summary.fast is None else summary.fast[0],
                "fast_per_item": (
                    None if summary.fast is None else summary.fast[1]
                ),
                "worst": summary.worst.render(),
                "worst_const": (
                    None if summary.worst.unbounded else summary.worst.const
                ),
                "worst_per_item": (
                    None if summary.worst.unbounded else summary.worst.per_item
                ),
                "worst_unbounded": summary.worst.unbounded,
                "retry_exempt": summary.worst.retry,
            },
            "verdict": verdict,
            "detail": detail,
        }
        return record

    @staticmethod
    def _verdict(declared: BudgetDecl, summary: Summary) -> tuple[str, str]:
        problems = []
        slack = None
        if declared.fast is not None:
            if summary.fast is None:
                problems.append(
                    "no non-raising path found, cannot certify fast path"
                )
            else:
                # For per-item budgets the runtime bound is fast*n; the
                # inferred c + p*n is below it for every n >= 1 iff
                # c + p <= fast.
                total = summary.fast[0] + summary.fast[1]
                if not declared.per_item and summary.fast[1]:
                    problems.append(
                        f"inferred fast path {_render_min(summary.fast)} "
                        "scales with an argument but the budget is not "
                        "per_item"
                    )
                elif total > declared.fast:
                    problems.append(
                        f"inferred fast {_render_min(summary.fast)} exceeds "
                        f"declared fast={declared.fast}"
                    )
                elif total < declared.fast:
                    slack = (
                        f"declared fast={declared.fast} but cheapest path is "
                        f"{_render_min(summary.fast)}"
                    )
        if declared.ceiling is not None:
            worst = summary.worst
            if worst.unbounded:
                problems.append(
                    f"worst-case is unbounded (T) but ceiling="
                    f"{declared.ceiling} is declared"
                )
            else:
                total = worst.const + worst.per_item
                if not declared.per_item and worst.per_item:
                    problems.append(
                        f"worst case {worst.render()} scales with an "
                        "argument but the budget is not per_item"
                    )
                elif total > declared.ceiling:
                    problems.append(
                        f"inferred worst {worst.render()} exceeds declared "
                        f"ceiling={declared.ceiling}"
                        + (
                            " (bound is per retry attempt)"
                            if worst.retry
                            else ""
                        )
                    )
        if problems:
            fatal = any("exceeds declared fast" in p or "fast path" in p for p in problems)
            ceiling_fatal = any("ceiling" in p or "unbounded" in p for p in problems)
            verdict = "over_ceiling" if ceiling_fatal and not fatal else "regression"
            return verdict, "; ".join(problems)
        if slack is not None:
            return "slack", slack
        return "ok", "certified"


# ---------------------------------------------------------------------------
# Per-function abstract interpretation
# ---------------------------------------------------------------------------


@dataclass
class _Out:
    """What one statement or block costs: the cheapest non-raising cost
    of each way out of it (``None`` = that exit is unreachable), and the
    additive worst over everything in it."""

    fall: MinCost = (0, 0)
    ret: MinCost = None
    brk: MinCost = None
    cont: MinCost = None
    worst: Cost = ZERO

    def after(self, fast: MinCost, worst: Cost) -> "_Out":
        """This outcome with ``(fast, worst)`` paid on the way to every exit."""
        return _Out(
            _madd(fast, self.fall),
            _madd(fast, self.ret),
            _madd(fast, self.brk),
            _madd(fast, self.cont),
            worst.add(self.worst),
        )

    def then(self, nxt: "_Out") -> "_Out":
        """``self`` followed, where it falls through, by ``nxt``."""
        return _Out(
            _madd(self.fall, nxt.fall),
            _mbest(self.ret, _madd(self.fall, nxt.ret)),
            _mbest(self.brk, _madd(self.fall, nxt.brk)),
            _mbest(self.cont, _madd(self.fall, nxt.cont)),
            self.worst.add(nxt.worst),
        )

    def either(self, other: "_Out") -> "_Out":
        """One of two alternative branches."""
        return _Out(
            _mbest(self.fall, other.fall),
            _mbest(self.ret, other.ret),
            _mbest(self.brk, other.brk),
            _mbest(self.cont, other.cont),
            self.worst.join(other.worst),
        )


_LITERAL_NODES = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.Tuple,
    ast.Constant,
    ast.DictComp,
    ast.SetComp,
    ast.JoinedStr,
    ast.Compare,
    ast.BoolOp,
    ast.UnaryOp,
    ast.Lambda,
)

#: Statements that cost nothing by construction, those costed as the sum
#: of their expressions, and ``try`` with its 3.11+ ``except*`` twin.
_COSTLESS_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Pass,
    ast.Global,
    ast.Nonlocal,
    ast.Import,
    ast.ImportFrom,
)
_SIMPLE_STMTS = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Assert, ast.Delete)
_TRY_STMTS = (ast.Try, getattr(ast, "TryStar", ast.Try))

#: Resolution results: a set of index class names, _CLIENT for the
#: metered client, _OPAQUE for "known, but nothing we price" (stdlib
#: containers, fabric internals), None for "unknown".
_CLIENT = "<client>"
_OPAQUE = frozenset()


class _FnEval:
    def __init__(self, model: CostModel, info: FuncInfo, ctx: frozenset):
        self.model = model
        self.info = info
        self.ctx = ctx
        self.directives = model.index.directives.get(info.path)
        self.types: dict[str, object] = {}
        self.bulk: set[str] = set(ctx)
        # ``mandatory`` is the fast-path subset of ``bulk``: names whose
        # length provably equals n (the bulk argument itself plus exact
        # length-preserving derivations). A loop over a mandatory name is
        # charged one full pass on the fast path; a loop over a derived
        # accumulator is not -- accumulators partition or filter the
        # items, so forcing a pass over each would overcount n.
        self.mandatory: set[str] = set(ctx)
        self._infer_env()

    # -- environment -----------------------------------------------------

    def _resolve_ann(self, ann: Optional[str]):
        if not ann:
            return None
        tokens = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", ann))
        if "Client" in tokens:
            return _CLIENT
        hits = frozenset(t for t in tokens if t in self.model.index.classes)
        if hits:
            return hits
        if tokens - {"Optional", "None"}:
            return _OPAQUE
        return None

    def _infer_env(self) -> None:
        info = self.info
        if info.cls is not None and not info.is_staticmethod:
            first = info.params[0] if info.params else None
            if first in ("self", "cls"):
                self.types[first] = frozenset({info.cls})
        for param, ann in info.param_anns.items():
            resolved = self._resolve_ann(ann)
            if resolved is not None:
                self.types[param] = resolved
        # Flow-insensitive local typing; two passes resolve chains.
        for _ in range(2):
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        inferred = self._type_of_expr(node.value)
                        if inferred is not None:
                            self.types.setdefault(target.id, inferred)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    resolved = self._resolve_ann(ast.unparse(node.annotation))
                    if resolved is not None:
                        self.types.setdefault(node.target.id, resolved)
        self._infer_bulk()

    def _infer_bulk(self) -> None:
        for _ in range(3):
            grew = False
            for node in ast.walk(self.info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in self.bulk
                        and self._is_bulk(node.value)
                    ):
                        self.bulk.add(target.id)
                        grew = True
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if not self._is_bulk(node.iter):
                        continue
                    # Accumulators filled inside a bulk loop scale with n.
                    for sub in ast.walk(node):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in ("append", "extend", "add")
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id not in self.bulk
                        ):
                            self.bulk.add(sub.func.value.id)
                            grew = True
            if not grew:
                break
        self._infer_mandatory()

    _EXACT_LEN_CALLS = frozenset(
        {"list", "sorted", "tuple", "reversed", "set", "enumerate", "zip",
         "len", "range"}
    )
    _EXACT_LEN_METHODS = frozenset({"items", "keys", "values", "copy"})

    def _infer_mandatory(self) -> None:
        for _ in range(3):
            grew = False
            for node in ast.walk(self.info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in self.mandatory
                        and self._is_mandatory(node.value)
                    ):
                        self.mandatory.add(target.id)
                        grew = True
            if not grew:
                break

    def _is_mandatory(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.mandatory
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in self._EXACT_LEN_CALLS
            ):
                return any(self._is_mandatory(arg) for arg in node.args)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._EXACT_LEN_METHODS
                and not node.args
            ):
                return self._is_mandatory(func.value)
            return False
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return (
                len(node.generators) == 1
                and not node.generators[0].ifs
                and self._is_mandatory(node.generators[0].iter)
            )
        if isinstance(node, ast.Subscript):
            return isinstance(node.slice, ast.Slice) and self._is_mandatory(
                node.value
            )
        return False

    def _type_of_expr(self, node: ast.AST):
        if isinstance(node, ast.Name):
            hit = self.types.get(node.id)
            if hit is not None:
                return hit
            if node.id in self.model.index.classes:
                # ``Cls.method(...)`` static-call receivers.
                return frozenset({node.id})
            return None
        if isinstance(node, _LITERAL_NODES) or isinstance(
            node, (ast.ListComp, ast.GeneratorExp)
        ):
            return _OPAQUE
        if isinstance(node, ast.Attribute):
            base = self._type_of_expr(node.value)
            if base is _CLIENT or base is None or base is _OPAQUE:
                return None
            for cls_name in sorted(base):
                cls = self.model.index.class_info(cls_name)
                if cls is not None and node.attr in cls.attr_anns:
                    return self._resolve_ann(cls.attr_anns[node.attr])
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in self.model.index.classes:
                    return frozenset({func.id})
                fn = self.model.index.functions.get(
                    f"{self.info.module}:{func.id}"
                )
                if fn is not None:
                    return self._resolve_ann(fn.return_ann)
            if isinstance(func, ast.Attribute):
                # Cls.create(...) classmethod constructors.
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in self.model.index.classes
                    and func.attr in _CONSTRUCTOR_NAMES
                ):
                    return frozenset({func.value.id})
                callee = self._resolve_callee(func)
                if isinstance(callee, FuncInfo):
                    return self._resolve_ann(callee.return_ann)
        return None

    def _is_bulk(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.bulk
        if isinstance(node, ast.Call):
            parts = list(node.args) + [kw.value for kw in node.keywords]
            if isinstance(node.func, ast.Attribute):
                parts.append(node.func.value)
            return any(self._is_bulk(part) for part in parts)
        if isinstance(node, ast.Attribute):
            return self._is_bulk(node.value)
        if isinstance(node, ast.BinOp):
            return self._is_bulk(node.left) or self._is_bulk(node.right)
        if isinstance(node, ast.Starred):
            return self._is_bulk(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return any(self._is_bulk(gen.iter) for gen in node.generators)
        if isinstance(node, ast.Subscript):
            return isinstance(node.slice, ast.Slice) and self._is_bulk(
                node.value
            )
        if isinstance(node, ast.IfExp):
            return self._is_bulk(node.body) or self._is_bulk(node.orelse)
        return False

    # -- entry point -----------------------------------------------------

    def run(self) -> Summary:
        out = self._block(self.info.node.body)
        return Summary(fast=_mbest(out.ret, out.fall), worst=out.worst)

    # -- expression costs ------------------------------------------------

    def _expr_cost(self, node: Optional[ast.AST]) -> tuple:
        """Returns ``(min_pair, worst_cost)`` for one expression."""
        if node is None:
            return (0, 0), ZERO
        if isinstance(node, ast.Call):
            return self._call_cost(node)
        if isinstance(node, ast.IfExp):
            tf, tw = self._expr_cost(node.test)
            bf, bw = self._expr_cost(node.body)
            of, ow = self._expr_cost(node.orelse)
            return _madd(tf, _mbest(bf, of)), tw.add(bw.join(ow))
        if isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
        ):
            return self._comp_cost(node)
        if isinstance(node, ast.Lambda):
            return (0, 0), ZERO
        fast, worst = (0, 0), ZERO
        for child in ast.iter_child_nodes(node):
            cf, cw = self._expr_cost(child)
            fast = _madd(fast, cf)
            worst = worst.add(cw)
        return fast, worst

    def _comp_cost(self, node) -> tuple:
        if isinstance(node, ast.DictComp):
            elt_fast, elt_worst = self._expr_cost(node.key)
            vf, vw = self._expr_cost(node.value)
            elt_fast, elt_worst = _madd(elt_fast, vf), elt_worst.add(vw)
        else:
            elt_fast, elt_worst = self._expr_cost(node.elt)
        fast, worst = (0, 0), ZERO
        per_iteration_worst = elt_worst
        bulk = mandatory = False
        for gen in node.generators:
            gf, gw = self._expr_cost(gen.iter)
            fast, worst = _madd(fast, gf), worst.add(gw)
            bulk = bulk or self._is_bulk(gen.iter)
            mandatory = mandatory or self._is_mandatory(gen.iter)
            for cond in gen.ifs:
                cf, cw = self._expr_cost(cond)
                per_iteration_worst = per_iteration_worst.add(cw)
                elt_fast = _madd(elt_fast, cf)
        if mandatory and elt_fast is not None:
            fast = _madd(fast, (0, elt_fast[0] + elt_fast[1]))
        if bulk:
            worst = worst.add(per_iteration_worst.times_n())
        else:
            worst = worst.add(per_iteration_worst.times_unbounded())
        return fast, worst

    # -- call resolution -------------------------------------------------

    def _resolve_callee(self, func: ast.Attribute):
        """FuncInfo, list of candidate FuncInfos, _CLIENT, or None."""
        receiver = func.value
        if func.attr == "__wrapped__" and isinstance(receiver, ast.Attribute):
            return self._resolve_callee(receiver)  # a decorated op's own body
        tset = self._type_of_expr(receiver)
        if tset is _CLIENT or is_client_receiver(receiver):
            return _CLIENT
        if attr_name(receiver) == "fabric" or tset is _OPAQUE:
            return _OPAQUE
        if tset:
            found = []
            for cls_name in sorted(tset):  # not hash order: it is demand order
                hit = self.model.index.lookup_method(cls_name, func.attr)
                if hit is not None:
                    found.append(hit)
            if found:
                return found if len(found) > 1 else found[0]
            return _OPAQUE  # resolved class, method not priced
        # Unresolved receiver: accept a *unique* global name match (the
        # helper-object case -- one class in the repo defines the method).
        # An ambiguous name is assumed near-only and reported instead of
        # joined: joining would route every untyped ``.get()``/``.read()``
        # through same-named far-structure methods and lift the whole
        # call graph to T, making the certificate vacuous.
        candidates = self.model.index.methods_by_name.get(func.attr)
        if candidates and len(candidates) == 1:
            return candidates[0]
        if candidates:
            self.model._diag(
                f"{self.info.qualname}: unresolved receiver for "
                f".{func.attr}() ({len(candidates)} same-name candidates); "
                "assumed near-only"
            )
        return _OPAQUE

    def _intrinsic_cost(self, call: ast.Call, name: str) -> tuple:
        if name not in FAR_COST_OPS:
            return (0, 0), ZERO
        if name == "phase":  # one post per item of its calls: submit in a comprehension
            calls = call.args[1] if len(call.args) > 1 else next(
                (kw.value for kw in call.keywords if kw.arg == "calls"), None
            )
            fast = (0, 1) if self._is_mandatory(calls) else (0, 0)
            return fast, Cost(per_item=1) if self._is_bulk(calls) else TOP
        fallback = None
        if name == "read_verified":
            fallback = next(
                (kw.value for kw in call.keywords if kw.arg == "fallback"),
                None,
            )
        if fallback is None:
            return (1, 0), Cost(const=1)
        if isinstance(fallback, (ast.Tuple, ast.List)):
            return (1, 0), Cost(const=1 + len(fallback.elts))
        return (1, 0), TOP

    def _map_bulk_args(self, call: ast.Call, callee: FuncInfo) -> frozenset:
        params = callee.params
        offset = 0
        if callee.cls is not None and not callee.is_staticmethod:
            if isinstance(call.func, ast.Attribute):
                offset = 1  # bound call: self/cls filled implicitly
        bulk_params = set()
        for position, arg in enumerate(call.args):
            index = position + offset
            if index < len(params) and self._is_bulk(arg):
                bulk_params.add(params[index])
        for kw in call.keywords:
            if kw.arg and kw.arg in params and self._is_bulk(kw.value):
                bulk_params.add(kw.arg)
        return frozenset(bulk_params)

    def _callee_cost(self, call: ast.Call, callee: FuncInfo) -> tuple:
        ctx = self._map_bulk_args(call, callee)
        summary = self.model.summary_for(callee, ctx)
        worst = summary.worst
        fast = summary.fast
        # The callee's per-item terms are in *its* bulk argument's units,
        # which a bulk call-site argument preserves (n is the same n).
        if not ctx and (
            (fast is not None and fast[1]) or worst.per_item
        ):
            # Per-item summary applied to a non-bulk argument of unknown
            # size: unbounded above, and at least one item below.
            worst = (
                Cost(unbounded=True, retry=worst.retry)
                if worst.per_item
                else worst
            )
        return fast, worst

    def _call_cost(self, call: ast.Call) -> tuple:
        fast, worst = (0, 0), ZERO
        for arg in call.args:
            f, w = self._expr_cost(arg)
            fast, worst = _madd(fast, f), worst.add(w)
        for kw in call.keywords:
            f, w = self._expr_cost(kw.value)
            fast, worst = _madd(fast, f), worst.add(w)
        func = call.func
        if isinstance(func, ast.Attribute):
            rf, rw = self._expr_cost(func.value)
            fast, worst = _madd(fast, rf), worst.add(rw)
            callee = self._resolve_callee(func)
            if callee is _CLIENT:
                cf, cw = self._intrinsic_cost(call, func.attr)
            elif callee is _OPAQUE or callee is None:
                cf, cw = (0, 0), ZERO
            elif isinstance(callee, list):
                cf, cw = None, ZERO
                for candidate in callee:
                    one_f, one_w = self._callee_cost(call, candidate)
                    cf = _mbest(cf, one_f)
                    cw = cw.join(one_w)
            else:
                cf, cw = self._callee_cost(call, callee)
            return _madd(fast, cf), worst.add(cw)
        if isinstance(func, ast.Name):
            if func.id in self.model.index.classes:
                init = self.model.index.lookup_method(func.id, "__init__")
                if init is not None:
                    cf, cw = self._callee_cost(call, init)
                    return _madd(fast, cf), worst.add(cw)
                return fast, worst
            callee = self.model.index.functions.get(
                f"{self.info.module}:{func.id}"
            )
            if callee is not None:
                cf, cw = self._callee_cost(call, callee)
                return _madd(fast, cf), worst.add(cw)
            return fast, worst
        f, w = self._expr_cost(func)
        return _madd(fast, f), worst.add(w)

    # -- loop multipliers ------------------------------------------------

    @staticmethod
    def _constant_trip_count(iter_node: ast.AST) -> Optional[int]:
        if isinstance(iter_node, (ast.List, ast.Tuple, ast.Set)):
            return len(iter_node.elts)
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
            and iter_node.args
        ):
            bounds = iter_node.args
            if all(isinstance(b, ast.Constant) and isinstance(b.value, int) for b in bounds):
                if len(bounds) == 1:
                    return max(0, bounds[0].value)
                if len(bounds) == 2:
                    return max(0, bounds[1].value - bounds[0].value)
        return None

    # -- the statement walk ----------------------------------------------

    def _block(self, stmts: list) -> _Out:
        out = _Out()
        for stmt in stmts:
            # Once nothing falls through the fast exits stop moving, but
            # statements after a ``return`` still bound from above.
            out = out.then(self._stmt(stmt))
        return out

    def _stmt(self, stmt: ast.stmt) -> _Out:
        if isinstance(stmt, _COSTLESS_STMTS):
            return _Out()
        if isinstance(stmt, ast.Return):
            fast, worst = self._expr_cost(stmt.value)
            return _Out(fall=None, ret=fast, worst=worst)
        if isinstance(stmt, ast.Raise):
            # Raising paths are never recorded by the sanitizer; their
            # cleanup cost still bounds from above via addition.
            _, worst = self._expr_cost(stmt.exc)
            return _Out(fall=None, worst=worst)
        if isinstance(stmt, ast.Break):
            return _Out(fall=None, brk=(0, 0))
        if isinstance(stmt, ast.Continue):
            return _Out(fall=None, cont=(0, 0))
        if isinstance(stmt, ast.If):
            test = self._expr_cost(stmt.test)
            return self._block(stmt.body).either(self._block(stmt.orelse)).after(*test)
        if isinstance(stmt, ast.Match):
            # An if/elif chain whose tests are the guards; only a bare
            # ``case _`` (or capture) rules out falling through unmatched.
            subject, out = self._expr_cost(stmt.subject), _Out()
            for case in reversed(stmt.cases):
                body = self._block(case.body)
                if (
                    case.guard is None
                    and isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None
                ):
                    out = body
                else:
                    out = body.either(out).after(*self._expr_cost(case.guard))
            return out.after(*subject)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt)
        if isinstance(stmt, _TRY_STMTS):
            # Fast paths do not raise: the try body and else run, the
            # handlers do not (they only join into the worst), the
            # finally always does -- on the way to every exit.
            body = self._block(stmt.body)
            handlers = ZERO
            for handler in stmt.handlers:
                handlers = handlers.join(self._block(handler.body).worst)
            out = body.then(self._block(stmt.orelse))
            final = self._block(stmt.finalbody)
            return out.after(final.fall, handlers.add(final.worst))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            enter = _Out()
            for item in stmt.items:
                enter = enter.after(*self._expr_cost(item.context_expr))
            return enter.then(self._block(stmt.body))
        if isinstance(stmt, _SIMPLE_STMTS):
            out = _Out()
            for child in ast.iter_child_nodes(stmt):
                out = out.after(*self._expr_cost(child))
            return out
        # A statement kind this walk does not model must not certify a
        # far access as free: anything that could hide one is T.
        if any(isinstance(node, ast.Call) for node in ast.walk(stmt)):
            return _Out(worst=TOP)
        return _Out()

    def _loop(self, stmt) -> _Out:
        is_while = isinstance(stmt, ast.While)
        enter, head = self._expr_cost(stmt.test if is_while else stmt.iter)
        body = self._block(stmt.body)
        orelse = self._block(stmt.orelse)
        retry = self.directives is not None and self.directives.is_retry(stmt)
        bulk = mandatory = always = False
        trip = None
        if is_while:
            # The test is paid once on entry by the fast path, and once
            # more with every iteration by the worst.
            outside, looped = ZERO, body.worst.add(head)
            always = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        else:
            outside, looped = head, body.worst
            bulk = self._is_bulk(stmt.iter)
            mandatory = self._is_mandatory(stmt.iter)
            trip = self._constant_trip_count(stmt.iter)
        if retry:
            looped = Cost(looped.const, looped.per_item, looped.unbounded, True)
        elif bulk:
            looped = looped.times_n()
        elif trip is not None:
            looped = looped.times_const(trip)
        else:
            looped = looped.times_unbounded()

        # ``passes``: the cheapest way to run the loop to completion, which
        # is what reaching the else clause (or falling out of it) costs.
        per_iter = _mbest(body.fall, body.cont)
        if mandatory:
            # A loop over the bulk argument (or an exact length-preserving
            # derivation of it) is charged one full pass of n iterations
            # at the cheapest per-iteration cost, keeping per-item
            # regressions visible on the fast path. Derived accumulators
            # are *not* force-charged: they partition the items, and
            # chaining mandatory passes over each stage would overcount.
            passes = None if per_iter is None else (0, per_iter[0] + per_iter[1])
        elif always:
            # while True: the body runs at least once; the loop is left
            # only by break (skipping the else) or return.
            passes = None
        else:
            # A skippable loop: zero iterations (then the else clause), a
            # break out of the first iteration, or a return from the body.
            passes = (0, 0)
        done = orelse.after(passes, ZERO)
        return _Out(
            fall=_mbest(done.fall, body.brk),
            ret=_mbest(body.ret, done.ret),
            brk=done.brk,
            cont=done.cont,
            worst=looped.add(orelse.worst),
        ).after(enter, outside)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def analyze_paths(
    paths: Iterable[str], *, structures: Optional[Iterable[str]] = None
) -> CostModel:
    """Index ``paths``, run the fixpoint, and return the solved model."""
    model = CostModel(structures=structures)
    model.load_paths(paths)
    model.solve()
    return model


def build_certificate(model: CostModel) -> dict:
    """The certificate: structure -> op -> record, in certified order."""
    cert: dict[str, dict] = {}
    for fn in model._certified_ops():
        record = model._record_for(fn)
        if record is not None:
            cert.setdefault(fn.cls, {})[fn.name] = record
    return cert


def certificate_summary(cert: dict) -> dict:
    """How many operations ``cert`` certifies, how many fail, and the
    count of each verdict."""
    verdicts = [record["verdict"] for ops in cert.values() for record in ops.values()]
    return {
        "operations": len(verdicts),
        "failing": sum(verdict in FAILING_VERDICTS for verdict in verdicts),
        "verdicts": {verdict: verdicts.count(verdict) for verdict in sorted(set(verdicts))},
    }


def certificate_failures(cert: dict) -> list[str]:
    return [
        f"{structure}.{op}: {record['verdict']} — {record['detail']}"
        for structure, ops in cert.items()
        for op, record in ops.items()
        if record["verdict"] in FAILING_VERDICTS
    ]


def render_certificate(cert: dict) -> str:
    """The ``repro cost`` table: one row per certified operation."""
    if not cert:
        return "(no registered far structures found)"
    rows = []
    for structure, ops in cert.items():
        for op, record in ops.items():
            declared = record["declared"]
            if declared is None:
                budget = "-"
            else:
                budget = (
                    f"fast={declared['fast']}"
                    + (f" ceil={declared['ceiling']}" if declared["ceiling"] is not None else "")
                    + (" per-item" if declared["per_item"] else "")
                )
            rows.append(
                (
                    f"{structure}.{op}",
                    budget,
                    record["inferred"]["fast"],
                    record["inferred"]["worst"],
                    record["verdict"],
                    declared["claim"] if declared and declared.get("claim") else "-",
                )
            )
    headers = ("operation", "declared", "fast", "worst", "verdict", "claim")
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    summary = certificate_summary(cert)
    lines.append(
        f"{summary['operations']} operation(s), {summary['failing']} failing — "
        + ", ".join(f"{count} {verdict}" for verdict, count in summary["verdicts"].items())
    )
    return "\n".join(lines)
