"""``@far_budget`` — declared far-access budgets, runtime-checked.

The paper prices every operation in far accesses: HT-tree lookups cost 1
and stores 2 (claim C4), queue operations cost 1 on the fast path (claim
C5), and the one-sided design only beats RPC while those counts hold
(claim C2). This module turns the prices into *declarations on the code
itself*: each public op of a far data structure carries a
``@far_budget(...)`` decorator stating its fast-path cost and (where
bounded) a hard ceiling, and a :class:`BudgetSanitizer` — enabled as a
context manager or via ``python -m repro sanitize`` — measures the real
per-call far-access delta from the client's exact :class:`Metrics` and
checks it against the declaration.

Semantics
---------

``fast``
    The declared fast-path far-access count. Calls whose measured delta
    is ``<= fast`` count as fast-path hits; the records expose the hit
    fraction so a test can assert "warm lookups take 1 far access"
    directly. ``None`` means "observe only" (no meaningful fast path).
``ceiling``
    A hard upper bound on any single call. Exceeding it is a budget
    violation — raised immediately under ``strict`` (the default), else
    recorded. ``None`` means the slow path is legitimately unbounded
    (splits, cold caches, retry ladders).
``per_item``
    For bulk ops (``multiget``, ``enqueue_many``): budgets are per item
    and scale by ``len()`` of the op's first argument after the client,
    whether it is passed by position or by keyword.
``claim``
    The paper claim this budget reifies (``"C2"``/``"C4"``/``"C5"``),
    threaded into reports and DESIGN.md's budget table.
``span``
    The op's trace span, ``"label param ..."``. The decorator is the one
    place a certified op is measured: on a traced client it opens the
    span the op's record is read from (``httree.get`` tagged with its
    ``key``, ``queue.enqueue_many`` with its item count ``n``), so no op
    body opens one by hand. Ops that declare none open none.

Only the *outermost* budgeted op per client records: ``KVStore.get``
composes ``HTTree.get``, and charging both would double-count the same
far accesses. Spans nest instead: ``get`` > ``httree.get``.

On an untraced client with no sanitizer active the decorator is a
passthrough after two ``is None`` tests — budgets and spans cost nothing
in untraced runs and benchmarks.

Every declaration here is also checked *statically*:
:mod:`repro.analysis.fmcost` infers each operation's worst-case
far-access bound from the AST and certifies it against the decorator
(``python -m repro check``, against the baseline ``python -m repro cost
--out analysis/cost_baseline.json`` writes; DESIGN.md §14). The sanitizer and
the certifier meter the same quantity — the acting client's exact
``Metrics`` delta — so the static bound is a theorem the runtime checks
can only confirm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class BudgetViolation(AssertionError):
    """A call exceeded its declared far-access ceiling."""


@dataclass(frozen=True)
class Budget:
    """A declared far-access budget for one operation."""

    op: str
    fast: Optional[int]
    ceiling: Optional[int]
    per_item: bool
    claim: Optional[str]

    def scaled(self, items: int) -> "Budget":
        if not self.per_item or items <= 1:
            return self
        return Budget(
            op=self.op,
            fast=None if self.fast is None else self.fast * items,
            ceiling=None if self.ceiling is None else self.ceiling * items,
            per_item=True,
            claim=self.claim,
        )


@dataclass
class OpRecord:
    """Aggregated measurements for one (structure, op) pair."""

    budget: Budget
    calls: int = 0
    fast_hits: int = 0
    max_delta: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def fast_fraction(self) -> float:
        return self.fast_hits / self.calls if self.calls else 0.0


class BudgetSanitizer:
    """Runtime checker for ``@far_budget`` declarations.

    Use as a context manager::

        with BudgetSanitizer() as san:
            tree.get(client, 7)
        assert san.records["HTTree.get"].fast_hits == 1

    ``strict=True`` raises :class:`BudgetViolation` at the offending call
    site; ``strict=False`` records violations for a post-run report.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.records: dict[str, OpRecord] = {}
        self._depth: dict[int, int] = {}

    # -- nesting ---------------------------------------------------------

    def _enter(self, client: Any) -> bool:
        """Returns True when this is the outermost budgeted op."""
        key = id(client)
        depth = self._depth.get(key, 0)
        self._depth[key] = depth + 1
        return depth == 0

    def _exit(self, client: Any) -> None:
        key = id(client)
        depth = self._depth[key] - 1
        if depth:
            self._depth[key] = depth
        else:
            del self._depth[key]

    # -- recording -------------------------------------------------------

    def record(self, key: str, budget: Budget, delta_far: int) -> None:
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = OpRecord(budget=budget)
        record.calls += 1
        record.max_delta = max(record.max_delta, delta_far)
        if budget.fast is not None and delta_far <= budget.fast:
            record.fast_hits += 1
        if budget.ceiling is not None and delta_far > budget.ceiling:
            message = (
                f"{key}: {delta_far} far accesses exceeds declared "
                f"ceiling {budget.ceiling}"
                + (f" (claim {budget.claim})" if budget.claim else "")
            )
            record.violations.append(message)
            if self.strict:
                raise BudgetViolation(message)

    @property
    def violations(self) -> list[str]:
        out: list[str] = []
        for record in self.records.values():
            out.extend(record.violations)
        return out

    def report(self) -> str:
        """One row per op: calls, fast-path fraction, max, budget, claim."""
        if not self.records:
            return "(no budgeted operations ran)"
        width = max(len(key) for key in self.records)
        lines = [
            f"{'op':<{width}}  {'calls':>6}  {'fast%':>6}  {'max':>4}  "
            f"{'fast':>4}  {'ceil':>4}  claim"
        ]
        for key in sorted(self.records):
            record = self.records[key]
            budget = record.budget
            lines.append(
                f"{key:<{width}}  {record.calls:>6}  "
                f"{record.fast_fraction * 100:>5.1f}%  {record.max_delta:>4}  "
                f"{'-' if budget.fast is None else budget.fast:>4}  "
                f"{'-' if budget.ceiling is None else budget.ceiling:>4}  "
                f"{budget.claim or '-'}"
            )
        if self.violations:
            lines.append(f"{len(self.violations)} budget violation(s):")
            lines.extend(f"  - {message}" for message in self.violations)
        return "\n".join(lines)

    # -- activation ------------------------------------------------------

    def __enter__(self) -> "BudgetSanitizer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a BudgetSanitizer is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None


_ACTIVE: Optional[BudgetSanitizer] = None


def far_budget(
    fast: Optional[int],
    *,
    ceiling: Optional[int] = None,
    per_item: bool = False,
    claim: Optional[str] = None,
    span: Optional[str] = None,
) -> Callable:
    """Declare the far-access budget of a data-structure operation.

    The wrapped method must take the acting :class:`Client` as its first
    argument after ``self``, named ``client`` (the repo-wide convention).
    ``span`` is the op's trace span, ``"label param ..."``: on a client
    with a tracer attached the call runs inside a span ``label`` tagged
    with each named parameter, where ``n`` is ``len()`` of the op's first
    argument after the client (its items, the argument ``per_item``
    scales by). The declaration is introspectable as
    ``method.__far_budget__`` even when no sanitizer is active.
    """

    def decorate(fn: Callable) -> Callable:
        budget = Budget(
            op=fn.__name__,
            fast=fast,
            ceiling=ceiling,
            per_item=per_item,
            claim=claim,
        )
        code = fn.__code__
        params = code.co_varnames[2 : code.co_argcount]  # after self, client
        label, *names = span.split() if span else (None,)
        # (tag, position after the client, parameter name); ``n`` reads
        # the item count, so its name is None.
        tags_of = tuple(
            (tag, 0, None) if tag == "n" else (tag, params.index(tag), tag) for tag in names
        )
        counted = per_item or "n" in names
        items = params[0] if counted else None

        @functools.wraps(fn)
        def wrapper(self: Any, client: Any, *args: Any, **kwargs: Any) -> Any:
            tracer = client._tracer if label else None
            if tracer is None and _ACTIVE is None:
                return fn(self, client, *args, **kwargs)
            sanitizer = _ACTIVE
            count = None
            if counted:
                # One lookup serves the ``n`` tag and the budget's scale.
                try:
                    count = len(kwargs[items] if items in kwargs else args[0])
                except TypeError:
                    pass
            opened = None
            if tracer is not None:
                tags = {}
                for tag, position, name in tags_of:
                    if name is None:
                        tags[tag] = count
                    else:
                        tags[tag] = kwargs[name] if name in kwargs else args[position]
                opened = tracer._open_span(client, label, tags)
            # Only the outermost budgeted op per client records: a nested
            # one's far accesses are the outer frame's delta.
            outermost = sanitizer is not None and sanitizer._enter(client)
            before = client.metrics.far_accesses
            try:
                result = fn(self, client, *args, **kwargs)
            finally:
                if sanitizer is not None:
                    sanitizer._exit(client)
                if opened is not None:
                    tracer._close_span(opened)
            if outermost:
                sanitizer.record(
                    f"{type(self).__name__}.{fn.__name__}",
                    budget if count is None else budget.scaled(count),
                    client.metrics.far_accesses - before,
                )
            return result

        wrapper.__far_budget__ = budget
        return wrapper

    return decorate
