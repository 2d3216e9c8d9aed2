"""The span pass: time every layer from outside, at its public entry points.

:func:`install` replaces the public methods of each layer's classes (and the
module-level ``wire`` helpers wherever they were imported) with wrappers that
time the call. Nothing inside ``src/`` is edited or aware of it;
:func:`uninstall` puts every original object back by identity.

A span is ``(id, parent, layer, name, start_ns, end_ns, op_id)``. A layer's
*self time* is the duration of its spans minus the part their child spans
cover; time inside a timed chunk but outside every span belongs to ``other``
(the driver loop and anything no layer claims). Self times are accumulated
as spans close, so a pass holds only the first ``keep_ops`` ops' spans in
memory, which is what ``--trace-out`` writes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Optional

# Layers are the repo's modules. Twelve names, fixed.
LAYERS = (
    "core",
    "txn",
    "client",
    "retry",
    "fabric",
    "translate",
    "memory_node",
    "wire",
    "notify",
    "obs",
    "budget",
    "other",
)

# Source file (relative to src/repro/) -> layer, for the counting pass.
# Longest prefix wins; anything unlisted is ``other``.
LAYER_FILES = {
    "core/": "core",
    "apps/": "core",
    "txn/": "txn",
    "fabric/client.py": "client",
    "fabric/pipeline.py": "client",
    "fabric/latency.py": "client",
    "fabric/metrics.py": "client",
    "fabric/retry.py": "retry",
    "fabric/faults.py": "retry",
    "fabric/fabric.py": "fabric",
    "fabric/primitives.py": "fabric",
    "fabric/integrity.py": "fabric",
    "fabric/replication.py": "fabric",
    "fabric/extent.py": "translate",
    "fabric/address.py": "translate",
    "fabric/memory_node.py": "memory_node",
    "fabric/wire.py": "wire",
    "notify/": "notify",
    "obs/": "obs",
    "analysis/budget.py": "budget",
}

# The address-translation entry points counted by translate.lookups_per_far_access.
TRANSLATE_LOOKUPS = (
    "ExtentTable.locate",
    "ExtentTable.split",
    "ExtentTable.node_of",
    "ExtentTable.check",
    "Placement.locate",
    "Placement.split",
    "Placement.check",
)


def _targets() -> list[tuple[str, str, type, Optional[Callable[[str], bool]]]]:
    """(layer, label prefix, class, name filter) for every class whose public
    methods get a span. Imported here so importing this module stays free of
    ``repro``."""
    from repro.alloc import FarAllocator
    from repro.core.ht_tree import HTTree
    from repro.fabric.address import InterleavedPlacement, Placement, RangePlacement
    from repro.fabric.client import Client
    from repro.fabric.extent import ExtentTable
    from repro.fabric.fabric import Fabric
    from repro.fabric.faults import FaultInjector
    from repro.fabric.memory_node import MemoryNode
    from repro.fabric.pipeline import CompletionQueue
    from repro.fabric.primitives import FarPrimitivesMixin
    from repro.fabric.retry import CircuitBreaker, RetryPolicy
    from repro.notify import NotificationManager
    from repro.obs import TelemetryRegistry, Tracer
    from repro.txn import TxnSpace

    def hooks(name: str) -> bool:
        return name.startswith("on_") or name in ("span", "current_span")

    return [
        ("core", "HTTree", HTTree, None),
        ("txn", "TxnSpace", TxnSpace, None),
        ("client", "Client", Client, None),
        ("client", "CompletionQueue", CompletionQueue, None),
        ("retry", "CircuitBreaker", CircuitBreaker, None),
        ("retry", "RetryPolicy", RetryPolicy, lambda name: name == "backoff_ns"),
        ("retry", "FaultInjector", FaultInjector, None),
        ("fabric", "Fabric", Fabric, None),
        ("fabric", "Fabric", FarPrimitivesMixin, None),
        ("translate", "ExtentTable", ExtentTable, None),
        ("translate", "Placement", Placement, None),
        ("translate", "Placement", RangePlacement, None),
        ("translate", "Placement", InterleavedPlacement, None),
        ("memory_node", "MemoryNode", MemoryNode, None),
        ("notify", "NotificationManager", NotificationManager, None),
        ("obs", "Tracer", Tracer, hooks),
        ("obs", "TelemetryRegistry", TelemetryRegistry, lambda name: name == "on_trace_event"),
        ("other", "FarAllocator", FarAllocator, None),
    ]


class SpanRecorder:
    """Installs the wrappers, accumulates per-layer self time and entry
    counts, and keeps the raw spans of the first ``keep_ops`` ops."""

    def __init__(self, keep_ops: int = 1_000) -> None:
        self.keep_ops = keep_ops
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.enters = dict.fromkeys(LAYERS, 0)  # entries from another layer
        self.calls: dict[str, int] = {}  # every entry, by Class.method
        self.budgeted_calls = dict.fromkeys(LAYERS, 0)  # entries into @far_budget methods
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []  # [child_ns, layer, span_id]
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> "SpanRecorder":
        if self._patched:
            raise RuntimeError("spans are already installed")
        for layer, prefix, cls, wanted in _targets():
            for name, member in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(member):
                    continue
                if wanted is not None and not wanted(name):
                    continue
                self._patch(cls, name, member, self._wrap(member, layer, f"{prefix}.{name}"))
        self._install_wire()
        return self

    def _install_wire(self) -> None:
        # ``from .wire import decode_u64`` binds the function into the
        # importing module, so each such global is replaced where it lives.
        from repro.fabric import wire

        originals = {
            name: fn
            for name, fn in vars(wire).items()
            if inspect.isfunction(fn) and fn.__module__ == wire.__name__ and name[0] != "_"
        }
        wrappers = {name: self._wrap(fn, "wire", f"wire.{name}") for name, fn in originals.items()}
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and originals.get(value.__name__) is value:
                    self._patch(module, name, value, wrappers[value.__name__])

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to the identical original object."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Forget everything recorded so far (the worker calls this after
        set-up, which runs through the wrappers too)."""
        for table in (self.self_ns, self.enters, self.calls, self.budgeted_calls):
            for key in table:
                table[key] = 0
        self.spans.clear()

    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for everything currently replaced."""
        return list(self._patched)

    # -- recording ------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, label: str) -> Callable:
        stack = self._stack
        self_ns, enters, calls, spans = self.self_ns, self.enters, self.calls, self.spans
        clock = time.perf_counter_ns
        budgeted_calls = self.budgeted_calls if hasattr(fn, "__far_budget__") else None
        calls.setdefault(label, 0)
        recorder = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_ns[layer] += took - frame[0]
                calls[label] += 1
                if budgeted_calls is not None:
                    budgeted_calls[layer] += 1
                if parent is None:
                    enters[layer] += 1
                    parent_id = None
                else:
                    parent[0] += took
                    parent_id = parent[2]
                    if parent[1] != layer:
                        enters[layer] += 1
                if recorder.op_id < recorder.keep_ops:
                    spans.append((span_id, parent_id, layer, label, start, end, recorder.op_id))

        return span

    def covered_ns(self) -> int:
        """Host ns inside any span so far (the sum of all self times)."""
        return sum(self.self_ns.values())
