"""A ratchet on the public surface: what ``src/repro`` defines, something uses.

Every public function, method and module-level class in ``src/repro`` is
mentioned somewhere else in ``src/repro``, ``benchmarks/`` or ``examples/``
— or is listed in :data:`KEEP` with the reason it stays. Grep-level on
purpose, like the probe that sized PR 23's deletions: stdlib ``ast`` finds
the definitions, a word index of every line finds the mentions (a mention
inside the definition's own body, or in an ``__init__.py`` re-export, does
not count; one in a docstring or a string does, so an op dispatched by
name is "used"). Names shared between classes share their mentions.

The test fails both ways: on a public name only ``tests/`` reaches that is
not in ``KEEP`` (delete it with its tests, or say why it stays), and on a
``KEEP`` entry that has become referenced or no longer exists (strike it).

A second ratchet does the same for options. Every defaulted parameter of a
public class's ``__init__`` / ``create`` / ``create_framed`` / ``open`` /
``attach``, and every defaulted field of a public ``*Policy`` / ``*Model``
/ ``*Hint`` / ``*Objective`` dataclass, is set by name under USERS — or is
listed in :data:`KEEP_OPTIONS` with the reason it stays. An option only its
default sets is a constant. Run this file as a script to print the
settable-value count.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("src/repro", "benchmarks", "examples")

_FAULT_PLAN = "fault-plan vocabulary: every fault test speaks it; ROADMAP item 1's explorer will"
_FLOOR = (
    "tests-only convenience whose own test is all that calls it; retire the pair "
    "when a PR has test-removal allowance left (ROADMAP item 4(a), remainder)"
)

#: Public names nothing under USERS mentions, and why each stays.
KEEP = {
    # Test vocabulary that earns its place.
    "FaultPlan.timeout_at": _FAULT_PLAN,
    "FaultPlan.flaky_at": _FAULT_PLAN,
    "FaultPlan.spike_between": _FAULT_PLAN,
    "FaultPlan.corrupt_at": _FAULT_PLAN,
    "FaultPlan.random_torn": _FAULT_PLAN,
    "FaultPlan.torn_at": _FAULT_PLAN,
    "Client.pending_notifications": "test vocabulary: 33 uses, the way a test sees a delivery",
    "ExtentTable.globalize": "test vocabulary: 15 uses, turns a node-local offset into an address",
    "Tracer.spans_by_label": "test vocabulary: the span-side twin of events_by_kind (8 uses)",
    "Tracer.remove_sink": "the detach half of add_sink: how a registry stops observing a tracer",
    # Capabilities DESIGN names, or that a paper benchmark / example is about.
    "arrive_for_dead": "barrier repair (DESIGN section 3, repro.recovery)",
    "ReplicatedRegion.resync": "post-repair resync (DESIGN section 3, repro.fabric.replication)",
    "FarRegistry.unregister": "registry tombstones: PR 4's hypothesis-found bug lives there",
    "FarBarrier.wait_done": "section 5.1's notifye wake-up",
    "FarRWLock.subscribe_free": "the lock's only blocking primitive; its manager exists for it",
    "FarStack": "core.stack is in DESIGN section 3's inventory; whole modules are out of scope",
    "FarStack.peek": "the stack's read: where load0 saves the third far access (DESIGN section 3)",
    "FarLinkedList": "the section 5 strawman baseline",
    "FarLinkedList.push_front": "the strawman's only insert",
    "RpcVector": "the RPC-side vector baseline (DESIGN section 3, repro.rpc)",
    "Hotspot": "the hotspot key distribution (DESIGN section 3, repro.workloads)",
    "FarKVStore.txn_multiput": "the transactional KV write (DESIGN section 15), a certified op",
    # Deliberately deferred.
    "FarCounter.compare_and_set": _FLOOR,
}


def _definitions(path: Path, tree: ast.Module):
    """``(qualified name, name, path, first line, last line)`` of every
    public function, class and method at module or class level."""

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield ".".join(prefix + [node.name]), node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, prefix + [node.name])

    return visit(tree.body, [])


def unreferenced() -> set[str]:
    """Qualified names of public definitions nothing else mentions."""
    mentions = defaultdict(list)  # word -> [(path, line)]
    definitions = []
    for root in USERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name != "__init__.py":
                for number, line in enumerate(text.splitlines(), start=1):
                    for word in re.findall(r"[A-Za-z_]\w*", line):
                        mentions[word].append((path, number))
            if SRC in path.parents:
                definitions.extend(_definitions(path, ast.parse(text)))
    return {
        qualified
        for qualified, name, path, first, last in definitions
        if all(where == path and first <= line <= last for where, line in mentions[name])
    }


def test_every_public_name_is_used_or_kept_for_a_reason():
    found = unreferenced()
    assert sorted(found - set(KEEP)) == [], "tests-only public names (delete, or add to KEEP)"
    assert sorted(set(KEEP) - found) == [], "KEEP entries now referenced or gone (strike them)"
    assert all(reason.strip() for reason in KEEP.values())


# -- the options ratchet ----------------------------------------------------

#: Methods whose defaulted parameters are a class's construction options.
OPTION_METHODS = ("__init__", "create", "create_framed", "open", "attach")
#: Dataclasses whose defaulted fields are settable configuration.
CONFIG_SUFFIXES = ("Policy", "Model", "Hint", "Objective")

_TESTED = "tests set it to reach the behaviour they check"
_RING = "TelemetryRegistry passes its own ring_windows positionally"

#: Settable values nothing under USERS sets by name, and why each stays.
KEEP_OPTIONS = {
    # Options two or more tests set to reach the behaviour they check.
    "BreakerPolicy.failure_threshold": f"{_TESTED} (10 lines: trips, half-open probes)",
    "BreakerPolicy.cooldown_ns": f"{_TESTED} (9 lines: trips, half-open probes)",
    "RetryPolicy.base_backoff_ns": f"{_TESTED} (the backoff shape: 3 lines)",
    "RetryPolicy.max_backoff_ns": f"{_TESTED} (the backoff shape: 2 lines)",
    "RetryPolicy.jitter": f"{_TESTED} (the backoff shape: 4 lines)",
    "HTTree.create(initial_leaves=)": f"{_TESTED} (multi-table trees: 4 lines)",
    "TxnSpace.create(record_capacity=)": f"{_TESTED} (record-area overflow: 2 lines)",
    "FarCounter.create(initial=)": f"{_TESTED} (2 lines)",
    "SLObjective.short_windows": f"{_TESTED} (burn-rate windows: 2 lines)",
    "SLObjective.long_windows": f"{_TESTED} (burn-rate windows: 3 lines)",
    "DeliveryPolicy.drop_probability": f"{_TESTED} (lossy delivery: 7 lines)",
    "RpcServer(one_way_ns=)": f"{_TESTED} (the RPC cost model: 4 lines)",
    "MigrationCoordinator(chunk_bytes=)": f"{_TESTED} (validation; chunk accounting)",
    "RepairCoordinator(chunk_bytes=)": f"{_TESTED} (validation; raw-region chunking)",
    "TelemetryRegistry(ring_windows=)": "the export pin's scenario depends on the value 8",
    # Set, but positionally.
    "CounterSeries(ring_windows=)": _RING,
    "GaugeSeries(ring_windows=)": _RING,
    "HistogramRing(ring_windows=)": _RING,
    # Options of a kept class.
    "Hotspot(hot_fraction=)": "Hotspot itself is in KEEP; its shape parameters go with it",
    "Hotspot(hot_probability=)": "Hotspot itself is in KEEP; its shape parameters go with it",
    # Deliberately deferred.
    "FarBlobStore.create(inline_hint=)": (
        "set only by its own validation test; the next option to make a constant"
    ),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _options(tree: ast.Module):
    """``(qualified option, name, first line, last line)`` of every settable
    value: a defaulted parameter of a public class's construction method,
    or a defaulted field of a public configuration dataclass. The line span
    is the option's own definition (the method, or the dataclass body)."""

    def visit(body):
        for cls in body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name in OPTION_METHODS:
                    args = node.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults) :] + [
                        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
                    ]
                    where = cls.name if node.name == "__init__" else f"{cls.name}.{node.name}"
                    for arg in defaulted:
                        if not arg.arg.startswith("_"):
                            yield f"{where}({arg.arg}=)", arg.arg, node.lineno, node.end_lineno
            if cls.name.endswith(CONFIG_SUFFIXES) and _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and node.value is not None:
                        name = node.target.id
                        yield f"{cls.name}.{name}", name, cls.lineno, cls.end_lineno
            yield from visit(cls.body)

    return visit(tree.body)


def unset_options() -> tuple[int, set[str]]:
    """The settable-value count, and the options nothing sets by name.

    "Set by name" is a ``name=`` keyword (not ``==``, not ``obj.name=``) on
    any line under USERS outside the option's own definition — ruff's
    format writes keywords without spaces and assignments with them, so
    the pattern sees calls and ``dataclasses.replace``, not assignments.
    Options sharing a name share their setters, as names do above."""
    setters = defaultdict(list)  # name -> [(path, line)]
    options = []
    for root in USERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)=(?!=)", line):
                    setters[name].append((path, number))
            if SRC in path.parents:
                options.extend((path, *option) for option in _options(ast.parse(text)))
    unset = {
        qualified
        for path, qualified, name, first, last in options
        if all(where == path and first <= line <= last for where, line in setters[name])
    }
    return len(options), unset


def test_every_option_is_set_or_kept_for_a_reason():
    count, found = unset_options()
    print(f"settable values: {count}")
    unkept = sorted(found - set(KEEP_OPTIONS))
    assert unkept == [], "options only a default sets (make them constants, or KEEP_OPTIONS)"
    stale = sorted(set(KEEP_OPTIONS) - found)
    assert stale == [], "KEEP_OPTIONS entries now set or gone (strike them)"
    assert all(reason.strip() for reason in KEEP_OPTIONS.values())


if __name__ == "__main__":
    print(f"settable values: {unset_options()[0]}")
