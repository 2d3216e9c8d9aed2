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
default sets is a constant.

A third does it for ``python -m repro`` flags, keyed on (subcommand, flag):
each is passed by a command in CI's workflow or by a ``main([...])`` call
under ``tests/``, or sits in :data:`KEEP_FLAGS` with a reason. A flag
nothing passes is its default value.

A fourth ratchets state. Every annotated field of a ``src/repro``
dataclass, and every ``self.<name>`` that ``src/repro`` assigns, is read
somewhere under USERS or ``tests/`` — an attribute load outside that
attribute's own update — or sits in :data:`KEEP_STATE` naming the generic
reader (``vars``, ``as_dict``, ``astuple``) that reads it. A counter
nothing reads is deleted with its updates.

Run this file as a script to print the settable-value, CLI-flag and
state-field counts.
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


# -- the flag ratchet -------------------------------------------------------

CI = ROOT / ".github" / "workflows" / "ci.yml"

#: ``python -m repro`` flags that neither CI nor a test passes, and why each stays.
KEEP_FLAGS = {
    ("cost", "--json"): "ROADMAP's certificate byte-equality check pipes it to sha256sum",
    ("cost", "--update-baseline"): "it rewrites a committed file, so no test may run it",
}


def cli_flags() -> set[tuple[str, str]]:
    """``(subcommand, flag)`` of every option ``python -m repro`` declares."""
    tree = ast.parse((SRC / "__main__.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    parsers = {  # parser variable -> subcommand
        node.targets[0].id: node.value.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", None) == "add_parser"
    }
    return {
        (parsers[call.func.value.id], arg.value)
        for call in calls
        if getattr(call.func, "attr", None) == "add_argument"
        and getattr(call.func.value, "id", None) in parsers
        for arg in call.args
        if arg.value.startswith("--")
    }


def passed_flags() -> set[tuple[str, str]]:
    """``(subcommand, flag)`` pairs a ``python -m repro`` command in CI's
    workflow (comments aside; continued by a trailing backslash or a next
    line that starts with ``--``) or a ``main([...])`` call under
    ``tests/`` passes."""
    passed = set()
    text = CI.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    for number, line in enumerate(lines):
        match = re.search(r"python -m repro (\w+)(.*)", line)
        if match is None:
            continue
        command, rest = match.groups()
        while lines[number].rstrip().endswith("\\") or (
            number + 1 < len(lines) and lines[number + 1].lstrip().startswith("--")
        ):
            number += 1
            rest += " " + lines[number]
        passed.update((command, flag) for flag in re.findall(r"(?<!\S)--[a-z][a-z-]*", rest))
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "main"
                and node.args
                and isinstance(node.args[0], ast.List)
            ):
                continue
            words = [item.value for item in node.args[0].elts if isinstance(item, ast.Constant)]
            if words:
                passed.update((words[0], word) for word in words[1:] if word.startswith("--"))
    return passed


def test_every_cli_flag_is_passed_or_kept_for_a_reason():
    flags = cli_flags()
    print(f"CLI flags: {len(flags)}")
    unpassed = flags - passed_flags()
    unkept = sorted(unpassed - set(KEEP_FLAGS))
    assert unkept == [], "flags nothing passes (make them constants, or KEEP_FLAGS)"
    stale = sorted(set(KEEP_FLAGS) - unpassed)
    assert stale == [], "KEEP_FLAGS entries now passed or gone (strike them)"
    assert all(reason.strip() for reason in KEEP_FLAGS.values())


# -- the state ratchet ------------------------------------------------------

#: Where a read of state counts: USERS and the tests (a field only a test
#: reads is that test's probe).
READERS = USERS + ("tests",)

_VARS = "vars(run.tree.stats): the frozen benchmark exports every HT-tree counter"
_AS_DICT = "getattr over Metrics.counter_names(): as_dict, the ledgers and telemetry gauges"

#: State nothing reads by name, and the generic reader that reads it.
KEEP_STATE = {
    "HTTreeStats.hits": _VARS,
    "HTTreeStats.misses": _VARS,
    "HTTreeStats.inserts": _VARS,
    "HTTreeStats.deletes": _VARS,
    "HTTreeStats.cache_loads": _VARS,
    "HTTreeStats.split_items_moved": _VARS,
    "HTTreeStats.scans": _VARS,
    "Metrics.notification_bytes": _AS_DICT,
    "Metrics.rpc_bytes": _AS_DICT,
    "QueueStats.head_refreshes": "astuple(queue.stats): test_bulk_pin.py's PINNED table",
    "QueueStats.clear_flushes": "astuple(queue.stats): test_bulk_pin.py's PINNED table",
    "TxnRecoveryReport.owner_id": "astuple(report): test_txn_pin.py's PINNED table",
}


def _assigned(node: ast.AST) -> list[ast.expr]:
    """What an assignment statement stores to, tuples unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return []
    targets = []
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            targets.append(target)
    return targets


def _state(tree: ast.Module):
    """``(qualified name, name)`` of every annotated field of a dataclass
    and every ``self.<name>`` a class's own methods assign."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield f"{cls.name}.{node.target.id}", node.target.id
        todo = [node for node in cls.body if not isinstance(node, ast.ClassDef)]
        while todo:
            node = todo.pop()
            for target in _assigned(node):
                if (
                    isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) == "self"
                    and not target.attr.startswith("__")
                ):
                    yield f"{cls.name}.{target.attr}", target.attr
            todo.extend(
                child for child in ast.iter_child_nodes(node) if not isinstance(child, ast.ClassDef)
            )


def _reads(tree: ast.Module):
    """The name of every attribute load outside that attribute's own update.

    An update is a statement whose one target is an attribute (or an item
    of it); loads of that same attribute expression inside it are the
    update's own, as in ``s.n += 1`` or ``s.d[k] = s.d.get(k, 0) + 1``."""
    own = set()
    for node in ast.walk(tree):
        targets = _assigned(node)
        if len(targets) != 1 or isinstance(getattr(node, "targets", [None])[0], ast.Tuple):
            continue
        target = targets[0]
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            text = ast.unparse(target)
            own.update(
                id(load)
                for load in ast.walk(node)
                if isinstance(load, ast.Attribute) and ast.unparse(load) == text
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in own:
                yield node.attr


def unread_state() -> tuple[int, set[str]]:
    """The state count, and the state nothing under READERS reads by name.
    State sharing a name shares its readers, as names do above."""
    state, read = set(), set()
    for root in READERS:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(_reads(tree))
            if SRC in path.parents:
                state.update(_state(tree))
    return len(state), {qualified for qualified, name in state if name not in read}


def test_every_field_is_read_or_kept_for_a_reason():
    count, found = unread_state()
    print(f"state fields: {count}")
    unkept = sorted(found - set(KEEP_STATE))
    assert unkept == [], "write-only state (delete it with its updates, or KEEP_STATE)"
    stale = sorted(set(KEEP_STATE) - found)
    assert stale == [], "KEEP_STATE entries now read or gone (strike them)"
    assert all(reason.strip() for reason in KEEP_STATE.values())


if __name__ == "__main__":
    print(f"settable values: {unset_options()[0]}")
    print(f"CLI flags: {len(cli_flags())}")
    print(f"state fields: {unread_state()[0]}")
