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

A fifth ratchets execution. Every function ``src/repro`` defines is entered
by a recorded run (:func:`recorded_runs`: the examples, the CLI, the
benchmarks' smoke sizes) — or sits in :data:`KEEP_UNRUN` with a reason. The
recording re-runs all of them under ``tests/exec_hook``'s hook, so it is not
a tier-1 test: ``python tests/test_surface.py --unrun`` runs it and fails
both ways. Tier-1 checks only that each row still names a function.

Run this file as a script to print the settable-value, CLI-flag,
state-field and kept-unrun counts.
"""

import ast
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("src/repro", "benchmarks", "examples")

_FAULT_PLAN = "fault-plan vocabulary: every fault test speaks it; ROADMAP item 1's explorer will"
_FLOOR = (
    "tests-only convenience whose own test is all that calls it; retire the pair "
    "when a PR has test-removal allowance left (ROADMAP item 6, satellite pool)"
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
    "FarRegistry.unregister": "registry tombstones: PR 4's hypothesis-found bug lives there",
    "FarBarrier.wait_done": "section 5.1's notifye wake-up",
    "FarRWLock.subscribe_free": "the lock's only blocking primitive; its manager exists for it",
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
    "HTTree.create(initial_leaves=)": f"{_TESTED} (multi-table trees: 4 lines)",
    "TxnSpace.create(record_capacity=)": f"{_TESTED} (record-area overflow: 2 lines)",
    "FarCounter.create(initial=)": f"{_TESTED} (2 lines)",
    "SLObjective.short_windows": f"{_TESTED} (burn-rate windows: 2 lines)",
    "SLObjective.long_windows": f"{_TESTED} (burn-rate windows: 3 lines)",
    "DeliveryPolicy.drop_probability": f"{_TESTED} (lossy delivery: 6 lines)",
    "RpcServer(one_way_ns=)": f"{_TESTED} (the RPC cost model: 4 lines)",
    "MigrationCoordinator(chunk_bytes=)": f"{_TESTED} (validation; chunk accounting)",
    "TelemetryRegistry(ring_windows=)": "the export pin's scenario depends on the value 8",
    # Set, but positionally.
    "CounterSeries(ring_windows=)": _RING,
    "GaugeSeries(ring_windows=)": _RING,
    "HistogramRing(ring_windows=)": _RING,
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
KEEP_FLAGS: dict[tuple[str, str], str] = {}


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
    "QueueStats.head_refreshes": "astuple(queue.stats): tests/pins/structure_steps.json",
    "QueueStats.clear_flushes": "astuple(queue.stats): tests/pins/structure_steps.json",
    "TxnRecoveryReport.owner_id": "astuple(report): tests/pins/commit.json",
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


# -- the execution ratchet --------------------------------------------------

_DUNDER = "dunder: what repr() / str() / len() / in shows at a prompt or in a failure message"
_INTERFACE = "an interface's declaration: its implementations' methods are what run"
_PAPER_OP = (
    "certified paper-path op no run observes: it gains a claim row that calls it, "
    "or goes with its certificate record (ROADMAP items 6(b), 3(a))"
)
_KV_TXN = (
    "the KV-transaction path (DESIGN section 15): runs once a KV transfer joins A11 or "
    "bank_transfer, or goes with FarKVStore.txn_multiput (ROADMAP item 6(b))"
)
_MAP_DELETE = (
    "the map delete every map keeps, one-sided and RPC alike; no E10 YCSB mix deletes "
    "yet (ROADMAP item 6(b))"
)
_PROBE = "test vocabulary: the read a test checks state with, which no run inspects"
_ERROR = "error path: taken only on a failure no run provokes"

#: ``src/repro`` functions no recorded run enters, and why each stays.
KEEP_UNRUN = {
    # Dunders.
    "AddressCachingHashMap.__len__": _DUNDER,
    "Broker.__repr__": _DUNDER,
    "CircuitBreaker.__repr__": _DUNDER,
    "Client.__repr__": _DUNDER,
    "CompletionQueue.__repr__": _DUNDER,
    "CounterSeries.__repr__": _DUNDER,
    "EpochReclaimer.__repr__": _DUNDER,
    "ExtentTable.__repr__": _DUNDER,
    "Fabric.__repr__": _DUNDER,
    "FarAllocator.__repr__": _DUNDER,
    "FarFuture.__repr__": _DUNDER,
    "FarQueue.__repr__": _DUNDER,
    "FarSkipList.__len__": _DUNDER,
    "FaultInjector.__repr__": _DUNDER,
    "GaugeSeries.__repr__": _DUNDER,
    "HTTree.__repr__": _DUNDER,
    "HistogramRing.__repr__": _DUNDER,
    "HistogramSet.__contains__": _DUNDER,
    "HistogramSet.__len__": _DUNDER,
    "HistogramSet.__repr__": _DUNDER,
    "HopscotchHashMap.__len__": _DUNDER,
    "LatencyHistogram.__repr__": _DUNDER,
    "MemoryNode.__repr__": _DUNDER,
    "Metrics.__str__": _DUNDER,
    "Notification.__str__": _DUNDER,
    "OneSidedBTree.__len__": _DUNDER,
    "OneSidedHashMap.__len__": _DUNDER,
    "RefreshableVector.__repr__": _DUNDER,
    "RpcMap.__len__": _DUNDER,
    "RpcServer.__repr__": _DUNDER,
    "SLOMonitor.__repr__": _DUNDER,
    "Span.__repr__": _DUNDER,
    "TelemetryRegistry.__repr__": _DUNDER,
    "Tracer.__repr__": _DUNDER,
    # Interfaces.
    "KeyDistribution.sample": _INTERFACE,
    "NotificationSink.deliver": _INTERFACE,
    "Notifier.on_write": _INTERFACE,
    # Fault-plan vocabulary.
    "FaultPlan.timeout_at": _FAULT_PLAN,
    "FaultPlan.flaky_at": _FAULT_PLAN,
    "FaultPlan.spike_between": _FAULT_PLAN,
    "FaultPlan.corrupt_at": _FAULT_PLAN,
    "FaultPlan.random_torn": _FAULT_PLAN,
    "FaultPlan.torn_at": _FAULT_PLAN,
    # Certified paper-path ops, with the private steps only they take.
    "FarCounter.compare_and_set": _PAPER_OP,
    "FarCounter.decrement": _PAPER_OP,
    "FarCounter.set": _PAPER_OP,
    "FarKVStore.contains": _PAPER_OP,
    "FarKVStore.delete": _PAPER_OP,
    "FarKVStore.multiget": _PAPER_OP,
    "FarKVStore.multiput": _PAPER_OP,
    "FarQueue.enqueue_many": _PAPER_OP,
    "HTTree.delete": _PAPER_OP,
    "HTTree._delete": _PAPER_OP,
    "HTTree.multistore": _PAPER_OP,
    "RefreshableVector.set_multi_writer": _PAPER_OP,
    "TxnSpace.transaction": _PAPER_OP,
    "FarBlobStore.delete": "FarKVStore.delete's blob step (a certified op above)",
    "FarBlobStore.multiget": "FarKVStore.multiget / multiput's blob step (certified ops above)",
    "FarBlobStore.multiput": "FarKVStore.multiput's blob step (a certified op above)",
    "FarBlobStore.length": "the blob store's size read: KV values are read whole",
    # The KV-transaction path.
    "FarKVStore.txn_get": _KV_TXN,
    "FarKVStore.txn_multiput": _KV_TXN,
    "FarKVStore.txn_tag": _KV_TXN,
    "Transaction.buffer_kv": _KV_TXN,
    "TxnSpace._apply_kv": _KV_TXN,
    "TxnSpace.slot_for_key": _KV_TXN,
    # Map deletes.
    "AddressCachingHashMap.delete": _MAP_DELETE,
    "HopscotchHashMap.delete": _MAP_DELETE,
    "OneSidedHashMap.delete": _MAP_DELETE,
    "OneSidedHashMap._tombstone": _MAP_DELETE,
    "RpcMap.delete": _MAP_DELETE,
    "RpcMap._delete": _MAP_DELETE,
    # Error paths and branches no run takes.
    "AddressError.__init__": f"{_ERROR} (an out-of-range address)",
    "MemoryNode._bad_word": f"{_ERROR} (a word op at an unaligned or out-of-range offset)",
    "FaultInjector.take_torn_fraction": f"{_ERROR} (a torn write: no run's fault plan tears)",
    "TxnSpace._abort_for": f"{_ERROR} (a stale epoch or an injected fault mid-commit)",
    "ExtentMigration.abort": f"{_ERROR} (a migration abandoned before commit)",
    "ExtentTable.abort_migration": f"{_ERROR} (a migration abandoned before commit)",
    "CompletionQueue._discard": "a tracked future reaped by result() before the CQ drains it",
    "RefreshableVector._leave_notify_mode": "the policy shift back to version polling",
    # Admin paths and paper primitives no run takes.
    "FarRegistry.unregister": "registry tombstones: a probe chain must survive a removed name",
    "FarRegistry.attach": "adopting a registry by base address, as a second process would",
    "FarBarrier.wait_done": "section 5.1's notifye wake-up",
    "FarBarrier.poll": "the polling foil notifications replace (section 5.1)",
    "FarBarrier.reset": "re-arming a barrier for a second generation",
    "FarSemaphore.acquire_or_wait": "the semaphore's blocking acquire (notify0 wake-up)",
    "FarSemaphore.retry": "the semaphore's blocking acquire (notify0 wake-up)",
    "FarRWLock.subscribe_free": "the lock's only blocking primitive; its manager exists for it",
    "Client.store0_u64": "Fig. 1's store0 row: no structure stores through a pointer yet",
    "Fabric.repair_node": "bringing a fail-stopped node back: the runs re-replicate instead",
    "FarAllocator.grow": "Cluster.add_node(grow=True): the runs add nodes as migration headroom",
    "EpochReclaimer.drain": "shutdown-time reclaim: no run shuts a reclaimer down",
    "Broker.detach": "unsubscribing through a broker (section 7.2): no run unsubscribes",
    "AlarmConsumer.stop": "unsubscribing a monitoring consumer: no run stops one",
    "Tracer.remove_sink": "the detach half of add_sink: how a registry stops observing a tracer",
    "TelemetryRegistry.watch": "observing one client: the runs observe a whole tracer",
    "GradientChannel.receive": "the one-gradient form of receive_many, which the runs call",
    "FarVector.read_range": "the section 5.1 vector's bulk read: the runs read elements",
    "FarHistogram.read_range": "the section 6 consumer's optional copy of a bin range",
    "WindowedHistogramRing.read_window": "bulk-reading one past window (section 6)",
    "_TopTicker.__init__": "repro top's periodic frames: the recorded run prints one (--once)",
    "_TopTicker.on_window_advance": "repro top's periodic frames: the recorded run prints one",
    "_Checker.visit_AsyncFunctionDef": "fmlint on an async def: the tree has none",
    "_Checker._submit_unsignaled": "fmlint's FM002 on a discarded submit(): the tree has none",
    "Finding.format": "printing a lint finding: the tree lints clean",
    "HistogramRing.record": "the one-value form of record_many, which the runs call",
    "LatencyHistogram.render": "the ASCII histogram a reader prints at a prompt",
    "Summary.render": "fmcost's debugging text for one inferred cost",
    # Test vocabulary.
    "Client.pending_notifications": _PROBE,
    "CompletionQueue.outstanding": _PROBE,
    "CompletionQueue.ready": _PROBE,
    "DeliveryPolicy.reliable": _PROBE,
    "EpochReclaimer.epoch": _PROBE,
    "ExtentTable.globalize": _PROBE,
    "ExtentTable.layout": _PROBE,
    "FarAllocator.free_bytes": _PROBE,
    "FarFuture.done": _PROBE,
    "FarFuture.exception": _PROBE,
    "FarHistogram.bins": _PROBE,
    "FarRWLock.readers": _PROBE,
    "FarSemaphore.available": _PROBE,
    "FaultStats.faults_injected": _PROBE,
    "LatencyHistogram.buckets": _PROBE,
    "LeasedFarMutex.holder": _PROBE,
    "OneSidedBTree.height": _PROBE,
    "ReclaimStats.pending": _PROBE,
    "RpcQueue.size": "the RPC queue's length op: E5 and work_queue only enqueue and dequeue",
    "RpcQueue._size": "the RPC queue's length op: E5 and work_queue only enqueue and dequeue",
    "SLOMonitor.fired": _PROBE,
    "ScrubReport.clean": _PROBE,
    "Span.open": _PROBE,
    "TelemetryRegistry.gauge": _PROBE,
    "Tracer.attached": _PROBE,
    "Tracer.current_span": _PROBE,
    "Tracer.spans_by_label": _PROBE,
}


def functions() -> dict[tuple[str, int], str]:
    """``(path under src/repro, first line)`` -> qualified name of every
    function ``src/repro`` defines, nested ones included. The first line is
    the first decorator's, as ``co_firstlineno`` has it, so the key is the
    one the hook records for the function's code object."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + [child.name]
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, first] = ".".join(name)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [], path.relative_to(SRC).as_posix())
    return found


HOOK = ROOT / "tests" / "exec_hook"
EXAMPLES = sorted(path.stem for path in (ROOT / "examples").glob("*.py"))
#: The examples CI's unified gate runs under the budget sanitizer.
SANITIZED = ("quickstart", "kvstore_service", "work_queue", "parameter_server")
#: The exports CI runs the race detector over, and the exit each gives:
#: lost_update's seeded race and quickstart's designed racy reads (CI's
#: advisory report) are flagged.
RACE_EXITS = {"bank_transfer": 0, "lost_update": 1, "node_repair": 0, "quickstart": 1}


def recorded_runs(out: str) -> list[tuple[list[str], dict[str, str], int]]:
    """What "runs" means: the fixed set of commands, each with the extra
    environment it needs and the exit code it must give, whose union of
    entered functions the execution ratchet checks — every example under
    ``trace`` and ``stats``, every other ``python -m repro`` subcommand in
    the form CI runs it (``sanitize`` and ``lint --list-rules``, which CI
    does not run, once each), every benchmark's smoke size and the
    wall-clock smoke. They write under ``out``; the ``validate`` and
    ``races`` runs read the traces the ``trace`` runs exported there."""
    repro = [sys.executable, "-m", "repro"]
    benches = sorted(str(path) for path in (ROOT / "benchmarks").glob("bench_*.py"))
    wallclock = [sys.executable, "benchmarks/wallclock/run.py", "--smoke", "--out", f"{out}/w.json"]
    return [
        *(
            ([*repro, command, example, "--out", out], {}, 0)
            for command in ("trace", "stats")
            for example in EXAMPLES
        ),
        *(
            ([*repro, "validate", f"{out}/quickstart.{suffix}"], {}, 0)
            for suffix in ("trace.json", "trace.jsonl")
        ),
        *(
            ([*repro, "races", f"{out}/{name}.trace.jsonl"], {}, code)
            for name, code in RACE_EXITS.items()
        ),
        (repro, {}, 0),
        ([*repro, "check", *(f"--sanitize={name}" for name in SANITIZED)], {}, 0),
        ([*repro, "sanitize", "quickstart"], {}, 0),
        ([*repro, "cost", "--out", f"{out}/cost.json"], {}, 0),
        ([*repro, "lint"], {}, 0),
        ([*repro, "lint", "--list-rules"], {}, 0),
        ([*repro, "topology", "--demo", "--json"], {}, 0),
        ([*repro, "top", "quickstart", "--once"], {}, 0),
        (
            [sys.executable, "-m", "pytest", *benches, "--benchmark-disable", "-q"],
            {"FM_BENCH_SMOKE": "1"},
            0,
        ),
        (wallclock, {}, 0),
    ]


def record(
    runs: list[tuple[list[str], dict[str, str], int]], scratch: str
) -> set[tuple[str, int]]:
    """``(path under src/repro, first line)`` of every code object ``runs``
    enter, each run a subprocess under ``tests/exec_hook``'s hook. A run
    that exits with another code than its own fails the recording, with
    its output."""
    entered = Path(scratch, "entered")
    entered.mkdir()
    pythonpath = os.pathsep.join([str(HOOK), str(ROOT / "src")])
    base = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0", REPRO_ENTERED=str(entered))
    for argv, extra, code in runs:
        done = subprocess.run(
            argv,
            cwd=ROOT,
            env={**base, **extra},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            check=False,
        )
        if done.returncode != code:
            print(done.stdout)
            raise SystemExit(f"recorded run exited {done.returncode}: {' '.join(argv)}")
    keys = set()
    for part in entered.iterdir():
        for line in part.read_text(encoding="utf-8").splitlines():
            path, first = line.rsplit(":", 1)
            keys.add((path, int(first)))
    return keys


def test_the_hook_keys_what_a_process_enters_as_functions_does(tmp_path):
    """A property is keyed on its decorator's line, and a ``cProfile``
    pass (the wall-clock counting pass) does not switch the hook off."""
    script = (
        "import cProfile; from repro.workloads import MetricStream; "
        "profile = cProfile.Profile(); profile.enable(); profile.disable(); "
        "MetricStream().samples(4)"
    )
    keys = record([([sys.executable, "-c", script], {}, 0)], str(tmp_path))
    defined = functions()
    names = {defined[key] for key in keys if key in defined}
    assert {"MetricStream.samples", "MetricStream.tail_start"} <= names
    assert "Zipf.sample" not in names


def tree_digest(root: Path) -> str:
    """One hash of every ``*.py`` file under ``root``, each path with its
    bytes. The hook keys a function on its first line, so a recording is
    comparable to :func:`functions` only if the tree read the same before
    and after it."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def unrun() -> tuple[int, set[str]]:
    """The function count, and the names of the functions no recorded run
    enters. Functions sharing a qualified name share it, as names do above.
    An edit to ``src/repro`` while the runs record ends it with no verdict:
    a process started after the edit keys the new line numbers."""
    before = tree_digest(SRC)
    defined = functions()
    with tempfile.TemporaryDirectory() as scratch:
        seen = record(recorded_runs(scratch), scratch)
    if tree_digest(SRC) != before:
        raise SystemExit("src/repro changed during the recording; rerun")
    return len(defined), {name for key, name in defined.items() if key not in seen}


def test_unrun_gives_no_verdict_on_a_tree_edited_mid_recording(tmp_path, monkeypatch):
    """Only ``*.py`` files count: an edit, an added file or a rename between
    the two digests ends ``unrun`` before it names any function."""
    import pytest

    module = sys.modules[__name__]
    tree = tmp_path / "repro"
    (tree / "core").mkdir(parents=True)
    (tree / "core" / "a.py").write_text("def f():\n    pass\n", encoding="utf-8")
    monkeypatch.setattr(module, "SRC", tree)
    monkeypatch.setattr(module, "recorded_runs", lambda out: [])

    def recording_that(edit):
        def record(runs, scratch):
            edit()
            return set()

        return record

    monkeypatch.setattr(module, "record", recording_that(lambda: (tree / "a.txt").touch()))
    assert unrun() == (1, {"f"})
    for edit in (
        lambda: (tree / "core" / "a.py").write_text("\ndef f():\n    pass\n"),
        lambda: (tree / "b.py").touch(),
        lambda: (tree / "b.py").rename(tree / "core" / "b.py"),
    ):
        monkeypatch.setattr(module, "record", recording_that(edit))
        with pytest.raises(SystemExit, match="src/repro changed during the recording; rerun"):
            unrun()


def test_every_keep_unrun_row_names_a_function_and_a_reason():
    """The cheap half of the execution ratchet, run in tier-1: a row whose
    function is gone is struck. The other half re-runs the examples and the
    benchmark smoke, so it is its own CI step: ``python tests/test_surface.py
    --unrun``."""
    gone = sorted(set(KEEP_UNRUN) - set(functions().values()))
    assert gone == [], "KEEP_UNRUN rows whose function no longer exists (strike them)"
    assert all(reason.strip() for reason in KEEP_UNRUN.values())


def check_unrun() -> int:
    count, found = unrun()
    print(f"functions: {count}, unrun: {len(found)}")
    unkept = sorted(found - set(KEEP_UNRUN))
    stale = sorted(set(KEEP_UNRUN) - found)
    for name in unkept:
        print(f"unrun, not in KEEP_UNRUN (delete it, or add a row): {name}")
    for name in stale:
        print(f"KEEP_UNRUN row now entered or gone (strike it): {name}")
    return 1 if unkept or stale else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--unrun"]:
        raise SystemExit(check_unrun())
    print(f"settable values: {unset_options()[0]}")
    print(f"CLI flags: {len(cli_flags())}")
    print(f"state fields: {unread_state()[0]}")
    print(f"unrun functions kept: {len(KEEP_UNRUN)}")
