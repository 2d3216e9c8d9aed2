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
    "TelemetryRegistry.client_names": "a public attribute since PR 9, a property since reads fold",
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
    "OneSidedBTree.invalidate_cache": _FLOOR,
    "FarCounter.compare_and_set": _FLOOR,
    "RpcServer.reset_timeline": _FLOOR,
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
