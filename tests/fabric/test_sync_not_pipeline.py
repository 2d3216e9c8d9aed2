""""A sync op is not a pipeline" as a tier-1 invariant.

A synchronous far call posts one window entry and rings the doorbell itself;
it must not pay for a ``FarFuture``, a membership scan, or a generic window
computation that a one-deep window does not need. These tests count
Python-level function entries (``sys.setprofile`` ``call`` events — C builtins
are excluded) for one op each and pin them as upper bounds, on a bare client,
on a default-policy client and on one with a silent fault injector, and count
``FarFuture`` constructions. One structure-level pin rides along: a warm
``HTTree.get`` hit and a warm ``HTTree.put`` update, C calls included.

The pins are bounds, not equalities: CPython 3.12 inlines comprehensions, so
3.10/3.11 set the number.
"""

import gc
import inspect
import sys

import pytest

from repro import Cluster
from repro.fabric import Client, FarFuture, FaultPlan

from .test_translate_once import _cluster

# name -> (call, entries on a bare client); a default-policy client (retry +
# breaker, no failure streak) pays the same, and one with a silent injector
# two more: the fault check and the injector's rule scan.
# The memory map is test_translate_once's: ``p`` points at ``t``, ``a``/``b``
# are plain buffers, ``w`` a 256 B one (the write path: one full inline packet).
# Each op paid one more entry per heat count, per migration check with none
# in flight and per node bounds check before those went inline (load0 25 / 32,
# faai 34 / 41, rgather 35 / 42), and two more for its hand-written body and
# its accounting call before it ran from its row (rgather four: its byte count
# summed the iovec through a generator). A default-policy client paid three
# more than a bare one (read_u64 15, load0 23), and a silent injector five
# more than that (six on a write), before a closed breaker and the spike's
# pending state stopped costing a call. Each translation built a ``Location``
# dataclass (an ``__init__`` entry per location), each word op called its
# bounds check, ``fetch_add`` its ``wrap_add`` and a fabric write its
# ``_node_for``, before a location was a tuple and those checks went inline
# (read_u64 / cas / write 12, load0 20, rgather 23, faai 21).
OPS = {
    "read_u64": (lambda c, m: c.read_u64(m["a"]), 10),
    "cas": (lambda c, m: c.cas(m["a"], 0, 0), 10),  # succeeds every time
    "load0": (lambda c, m: c.load0(m["p"], 24), 17),
    "rgather": (lambda c, m: c.rgather([(m["a"], 8), (m["b"], 16), (m["t"], 8)]), 20),
    "write": (lambda c, m: c.write(m["w"], b"w" * 256), 10),
    "faai": (lambda c, m: c.faai(m["p"], 0, 24), 17),  # the pointer-bump path; *p stays put
}


def _calls(call, client, memory):
    """(Python-level function entries, C calls) made by ``call`` (itself excluded)."""
    events = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in events:
            events[event] += 1

    call(client, memory)  # warm: first use creates per-node breakers
    gc.collect()  # a collection inside the call would count other objects' finalizers
    sys.setprofile(profiler)
    try:
        call(client, memory)
    finally:
        sys.setprofile(None)
    return events["call"] - 1, events["c_call"] - 1  # the lambda; setprofile(None)


def _python_calls(call, client, memory):
    return _calls(call, client, memory)[0]


@pytest.mark.parametrize("op", sorted(OPS))
def test_bare_client_sync_op_call_count(op):
    cluster, memory = _cluster()
    client = cluster.client(retry_policy=None, breaker_policy=None)
    call, bare = OPS[op]
    assert _python_calls(call, client, memory) <= bare


@pytest.mark.parametrize("op", sorted(OPS))
def test_default_policy_sync_op_call_count(op):
    cluster, memory = _cluster()
    client = cluster.client()
    assert client.retry_policy is not None and client.breaker_policy is not None
    call, bare = OPS[op]
    assert _python_calls(call, client, memory) <= bare


@pytest.mark.parametrize("op", sorted(OPS))
def test_silent_injector_sync_op_call_count(op):
    cluster, memory = _cluster()
    client = cluster.client()
    cluster.inject_faults(plan=FaultPlan())
    call, bare = OPS[op]
    assert _python_calls(call, client, memory) <= bare + 2


def test_warm_httree_get_hit_call_count():
    """The structure-level pin: the paper's one-far-access lookup, a warm
    ``HTTree.get`` hit (tree cache loaded, chain length one) on a bare client,
    Python entries and in total with the C calls (``len``, ``Struct.unpack``...)."""
    cluster = Cluster(node_count=1, node_size=8 << 20)
    client = cluster.client(retry_policy=None, breaker_policy=None)
    tree = cluster.ht_tree(bucket_count=64)
    tree.put(client, 7, 70)
    entries, c_calls = _calls(lambda c, t: t.get(c, 7), client, tree)
    # 27 / 36 before a translation stopped building a ``Location`` dataclass
    # and a word op stopped calling its bounds check;
    # 32 / 41 before the op ran as one body (a stale cache retried by a loop,
    # not a recursion; the warm cache taken without a ``_cache`` frame; walk
    # and bucket hash one call; the item decoded into locals; the walk priced
    # without a cost-model call); 34 / 42 before far ops ran from their rows;
    # 37 / 51 before heat, bounds and tree depth stopped costing a call each;
    # 40 / 54 while the op opened its (null) span by hand.
    assert entries <= 24
    assert entries + c_calls <= 33


def test_warm_httree_put_update_call_count():
    """Its write-side twin: a warm in-place ``HTTree.put`` update, the
    paper's two-far-access store (39 / 50 before a translation stopped
    building a ``Location`` dataclass and a word op stopped calling its
    bounds check, 44 / 55 before the op ran as one body)."""
    cluster = Cluster(node_count=1, node_size=8 << 20)
    client = cluster.client(retry_policy=None, breaker_policy=None)
    tree = cluster.ht_tree(bucket_count=64)
    tree.put(client, 7, 70)
    entries, c_calls = _calls(lambda c, t: t.put(c, 7, 71), client, tree)
    assert entries <= 34
    assert entries + c_calls <= 45


@pytest.mark.parametrize("method", ["_post", "_issue"])
def test_an_ops_arguments_travel_as_one_tuple(method):
    """``entry -> _post -> _issue`` hands the caller's arguments on as one
    tuple parameter; only the fabric call unpacks them. On CPython 3.11 a
    chain of three ``f(*args)`` hops costs ~713 ns against ~188 ns for the
    tuple passed as one parameter, and the calls/op count does not show it."""
    kinds = [p.kind for p in inspect.signature(getattr(Client, method)).parameters.values()]
    assert inspect.Parameter.VAR_POSITIONAL not in kinds
    assert inspect.Parameter.VAR_KEYWORD not in kinds


@pytest.fixture
def futures_built(monkeypatch):
    """Count ``FarFuture`` constructions."""
    built = []
    original = FarFuture.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FarFuture, "__init__", counted)
    return built


@pytest.mark.parametrize("op", sorted(OPS))
def test_sync_op_builds_no_future(futures_built, op):
    cluster, memory = _cluster()
    client = cluster.client()
    OPS[op][0](client, memory)
    with client.batch():
        OPS[op][0](client, memory)
    assert futures_built == []
    assert client.metrics.pipeline_ops == 2


def test_submit_builds_exactly_one_future(futures_built):
    cluster, memory = _cluster()
    client = cluster.client()
    future = client.submit("read_u64", memory["a"])
    assert futures_built == [future]
    assert future.result() == 0
    assert futures_built == [future]
