""""A sync op is not a pipeline" as a tier-1 invariant.

A synchronous far call posts one window entry and rings the doorbell itself;
it must not pay for a ``FarFuture``, a membership scan, or a generic window
computation that a one-deep window does not need. These tests count
Python-level function entries (``sys.setprofile`` ``call`` events — C builtins
are excluded) for one op each and pin them as upper bounds, on a bare client
and on a default-policy client, and count ``FarFuture`` constructions. One
structure-level pin rides along: a warm ``HTTree.get`` hit, C calls included.

The pins are bounds, not equalities: CPython 3.12 inlines comprehensions, so
3.10/3.11 set the number.
"""

import gc
import sys

import pytest

from repro import Cluster
from repro.fabric import FarFuture

from .test_translate_once import _cluster

# name -> (call, entries on a bare client, entries with retry + breaker policy);
# the memory map is test_translate_once's: ``p`` points at ``t``, ``a``/``b``
# are plain buffers, ``w`` a 256 B one (the write path: one full inline packet).
OPS = {
    "read_u64": (lambda c, m: c.read_u64(m["a"]), 15, 22),
    "cas": (lambda c, m: c.cas(m["a"], 0, 0), 23, 30),  # succeeds every time
    "load0": (lambda c, m: c.load0(m["p"], 24), 25, 32),
    "rgather": (lambda c, m: c.rgather([(m["a"], 8), (m["b"], 16), (m["t"], 8)]), 35, 42),
    "write": (lambda c, m: c.write(m["w"], b"w" * 256), 22, 29),
    "faai": (lambda c, m: c.faai(m["p"], 0, 24), 34, 41),  # the pointer-bump path; *p stays put
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
    call, bare, _ = OPS[op]
    assert _python_calls(call, client, memory) <= bare


@pytest.mark.parametrize("op", sorted(OPS))
def test_default_policy_sync_op_call_count(op):
    cluster, memory = _cluster()
    client = cluster.client()
    assert client.retry_policy is not None and client.breaker_policy is not None
    call, _, guarded = OPS[op]
    assert _python_calls(call, client, memory) <= guarded


def test_warm_httree_get_hit_call_count():
    """The structure-level pin: the paper's one-far-access lookup, a warm
    ``HTTree.get`` hit (tree cache loaded, chain length one) on a bare client,
    Python entries and in total with the C calls (``len``, ``Struct.unpack``...)."""
    cluster = Cluster(node_count=1, node_size=8 << 20)
    client = cluster.client(retry_policy=None, breaker_policy=None)
    tree = cluster.ht_tree(bucket_count=64)
    tree.put(client, 7, 70)
    entries, c_calls = _calls(lambda c, t: t.get(c, 7), client, tree)
    # 40 / 54 while the op opened its (null) span by hand.
    assert entries <= 37
    assert entries + c_calls <= 51


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
