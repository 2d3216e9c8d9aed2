"""One far access, one charge: what the charge path may skip, and what not.

``Client._issue`` prices a completed access in one ``CostModel.far_access_ns``
call and consults the fault injector only when one is attached; a
synchronous call on an idle pipeline rings its one-entry window without
parking it in the open window first. Both are shortcuts the simulated world
must not see. Nor may an observer: a client with a tracer or an injector
runs ``Client._issue``'s guard ladder where a bare client runs the fabric
call alone, so the two must charge a failure alike. The property: a drawn
sequence of ``FAR_OPS`` rows — synchronous, submitted, and inside
``batch()`` — with or without a fail-stopped node, on guarded and
unguarded clients, returns the same values and errors, reaches the same
clock and counts the same metrics traced or untraced, with an injector
whose plan never fires or with none; and traces the same JSONL bytes with
the silent injector as without it.

Every charge is also held to an independent transcription of section 3.1's
price and of the window rule, on a traced unguarded and a traced guarded
client, every row with forward hops and payloads past the inline packet.

Under the ERROR indirection policy the ``PendingIndirection`` a refusal
carries is built only when the memory node refuses; one test per indirect
row pins every field of it to what the eagerly-built refusal carried.
"""

import io
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, IndirectionPolicy
from repro.alloc import on_node
from repro.fabric import Client, FaultPlan
from repro.fabric.errors import FabricError, RemoteIndirectionError
from repro.fabric.ops import FAR_OPS
from repro.fabric.wire import WORD
from repro.obs import Tracer
from repro.obs.export import write_jsonl

NODE_SIZE = 1 << 20
BUFFER = 512
# A word, a record, and past the 256 B inline packet (the payload term).
LENGTHS = (WORD, 24, 300)


def _cluster(policy=IndirectionPolicy.FORWARD):
    """Two nodes: buffers ``a``/``b`` and target ``near`` on node 0, target
    ``far`` on node 1, and ``ptrs`` on node 0 pointing at ``near``, ``far``."""
    cluster = Cluster(node_count=2, node_size=NODE_SIZE, indirection_policy=policy)
    alloc = cluster.allocator
    memory = {
        name: alloc.alloc(BUFFER, on_node(node))
        for name, node in (("a", 0), ("b", 0), ("near", 0), ("far", 1))
    }
    memory["ptrs"] = alloc.alloc_words(2, on_node(0))
    seeder = cluster.client(retry_policy=None, breaker_policy=None)
    seeder.write_u64(memory["ptrs"], memory["near"])
    seeder.write_u64(memory["ptrs"] + WORD, memory["far"])
    location = cluster.fabric.locate(memory["b"])
    memory["b_phys"] = (location.node, location.offset)
    return cluster, memory


def _data(s):
    return bytes([s + 1]) * LENGTHS[s]


# row -> args from the memory map, ``k`` picking the near or far pointer /
# index and ``s`` the transfer size. The pointer-bump rows add 0, so every
# pointer stays put and any sequence of rows stays in bounds.
ARGS = {
    "read": lambda m, k, s: (m["a"], LENGTHS[s]),
    "write": lambda m, k, s: (m["a"], _data(s)),
    "read_u64": lambda m, k, s: (m["a"] + k * WORD,),
    "write_u64": lambda m, k, s: (m["a"] + k * WORD, s + 7),
    "write_phys": lambda m, k, s: (*m["b_phys"], _data(s)),
    "cas": lambda m, k, s: (m["a"], 0, s + 1),
    "faa": lambda m, k, s: (m["a"] + k * WORD, s + 1),
    "swap": lambda m, k, s: (m["a"] + k * WORD, s),
    "load0": lambda m, k, s: (m["ptrs"] + k * WORD, LENGTHS[s]),
    "store0": lambda m, k, s: (m["ptrs"] + k * WORD, _data(s)),
    "load1": lambda m, k, s: (m["ptrs"], k * WORD, LENGTHS[s]),
    "store1": lambda m, k, s: (m["ptrs"], k * WORD, _data(s)),
    "load2": lambda m, k, s: (m["ptrs"] + k * WORD, WORD, LENGTHS[s]),
    "store2": lambda m, k, s: (m["ptrs"] + k * WORD, WORD, _data(s)),
    "faai": lambda m, k, s: (m["ptrs"] + k * WORD, 0, LENGTHS[s]),
    "saai": lambda m, k, s: (m["ptrs"] + k * WORD, 0, _data(s)),
    "fsaai": lambda m, k, s: (m["ptrs"] + k * WORD, 0, _data(s)),
    "add0": lambda m, k, s: (m["ptrs"] + k * WORD, s + 1),
    "add1": lambda m, k, s: (m["ptrs"], s + 1, k * WORD),
    "add2": lambda m, k, s: (m["ptrs"] + k * WORD, s + 1, WORD),
    "rscatter": lambda m, k, s: (m["a"], [WORD, LENGTHS[s]]),
    "rgather": lambda m, k, s: ([(m["a"], WORD), (m["far"], LENGTHS[s])],),
    "wscatter": lambda m, k, s: ([(m["b"], WORD), (m["far"], LENGTHS[s])], b"w" * WORD + _data(s)),
    "wgather": lambda m, k, s: (m["b"], [b"g" * WORD, _data(s)]),
}


def test_every_row_has_args():
    assert set(ARGS) == set(FAR_OPS)


def _outcome(call, *args):
    """What one step shows: its value, or its error's type and message."""
    try:
        return call(*args)
    except FabricError as err:
        return type(err).__name__, str(err)


def _run(steps, *, qp_depth, guarded, failed, traced, injected):
    """Run ``steps`` on a fresh cluster (node 1, which holds ``far``,
    fail-stopped if ``failed``); everything the simulated world shows."""
    Client.reset_ids()  # client ids name trace lanes and seed retry jitter
    cluster, memory = _cluster()
    if failed:
        cluster.fabric.fail_node(1)
    if injected:
        cluster.inject_faults(plan=FaultPlan())
    policies = {} if guarded else {"retry_policy": None, "breaker_policy": None}
    client = cluster.client(qp_depth=qp_depth, **policies)
    tracer = Tracer().attach(client) if traced else None
    values, futures = [], []
    with client.trace("run"):
        batch = None  # consecutive "batch" steps share one batch() scope
        for mode, name, k, s in steps:
            if mode == "batch" and batch is None:
                batch = ExitStack()
                batch.enter_context(client.batch())
            elif mode != "batch" and batch is not None:
                batch.close()
                batch = None
            args = ARGS[name](memory, k, s)
            if mode == "submit":
                futures.append(client.submit(name, *args))
            else:
                values.append(_outcome(getattr(client, name), *args))
        if batch is not None:
            batch.close()
    client.cq.wait_all()
    values.extend(_outcome(future.result) for future in futures)
    jsonl = io.StringIO()
    if tracer is not None:
        write_jsonl(jsonl, tracer)
    return values, client.clock.now_ns, client.metrics.as_dict(), jsonl.getvalue()


STEPS = st.lists(
    st.tuples(
        st.sampled_from(("sync", "submit", "batch")),
        st.sampled_from(sorted(FAR_OPS)),
        st.integers(0, 1),
        st.integers(0, len(LENGTHS) - 1),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    steps=STEPS,
    qp_depth=st.sampled_from((1, 2, 16)),
    guarded=st.booleans(),
    failed=st.booleans(),
)
def test_no_observer_or_silent_injector_moves_the_simulated_world(
    steps, qp_depth, guarded, failed
):
    config = {"qp_depth": qp_depth, "guarded": guarded, "failed": failed}
    runs = {
        (traced, injected): _run(steps, traced=traced, injected=injected, **config)
        for traced in (False, True)
        for injected in (False, True)
    }
    bare = runs[False, False]
    for (traced, injected), run in runs.items():
        assert run[:3] == bare[:3], f"traced={traced} injected={injected}"
    assert runs[True, True] == runs[True, False]  # the trace bytes too
    assert failed or bare[1] > 0  # the sequence charged something


def _calls(memory):
    """Every row with each pointer (the far one forwards under FORWARD) and
    each size (300 B is past the inline packet)."""
    return [
        (name, ARGS[name](memory, k, s))
        for name in FAR_OPS
        for k in (0, 1)
        for s in range(len(LENGTHS))
    ]


def _clock_after_every_row(client, memory):
    """Each call synchronously, then all of them submitted in one window."""
    for name, args in _calls(memory):
        getattr(client, name)(*args)
    with client.batch():
        for name, args in _calls(memory):
            client.submit(name, *args, signaled=False)
    return client.clock.now_ns


def _far_access_ns(nbytes, hops):
    """Section 3.1's price of one far access, transcribed from the cost model
    rather than imported: 1 000 ns per round trip, 1 ns per byte past a 256 B
    inline packet, 300 ns per forward hop."""
    return 1_000.0 + max(0, nbytes - 256) * 1.0 + hops * 300.0


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
def test_every_charge_is_the_cost_formula_and_every_window_its_members(guarded):
    """Every row's ``far_access.charge_ns`` is the formula over the event's
    own bytes and hops, and every ``window`` event charges ``max + (n - 1) *
    50 ns`` (the issue slot) of its members, with their sum as ``serial_ns``
    and the difference as ``saved_ns``; the windows are the whole clock, on a
    traced client and on a bare one alike."""
    Client.reset_ids()
    cluster, memory = _cluster()
    policies = {} if guarded else {"retry_policy": None, "breaker_policy": None}
    client = cluster.client(**policies)
    tracer = Tracer().attach(client)
    now = _clock_after_every_row(client, memory)
    accesses = [event.data for event in tracer.events_by_kind("far_access")]
    assert len(accesses) == 2 * len(_calls(memory))
    assert any("forward_hops" in data for data in accesses)
    for data in accesses:
        nbytes = data.get("nbytes_read", 0) + data.get("nbytes_written", 0)
        assert data["charge_ns"] == _far_access_ns(nbytes, data.get("forward_hops", 0)), data
    windows = [event.data for event in tracer.events_by_kind("window")]
    assert max(data["n"] for data in windows) == len(_calls(memory))
    for data in windows:
        charges = [op["charge_ns"] for op in data["ops"]]
        assert data["n"] == len(charges)
        assert data["charged_ns"] == max(charges) + (len(charges) - 1) * 50.0
        assert data["serial_ns"] == sum(charges)
        assert data["saved_ns"] == data["serial_ns"] - data["charged_ns"]
    assert now == sum(data["charged_ns"] for data in windows)
    Client.reset_ids()
    cluster, memory = _cluster()
    bare = cluster.client(retry_policy=None, breaker_policy=None)
    assert _clock_after_every_row(bare, memory) == now


DATA = b"v" * 24

# Indirect row -> (fabric call on the far pointer ``p`` / pointer array ``q``, the
# refusal's (kind, target - far, length, payload, delta)); the pointer
# dereferenced is always ``far``. Recorded from the eagerly-built refusal.
REFUSED = {
    "load0": (lambda c, p, q: c.load0(p, 24), ("read", 0, 24, None, 0)),
    "store0": (lambda c, p, q: c.store0(p, DATA), ("write", 0, 0, DATA, 0)),
    "load1": (lambda c, p, q: c.load1(q, WORD, 24), ("read", 0, 24, None, 0)),
    "store1": (lambda c, p, q: c.store1(q, WORD, DATA), ("write", 0, 0, DATA, 0)),
    "load2": (lambda c, p, q: c.load2(p, 16, 24), ("read", 16, 24, None, 0)),
    "store2": (lambda c, p, q: c.store2(p, 16, DATA), ("write", 16, 0, DATA, 0)),
    "faai": (lambda c, p, q: c.faai(p, WORD, 24), ("read", 0, 24, None, 0)),
    "saai": (lambda c, p, q: c.saai(p, WORD, DATA), ("write", 0, 0, DATA, 0)),
    "fsaai": (lambda c, p, q: c.fsaai(p, WORD, DATA), ("swap", 0, 24, DATA, 0)),
    "add0": (lambda c, p, q: c.add0(p, 5), ("add", 0, 0, None, 5)),
    "add1": (lambda c, p, q: c.add1(q, 5, WORD), ("add", 0, 0, None, 5)),
    "add2": (lambda c, p, q: c.add2(p, 5, 16), ("add", 16, 0, None, 5)),
}


def test_every_indirect_row_is_refused_here():
    assert set(REFUSED) == {name for name, row in FAR_OPS.items() if row.indirect}


@pytest.mark.parametrize("op", sorted(REFUSED))
def test_error_policy_refusal_carries_its_pending_indirection(op):
    """The refusal as the memory side raises it (the client always completes
    it; what that costs is pinned per row in test_pipeline.py)."""
    cluster, memory = _cluster(IndirectionPolicy.ERROR)
    fabric = cluster.fabric
    call, (kind, offset, length, payload, delta) = REFUSED[op]
    far = memory["far"]
    before = fabric.read(far, BUFFER).value
    with pytest.raises(RemoteIndirectionError) as refused:
        call(fabric, memory["ptrs"] + WORD, memory["ptrs"])
    assert (refused.value.home_node, refused.value.target_node) == (0, 1)
    pending = refused.value.pending
    assert pending.kind == kind
    assert pending.target == far + offset
    assert pending.length == length
    assert pending.payload == payload
    assert pending.delta == delta
    assert pending.pointer == far
    assert fabric.read(far, BUFFER).value == before  # refused before any data moved
