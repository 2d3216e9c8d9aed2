"""A phase is the unsignaled submit loop it replaces, without the futures.

``Client.phase(op, calls)`` posts one window entry per call through
``Client._post`` and rings one ``reap`` doorbell at the end if its entries
are still parked. The oracle below is the loop it replaced in the commit
protocol: ``submit(..., signaled=False)`` per call, then ``result()`` on
each in order. For every queue-pair depth, phase size, batch scope and
tracer setting the two must return the same outcomes, reach the same clock,
count the same metrics and trace the same JSONL bytes (``window`` and
``stall`` events included) — and so must a mid-phase timeout, a crash at a
given post, and a phase issued from inside another op.
"""

import io

import pytest

from repro import Cluster
from repro.fabric import Client, FaultPlan
from repro.fabric.errors import AddressError, ClientDeadError, FabricError, FarTimeoutError
from repro.obs import Tracer
from repro.obs.export import write_jsonl

NODE_SIZE = 1 << 20
SLOT = 512  # one read per slot; lengths cross the 256 B inline packet


def submit_loop(client, op, calls, *, capture=False):
    """The oracle: one unsignaled submission per call, then each reaped in
    order into its value — or its :class:`FabricError` when ``capture`` —
    raising the first other failure."""
    outcomes = [client.submit(op, *args, signaled=False) for args in calls]
    for index, future in enumerate(outcomes):
        try:
            outcomes[index] = future.result()
        except FabricError as err:
            if not capture:
                raise
            outcomes[index] = err
    return outcomes


def phase(client, op, calls, *, capture=False):
    return client.phase(op, calls, capture=capture)


def _setup(n, *, qp_depth, traced, plan=None, **policies):
    """A fresh cluster whose slots hold distinct bytes (written by another
    client, before any fault plan counts accesses) and the client under test."""
    Client.reset_ids()  # ids name trace lanes and seed retry jitter
    cluster = Cluster(node_count=2, node_size=NODE_SIZE)
    base = cluster.allocator.alloc(SLOT * max(n, 1))
    seeder = cluster.client()
    for index in range(n):
        seeder.write(base + index * SLOT, bytes([index + 1]) * SLOT)
    if plan is not None:
        cluster.inject_faults(seed=3, plan=plan)
    client = cluster.client(qp_depth=qp_depth, **policies)
    tracer = Tracer().attach(client) if traced else None
    calls = [(base + index * SLOT, 8 + 37 * index % 300) for index in range(n)]
    return client, tracer, base, calls


def _shown(outcomes):
    return [
        (type(o).__name__, str(o)) if isinstance(o, BaseException) else o for o in outcomes
    ]


def _world(client, tracer):
    jsonl = io.StringIO()
    if tracer is not None:
        write_jsonl(jsonl, tracer)
    return client.clock.now_ns, client.metrics.as_dict(), jsonl.getvalue()


def _run(post, n, *, qp_depth, batched, traced):
    client, tracer, base, calls = _setup(n, qp_depth=qp_depth, traced=traced)
    with client.trace("run"):
        client.read_u64(base)  # the clock is not at zero
        # A signaled submission already parked: the phase's doorbell (or
        # an empty phase's lack of one) covers it too.
        earlier = client.submit("read_u64", base)
        if batched:
            with client.batch():
                outcomes = post(client, "read", calls)
        else:
            outcomes = post(client, "read", calls)
        parked = client.cq.outstanding()
        reaped = [future.result() for future in client.cq.wait_all()]
        earlier.result()
    return outcomes, parked, reaped, _world(client, tracer)


CASES = sorted(
    {(qp, n) for qp in (1, 2, 16) for n in (0, 1, qp - 1, qp, 2 * qp + 1)}
)


@pytest.mark.parametrize("qp_depth,n", CASES)
@pytest.mark.parametrize("batched", [False, True], ids=["open", "batched"])
@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
def test_phase_charges_what_the_submit_loop_charges(qp_depth, n, batched, traced):
    config = {"qp_depth": qp_depth, "batched": batched, "traced": traced}
    expected = _run(submit_loop, n, **config)
    assert _run(phase, n, **config) == expected
    outcomes = expected[0]
    assert len(outcomes) == n
    assert all(value == bytes([index + 1]) * len(value) for index, value in enumerate(outcomes))


def test_the_traced_phase_shows_its_stalls_and_its_doorbell():
    """What the equivalence above compares is there to compare: a phase of
    four at depth two, behind one parked submission, stalls twice and rings
    one ``reap`` for its last call."""
    _, _, _, (_, metrics, jsonl) = _run(phase, 4, qp_depth=2, batched=False, traced=True)
    assert jsonl.count('"kind": "stall"') == 2
    assert jsonl.count('"reason": "reap"') == 2  # the sync read, the phase
    assert metrics["pipeline_stalls"] == 2


def _faulted(post, *, capture, batched):
    """A five-call phase whose third call times out (no retry to absorb it)."""
    client, tracer, _, calls = _setup(
        5,
        qp_depth=16,
        traced=True,
        plan=FaultPlan().timeout_at(2),
        retry_policy=None,
        breaker_policy=None,
    )
    raised = None
    try:
        if batched:
            with client.batch():
                outcomes = post(client, "read", calls, capture=capture)
        else:
            outcomes = post(client, "read", calls, capture=capture)
    except FarTimeoutError as err:
        outcomes, raised = None, str(err)
    return outcomes and _shown(outcomes), raised, client.cq.outstanding(), _world(client, tracer)


@pytest.mark.parametrize("batched", [False, True], ids=["open", "batched"])
@pytest.mark.parametrize("capture", [False, True], ids=["raised", "captured"])
def test_a_mid_phase_timeout_lands_where_the_submit_loop_puts_it(capture, batched):
    expected = _faulted(submit_loop, capture=capture, batched=batched)
    got = _faulted(phase, capture=capture, batched=batched)
    assert got == expected
    outcomes, raised, parked, (clock, metrics, _) = got
    assert metrics["far_accesses"] == 4  # the timed-out read completed nothing
    # Every call posted, and the window is charged before anyone sees the error.
    assert metrics["pipeline_ops"] == 5 and parked == 0 and clock > 0
    if capture:
        assert raised is None and outcomes[2][0] == "FarTimeoutError"
        assert [type(o) for o in outcomes].count(bytes) == 4
    else:
        assert outcomes is None and raised


@pytest.mark.parametrize("capture", [False, True], ids=["raised", "captured"])
@pytest.mark.parametrize("post_at", [0, 1, 3])
def test_crash_after_inside_a_phase_stops_it_at_that_post(post_at, capture):
    """The crash is raised at its post, never captured as an outcome."""

    def crashed(post):
        client, tracer, _, calls = _setup(5, qp_depth=2, traced=True)
        client.crash_after(post_at)
        with pytest.raises(ClientDeadError):
            post(client, "read", calls, capture=capture)
        return _world(client, tracer)

    world = crashed(phase)
    assert world == crashed(submit_loop)
    assert world[1]["pipeline_ops"] == world[1]["far_accesses"] == post_at


def test_a_phase_inside_an_op_folds_into_it(monkeypatch):
    """Issued while another op executes (here from a fabric hook), a phase
    posts nothing of its own, like the nested submissions it replaces: its
    charges land on the enclosing entry and its errors stay in place."""

    def nested(post):
        client, tracer, base, calls = _setup(2, qp_depth=16, traced=True)
        seen = []
        write_word = client.fabric.write_word

        def hooked(*args):
            seen.append(_shown(post(client, "read", calls + [(1 << 60, 8)], capture=True)))
            return write_word(*args)

        monkeypatch.setattr(client.fabric, "write_word", hooked)
        parked = client.submit("read_u64", base)  # the phase must not ring it
        client.write_u64(base, 1)
        monkeypatch.undo()
        return seen, parked.result(), _world(client, tracer)

    seen, value, world = nested(phase)
    assert (seen, value, world) == nested(submit_loop)
    assert seen[0][2][0] == AddressError.__name__
    metrics = world[1]
    # The parked read and the write, in one window; two reads rode the write.
    assert metrics["pipeline_ops"] == 2 and metrics["pipeline_flushes"] == 1
    assert metrics["far_accesses"] == 4


def test_unknown_op_is_rejected_before_anything_posts():
    client, _, _, _ = _setup(0, qp_depth=16, traced=False)
    with pytest.raises(ValueError):
        client.phase("reed", [(0, 8)])
    assert client.metrics.pipeline_ops == 0
