"""Unit tests for the submission/completion pipeline: ``Client.submit``,
:class:`FarFuture`, the :class:`CompletionQueue`, QP-depth bounds, fence
ordering, nested batches, and retry interaction with overlap windows —
plus the table-driven checks that every row of ``repro.fabric.ops`` has one
definition whose synchronous, submitted and batched forms agree."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import repro
from repro import Cluster
from repro.alloc import on_node
from repro.analysis import fmlint
from repro.fabric import Client, Fabric, FaultPlan, IndirectionPolicy
from repro.fabric import client as client_module
from repro.fabric.errors import AddressError, ClientDeadError
from repro.fabric.ops import FAR_OPS, WORD_OPS
from repro.fabric.wire import WORD
from repro.obs import Tracer

from ..pins import counters, load, verify

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


@pytest.fixture
def client(cluster):
    return cluster.client()


class TestSubmit:
    def test_submit_returns_future_with_value(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        client.write_u64(a, 7)
        future = client.submit("read_u64", a)
        assert future.result() == 7

    def test_latency_defers_until_completion(self, cluster, client):
        """Work is counted at submit time; latency is charged at flush."""
        a = cluster.allocator.alloc_words(1)
        future = client.submit("read_u64", a)
        assert client.metrics.far_accesses == 1
        assert not future.done()
        assert client.clock.now_ns == 0
        future.result()
        assert future.done()
        assert client.clock.now_ns == pytest.approx(client.cost_model.far_ns)

    def test_result_completes_window_peers_together(self, cluster, client):
        """Completing one future flushes its whole window, like draining
        a hardware CQ: peers land at the same simulated instant."""
        a = cluster.allocator.alloc_words(4)
        futures = [client.submit("read_u64", a + i * WORD) for i in range(4)]
        futures[0].result()
        assert all(f.done() for f in futures)
        assert len({f.completed_at_ns for f in futures}) == 1

    def test_window_charges_max_plus_issue_slots(self, cluster, client):
        a = cluster.allocator.alloc_words(8)
        model = client.cost_model
        for i in range(8):
            client.submit("write_u64", a + i * WORD, i)
        client.cq.wait_all()
        # One overlapped window (max latency + 7 doorbell slots), plus
        # the near-memory cost of reaping 8 completions from the CQ.
        assert client.clock.now_ns == pytest.approx(
            model.far_ns + 7 * model.issue_ns + 8 * model.near_ns
        )
        assert client.metrics.far_accesses == 8  # overlap never hides work

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ValueError):
            client.submit("frobnicate", 0)

    def test_failure_is_captured_not_raised_at_submit(self, client):
        future = client.submit("read_u64", 1 << 60)
        error = future.exception()
        assert isinstance(error, AddressError)
        with pytest.raises(AddressError):
            future.result()

    def test_submit_is_eager(self, cluster, client):
        """The store is visible to other clients before the window
        flushes (the simulator executes at submit time; only the
        submitter's latency accounting defers)."""
        a = cluster.allocator.alloc_words(1)
        future = client.submit("write_u64", a, 42)
        other = Cluster.client(cluster, "observer")
        assert other.read_u64(a) == 42
        future.result()


class TestCompletionQueue:
    def test_signaled_completions_land_in_cq(self, cluster, client):
        a = cluster.allocator.alloc_words(2)
        f1 = client.submit("read_u64", a)
        f2 = client.submit("read_u64", a + WORD)
        assert client.cq.outstanding() == 2
        assert client.cq.ready() == 0
        client.fence()
        assert client.cq.outstanding() == 0
        assert client.cq.ready() == 2
        assert client.cq.poll() == [f1, f2]
        assert client.cq.ready() == 0

    def test_unsignaled_submissions_skip_the_cq(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        future = client.submit("read_u64", a, signaled=False)
        client.fence()
        assert client.cq.ready() == 0
        assert future.done()

    def test_direct_reap_consumes_the_completion(self, cluster, client):
        """A future whose result is taken in hand never shows up in a
        later poll (no double delivery)."""
        a = cluster.allocator.alloc_words(2)
        f1 = client.submit("read_u64", a)
        f2 = client.submit("read_u64", a + WORD)
        f1.result()  # flushes the window, reaps f1 inline
        assert client.cq.poll() == [f2]

    def test_wait_all_flushes_and_reaps(self, cluster, client):
        a = cluster.allocator.alloc_words(4)
        futures = [client.submit("read_u64", a + i * WORD) for i in range(4)]
        reaped = client.cq.wait_all()
        assert reaped == futures
        assert client.cq.outstanding() == 0

    def test_poll_costs_near_memory_only(self, cluster, client):
        a = cluster.allocator.alloc_words(2)
        client.submit("read_u64", a)
        client.submit("read_u64", a + WORD)
        client.fence()
        far_before = client.metrics.far_accesses
        near_before = client.metrics.near_accesses
        client.cq.poll()
        assert client.metrics.far_accesses == far_before
        assert client.metrics.near_accesses == near_before + 2

    def test_sync_shims_never_pollute_the_cq(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        client.write_u64(a, 1)
        client.read_u64(a)
        client.cas(a, 1, 2)
        assert client.cq.ready() == 0


class TestQpDepth:
    def test_qp_depth_validated(self, cluster):
        with pytest.raises(ValueError):
            cluster.client(qp_depth=0)

    def test_window_auto_flushes_at_qp_depth(self, cluster):
        c = cluster.client(qp_depth=4)
        a = cluster.allocator.alloc_words(8)
        futures = [c.submit("read_u64", a + i * WORD) for i in range(4)]
        # The fourth submission hit the depth bound: stall + flush.
        assert all(f.done() for f in futures)
        assert c.cq.outstanding() == 0
        assert c.metrics.pipeline_stalls == 1

    def test_depth_one_degenerates_to_serial(self, cluster):
        c = cluster.client(qp_depth=1)
        a = cluster.allocator.alloc_words(4)
        for i in range(4):
            c.submit("read_u64", a + i * WORD)
        assert c.clock.now_ns == pytest.approx(4 * c.cost_model.far_ns)

    def test_batch_scope_pins_window_past_qp_depth(self, cluster):
        c = cluster.client(qp_depth=2)
        a = cluster.allocator.alloc_words(8)
        model = c.cost_model
        with c.batch():
            for i in range(8):
                c.submit("write_u64", a + i * WORD, i, signaled=False)
        assert c.metrics.pipeline_stalls == 0
        assert c.clock.now_ns == pytest.approx(model.far_ns + 7 * model.issue_ns)


class TestPipelineMetrics:
    def test_depth_and_overlap_counters(self, cluster, client):
        a = cluster.allocator.alloc_words(8)
        model = client.cost_model
        for i in range(8):
            client.submit("read_u64", a + i * WORD, signaled=False)
        client.fence()
        delta = client.metrics
        assert delta.pipeline_ops == 8
        assert delta.pipeline_flushes == 1
        assert delta.avg_pipeline_depth() == pytest.approx(8.0)
        charged = model.far_ns + 7 * model.issue_ns
        serial = 8 * model.far_ns
        assert delta.pipeline_charged_ns == int(charged)
        assert delta.overlap_saved_ns == int(serial - charged)
        assert delta.overlap_efficiency() == pytest.approx(
            (serial - charged) / serial
        )

    def test_serial_shims_report_zero_overlap(self, cluster, client):
        a = cluster.allocator.alloc_words(4)
        for i in range(4):
            client.read_u64(a + i * WORD)
        assert client.metrics.avg_pipeline_depth() == pytest.approx(1.0)
        assert client.metrics.overlap_saved_ns == 0
        assert client.metrics.overlap_efficiency() == 0.0


class TestFenceOrdering:
    def test_fence_completes_outstanding_submissions(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        future = client.submit("write_u64", a, 9)
        assert not future.done()
        client.fence()
        assert future.done()
        assert client.metrics.custom["fences"] == 1

    def test_fence_orders_submission_groups(self, cluster, client):
        """Ops separated by a fence occupy separate windows: two full
        round trips, and completion times observe the fence order."""
        a = cluster.allocator.alloc_words(2)
        model = client.cost_model
        first = client.submit("write_u64", a, 1)
        client.fence()
        second = client.submit("write_u64", a + WORD, 2)
        client.fence()
        assert client.clock.now_ns == pytest.approx(2 * model.far_ns)
        assert first.completed_at_ns < second.completed_at_ns

    def test_fence_on_empty_window_is_free(self, client):
        client.fence()
        assert client.clock.now_ns == 0
        assert client.metrics.pipeline_flushes == 0


class TestNestedBatch:
    def test_nested_batches_flatten_to_one_window(self, cluster, client):
        a = cluster.allocator.alloc_words(4)
        model = client.cost_model
        with client.batch():
            client.write_u64(a, 0)
            with client.batch():
                client.write_u64(a + WORD, 1)
                with client.batch():
                    client.write_u64(a + 2 * WORD, 2)
            client.write_u64(a + 3 * WORD, 3)
        # One flat window of four ops, flushed once at the outermost exit.
        assert client.metrics.pipeline_flushes == 1
        assert client.metrics.avg_pipeline_depth() == pytest.approx(4.0)
        assert client.clock.now_ns == pytest.approx(
            model.far_ns + 3 * model.issue_ns
        )

    def test_inner_exit_does_not_flush(self, cluster, client):
        a = cluster.allocator.alloc_words(2)
        with client.batch():
            with client.batch():
                future = client.submit("read_u64", a)
            assert not future.done()  # inner scope exit deferred
            client.submit("read_u64", a + WORD, signaled=False)
        assert future.done()

    def test_values_stay_eager_inside_nested_batch(self, cluster, client):
        a = cluster.allocator.alloc_words(1)
        client.write_u64(a, 5)
        with client.batch():
            with client.batch():
                assert client.read_u64(a) == 5  # value now, latency later
            assert client.faa(a, 1) == 5
        assert client.read_u64(a) == 6


class TestRetryOverlap:
    def test_backoff_folds_into_the_window(self, cluster):
        """Regression: a retried op inside a ``batch()`` window
        contributes its whole recovery time (timeout + backoff + retry)
        as *its* charge — overlapped with its peers via max(), not
        serialized on top of the window."""
        a = cluster.allocator.alloc_words(8)
        cluster.inject_faults(seed=3, plan=FaultPlan().timeout_at(0))
        c = cluster.client()
        model = c.cost_model
        with c.batch():
            futures = [c.submit("read_u64", a + i * WORD) for i in range(8)]
        assert c.metrics.retries == 1
        charges = [f.charge_ns for f in futures]
        # The faulted op's charge carries the recovery; peers stay clean.
        assert max(charges) > model.timeout_ns
        assert sorted(charges)[-2] == pytest.approx(model.far_ns)
        # Wall-clock is the overlapped window, not the serial sum.
        expected = max(charges) + (len(charges) - 1) * model.issue_ns
        assert c.clock.now_ns == pytest.approx(expected)
        assert c.clock.now_ns < sum(charges)

    def test_clean_peers_unaffected_by_neighbor_retry(self, cluster):
        a = cluster.allocator.alloc_words(4)
        cluster.inject_faults(seed=3, plan=FaultPlan().timeout_at(1))
        c = cluster.client()
        with c.batch():
            futures = [c.submit("read_u64", a + i * WORD) for i in range(4)]
        values = [f.result() for f in futures]
        assert values == [0, 0, 0, 0]
        assert c.metrics.far_accesses == 4  # retries re-count nothing


class TestCrash:
    def test_crash_fails_outstanding_futures(self, cluster):
        c = cluster.client()
        a = cluster.allocator.alloc_words(2)
        f1 = c.submit("read_u64", a)
        f2 = c.submit("read_u64", a + WORD)
        c.crash()
        assert f1.done() and f2.done()
        with pytest.raises(ClientDeadError):
            f1.result()
        assert isinstance(f2.exception(), ClientDeadError)
        assert c.cq.ready() == 0

    def test_dead_client_rejects_submissions(self, cluster):
        c = cluster.client()
        c.crash()
        with pytest.raises(ClientDeadError):
            c.submit("read_u64", 0)


# ---------------------------------------------------------------------------
# The op table (repro.fabric.ops): one definition per far op
# ---------------------------------------------------------------------------

PAYLOAD = b"p" * 24

# Row name -> argument builder over the scenario's memory map (see
# _scenario). A new row in FAR_OPS fails here until it has arguments, so
# every row is exercised by the equivalence test below.
ARGS = {
    "read": lambda m: (m["a"], 64),
    "write": lambda m: (m["a"], PAYLOAD),
    "read_u64": lambda m: (m["a"],),
    "write_u64": lambda m: (m["a"], 7),
    "write_phys": lambda m: (*m["phys"], PAYLOAD),
    "cas": lambda m: (m["a"], 5, 6),
    "faa": lambda m: (m["a"], 3),
    "swap": lambda m: (m["a"], 9),
    "load0": lambda m: (m["p"], 24),
    "store0": lambda m: (m["p"], PAYLOAD),
    "load1": lambda m: (m["p"] - WORD, WORD, 24),
    "store1": lambda m: (m["p"] - WORD, WORD, PAYLOAD),
    "load2": lambda m: (m["p"], WORD, 24),
    "store2": lambda m: (m["p"], WORD, PAYLOAD),
    "faai": lambda m: (m["p"], WORD, 24),
    "saai": lambda m: (m["p"], WORD, PAYLOAD),
    "fsaai": lambda m: (m["p"], WORD, PAYLOAD),
    "add0": lambda m: (m["p"], 2),
    "add1": lambda m: (m["p"] - WORD, 2, WORD),
    "add2": lambda m: (m["p"], 2, WORD),
    "rscatter": lambda m: (m["a"], [8, 16]),
    "rgather": lambda m: ([(m["a"], 8), (m["b"], 16)],),
    "wscatter": lambda m: ([(m["a"], 8), (m["b"], 16)], PAYLOAD),
    "wgather": lambda m: (m["a"], [b"x" * 8, b"y" * 16]),
}

POLICIES = [IndirectionPolicy.FORWARD, IndirectionPolicy.ERROR]


def _scenario(policy, probe=None):
    """A fresh two-node cluster, a client (made by ``probe`` if given), and a
    memory map: plain buffers ``a``/``b`` and a pointer cell ``p`` on node 0
    (``p - WORD`` is valid too, for the indexed forms) pointing at ``t`` on
    node 1 — so under the ERROR policy every indirect op is refused and
    completed by the client."""
    Client.reset_ids()
    cluster = Cluster(node_count=2, node_size=NODE_SIZE, indirection_policy=policy)
    alloc = cluster.allocator
    memory = {
        "a": alloc.alloc(64, on_node(0)),
        "b": alloc.alloc(64, on_node(0)),
        "p": alloc.alloc_words(2, on_node(0)) + WORD,
        "t": alloc.alloc(64, on_node(1)),
    }
    location = cluster.fabric.locate(memory["b"])
    memory["phys"] = (location.node, location.offset)
    client = cluster.client() if probe is None else probe.client(cluster)
    client.write_u64(memory["a"], 5)
    client.write_u64(memory["p"], memory["t"])
    return cluster, client, memory


def _submitted(client, name, args):
    start_ns = client.clock.now_ns
    future = client.submit(name, *args)
    assert not future.done() and client.clock.now_ns == start_ns
    return future.result()


def _batched(client, name, args):
    start_ns = client.clock.now_ns
    with client.batch():
        value = getattr(client, name)(*args)
        assert client.clock.now_ns == start_ns  # returned uncharged
    return value


#: The three ways to issue one op; each must cost what the table pins.
FORMS = {
    "sync": lambda client, name, args: getattr(client, name)(*args),
    "submit": _submitted,
    "batch": _batched,
}
KINDS = ("far_access",)


def _policy_label(name, policy):
    """A row that dereferences no pointer costs the same under either
    policy: its one pinned call is labelled "any"."""
    return policy.name if FAR_OPS[name].indirect else "any"


def _call(name, policy, form="sync"):
    """One call of row ``name`` on _scenario's map, issued in ``form``."""

    def scenario(probe):
        _, client, memory = _scenario(policy, probe)
        args = ARGS[name](memory)
        probe.act(_policy_label(name, policy), client, lambda: FORMS[form](client, name, args))

    return scenario


def _row(name):
    def scenario(probe):
        for policy in POLICIES if FAR_OPS[name].indirect else POLICIES[:1]:
            _call(name, policy)(probe)

    return scenario


#: Row -> policy (or "any") -> what one call costs on _scenario's map,
#: recorded before the op bodies shared one issue path. Under ERROR an
#: indirect op is the refused attempt (one WORD read at the home node) plus
#: the client's direct completion.
SCENARIOS = {name: _row(name) for name in FAR_OPS}

#: Known defect (ROADMAP): under ERROR a refused add is completed by a nested
#: faa that counts its own atomic, then the add row counts it again — two
#: atomic_ops for one add. Pinned as it is; the fix moves a Metrics counter,
#: so it lands on its own and flips test_a_refused_add_counts_two_atomics.
DOUBLE_COUNTED_ATOMIC = (("add0", "ERROR"), ("add1", "ERROR"), ("add2", "ERROR"))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
@pytest.mark.parametrize("name", list(FAR_OPS))
def test_sync_submit_and_batched_forms_agree(name, policy):
    """sync call == submit(name, ...).result() == sync call inside batch(),
    each untraced and traced: same value, same metrics, same clock once the
    scope has closed, same far_access events — what op_table.json recorded."""
    label = _policy_label(name, policy)
    pinned = {label: load("op_table")[name][label]}
    for form in FORMS:
        verify(_call(name, policy, form), KINDS, pinned)


def test_pins_cover_every_row():
    assert list(load("op_table")) == list(SCENARIOS)


def test_each_call_is_one_posting_and_one_doorbell():
    """Nested completion ops fold into the enclosing op."""
    for calls in load("op_table").values():
        for record in calls.values():
            assert counters(record)["pipeline_ops"] == counters(record)["pipeline_flushes"] == 1


def test_a_refused_add_counts_two_atomics():
    pins = load("op_table")
    for row, policy in DOUBLE_COUNTED_ATOMIC:
        assert counters(pins[row][policy])["atomic_ops"] == 2
        assert counters(pins[row]["FORWARD"])["atomic_ops"] == 1


class TestOpTable:
    def test_table_drives_dispatch(self):
        assert set(FAR_OPS) == set(ARGS)
        assert all(getattr(Client, name).__qualname__ == f"Client.{name}" for name in FAR_OPS)

    def test_each_op_is_defined_once_under_its_public_name(self):
        """Its row is an op's one definition: the class body defines no far
        op (the registration loop builds each from its row) and no twin."""
        tree = ast.parse(inspect.getsource(client_module))
        (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Client"]
        defs = [n.name for n in ast.walk(cls) if isinstance(n, ast.FunctionDef)]
        assert not set(defs) & set(FAR_OPS)
        assert not [name for name in defs if name.startswith("_op_")]

    @pytest.mark.parametrize("name", list(FAR_OPS))
    def test_sync_entry_is_a_plain_documented_function(self, name):
        """Each row has a plain, documented method under its name whose
        parameters are its ``Fabric`` method's, less the translation a
        guarded client hands on — as many as the row's test arguments."""
        entry = vars(Client)[name]
        row = FAR_OPS[name]
        assert inspect.isfunction(entry) and entry.__name__ == name and entry.__doc__
        fabric_params = inspect.signature(getattr(Fabric, row.fabric)).parameters
        params = list(inspect.signature(entry).parameters)
        assert params == [p for p in fabric_params if p not in ("segments", "location")]
        _, _, memory = _scenario(IndirectionPolicy.FORWARD)
        assert len(params) == 1 + len(ARGS[name](memory))  # self

    def test_each_entry_issues_its_rows_fabric_method(self, monkeypatch):
        """An op runs its row's ``Fabric`` method, looked up on the instance
        at call time (so a patched method is the one that runs), once, with
        the caller's arguments first."""
        for name, row in FAR_OPS.items():
            _, client, memory = _scenario(IndirectionPolicy.FORWARD)
            args = ARGS[name](memory)
            seen = []
            method = getattr(client.fabric, row.fabric)

            def recorded(*given, method=method, seen=seen):
                seen.append(given)
                return method(*given)

            monkeypatch.setattr(client.fabric, row.fabric, recorded)
            getattr(client, name)(*args)
            assert [given[: len(args)] for given in seen] == [args], name

    @pytest.mark.parametrize("guarded", [False, True], ids=["bare", "guarded"])
    def test_a_call_short_of_an_argument_is_a_type_error(self, guarded):
        """The translation a guarded client appends never takes the place
        of an argument the caller left out."""
        for name in FAR_OPS:
            cluster, client, memory = _scenario(IndirectionPolicy.FORWARD)
            if not guarded:
                client = cluster.client(retry_policy=None, breaker_policy=None)
            args = ARGS[name](memory)
            if len(args) > 1:
                with pytest.raises(TypeError):
                    getattr(client, name)(*args[:-1])

    @pytest.mark.parametrize("name", list(FAR_OPS))
    def test_each_virtual_row_fault_checks_once_with_its_tears_flag(self, name, monkeypatch):
        cluster, client, memory = _scenario(IndirectionPolicy.FORWARD)
        injector = cluster.inject_faults(plan=FaultPlan())
        seen = []
        before_access = injector.before_access

        def recorded(node, address, tears=False):
            seen.append(tears)
            return before_access(node, address, tears)

        monkeypatch.setattr(injector, "before_access", recorded)
        getattr(client, name)(*ARGS[name](memory))
        # A physical row has no virtual address: no fault rule can name its slot.
        row = FAR_OPS[name]
        assert seen == ([] if row.shape == "physical" else [row.tears])

    def test_keyword_arguments_still_reach_a_sync_op(self):
        _, client, memory = _scenario(IndirectionPolicy.FORWARD)
        assert client.read_u64(address=memory["a"]) == 5

    def test_word_conveniences_issue_table_ops(self):
        assert set(WORD_OPS.values()) <= set(FAR_OPS)
        assert all(inspect.isfunction(vars(Client)[name]) for name in WORD_OPS)

    @pytest.mark.parametrize("name", list(FAR_OPS))
    def test_row_shape_matches_its_fabric_methods_signature(self, name):
        """A guarded client hands a ``word`` op its ``location`` and a
        ``range`` / ``iovec`` op its ``segments``; the others take neither."""
        row = FAR_OPS[name]
        expected = {
            "word": {"location"},
            "range": {"segments"},
            "iovec": {"segments"},
            "indexed": set(),
            "physical": set(),
        }[row.shape]
        params = inspect.signature(getattr(Fabric, row.fabric)).parameters
        assert {"segments", "location"} & set(params) == expected, row

    def test_each_row_states_its_bytes_by_a_known_rule(self):
        """A direction moves a constant of 0 or a word, plus the one sized
        operand's size; a read's bytes come back only on a reading row."""
        kinds = {"length", "buffer", "lengths", "buffers", "iovec"}
        for row in FAR_OPS.values():
            assert {row.read_base, row.write_base} <= {0, WORD}, row
            assert len({row.read_size, row.write_size} - {""}) <= 1, row
            assert {row.read_size, row.write_size} <= kinds | {""}, row
            assert row.reads or not (row.read_base or row.read_size), row
            assert row.writes or not (row.write_base or row.write_size), row

    @pytest.mark.parametrize("name", [name for name, row in FAR_OPS.items() if row.tears])
    def test_only_plain_multi_word_writes_tear(self, name):
        row = FAR_OPS[name]
        assert row.writes and not (row.atomic or row.indirect), row
        assert row.shape in ("range", "iovec"), row

    def test_fm010_watches_only_atomic_rows(self):
        assert fmlint._TXN_VERSION_ATOMICS <= {op.name for op in FAR_OPS.values() if op.atomic}

    @pytest.mark.parametrize("module", ["repro.analysis.fmlint", "repro.fabric"])
    def test_either_side_imports_first_in_a_fresh_interpreter(self, module):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )


class TestSyncCallsAreWindowEntries:
    """The traps: a synchronous call obeys every window rule a submission
    does, without being a future."""

    def test_failed_sync_op_still_posts_and_flushes(self, cluster, client):
        with pytest.raises(AddressError):
            client.read_u64(1 << 60)
        assert client.metrics.pipeline_ops == 1
        assert client.metrics.pipeline_flushes == 1  # the 0.0 charge was posted
        assert client.clock.now_ns == 0
        assert client.cq.outstanding() == 0

    def test_depth_one_stalls_on_every_sync_op(self, cluster):
        c = cluster.client(qp_depth=1)
        tracer = Tracer()
        tracer.attach(c)
        a = cluster.allocator.alloc_words(4)
        for i in range(4):
            c.read_u64(a + i * WORD)
        assert c.metrics.pipeline_stalls == 4
        windows = tracer.events_by_kind("window")
        assert [e.data["reason"] for e in windows] == ["stall"] * 4
        assert c.clock.now_ns == pytest.approx(4 * c.cost_model.far_ns)

    def test_sync_op_filling_the_window_stalls_rather_than_reaps(self, cluster):
        c = cluster.client(qp_depth=4)
        tracer = Tracer()
        tracer.attach(c)
        a = cluster.allocator.alloc_words(4)
        futures = [c.submit("read_u64", a + i * WORD) for i in range(3)]
        c.read_u64(a + 3 * WORD)  # the 4th entry: the QP is full
        assert c.metrics.pipeline_stalls == 1
        assert c.metrics.pipeline_flushes == 1
        assert all(f.done() for f in futures)
        (window,) = tracer.events_by_kind("window")
        assert window.data["reason"] == "stall" and window.data["n"] == 4

    def test_sync_op_behind_submissions_flushes_them_together(self, cluster, client):
        a = cluster.allocator.alloc_words(3)
        model = client.cost_model
        futures = [client.submit("write_u64", a + i * WORD, i) for i in range(2)]
        assert client.read_u64(a + 2 * WORD) == 0
        assert client.metrics.pipeline_flushes == 1
        assert client.metrics.pipeline_stalls == 0
        assert client.clock.now_ns == pytest.approx(model.far_ns + 2 * model.issue_ns)
        assert {f.completed_at_ns for f in futures} == {client.clock.now_ns}
        assert client.cq.ready() == 2  # the submissions were signaled; the sync op is not

    def test_window_event_lists_its_ops_and_a_bare_charge_lands_at_once(self, cluster, client):
        tracer = Tracer()
        tracer.attach(client)
        a = cluster.allocator.alloc_words(2)
        with client.batch():
            client.read_u64(a)
            client._advance(40.0)  # outside any op: the clock, not the window
            assert client.clock.now_ns == 40.0
            assert client.cq.outstanding() == 1
            client.submit("write_u64", a + WORD, 1, signaled=False)
        (window,) = tracer.events_by_kind("window")
        assert window.data["n"] == 2
        assert [op["op"] for op in window.data["ops"]] == ["read_u64", "write_u64"]
        assert window.data["serial_ns"] == 2 * client.cost_model.far_ns
        assert window.data["start_ns"] == 40.0

    def test_nested_submission_folds_into_the_enclosing_op(self, cluster, client, monkeypatch):
        """A submission made while an op executes (here from a fabric hook)
        is part of that op: no posting of its own, complete on return, its
        error captured, its charge on the enclosing entry."""
        a = cluster.allocator.alloc_words(2)
        nested = []
        write_word = client.fabric.write_word

        def hooked(*args):
            nested.append(client.submit("read_u64", a + WORD))
            nested.append(client.submit("read_u64", 1 << 60))
            return write_word(*args)

        monkeypatch.setattr(client.fabric, "write_word", hooked)
        client.write_u64(a, 1)
        ok, failed = nested
        assert ok.done() and failed.done() and client.cq.ready() == 0
        assert ok.result() == 0
        assert isinstance(failed.exception(), AddressError)
        assert client.metrics.pipeline_ops == client.metrics.pipeline_flushes == 1
        assert client.metrics.far_accesses == 2
        assert client.clock.now_ns == pytest.approx(2 * client.cost_model.far_ns)

    def test_crash_drops_only_operations_with_the_window(self, cluster):
        c = cluster.client()
        a = cluster.allocator.alloc_words(1)
        with c.batch():
            c._advance(40.0)  # already on the clock: nothing of it is parked
            future = c.submit("read_u64", a)
            c.crash()
        assert isinstance(future.exception(), ClientDeadError)
        assert c.clock.now_ns == 40.0 and c.metrics.pipeline_flushes == 0
