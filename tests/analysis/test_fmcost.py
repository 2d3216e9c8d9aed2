"""fmcost tests: the cost lattice, the statement walk, interprocedural
summaries, the demand-driven solver (how much it evaluates, and that
neither root order nor demand time moves a summary), the repo-wide
certificate (paper claims C2/C4/C5 certified statically), the
certificate as a recording compared by ``recorded.moved``, and the
must-fail cases — the planted over-budget fixture, a
far access in a statement kind the walk once skipped, and an
artificially degraded hot path."""

import ast
import copy
import re
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import fmcost
from repro.analysis.fmcost import (
    TOP,
    ZERO,
    Cost,
    CostModel,
    analyze_paths,
    build_certificate,
    certificate_failures,
)
from repro.analysis.recorded import dumps, load, moved

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src" / "repro"
FIXTURE = Path(__file__).resolve().parent / "overbudget_fixture.py"


@pytest.fixture(scope="module")
def repo_model():
    return analyze_paths([str(SRC)])


@pytest.fixture(scope="module")
def repo_cert(repo_model):
    return build_certificate(repo_model)


def _analyze(tmp_path, source, structures):
    mod = tmp_path / "toy.py"
    mod.write_text(textwrap.dedent(source))
    model = analyze_paths([str(mod)], structures=structures)
    return {op: record for ops in build_certificate(model).values() for op, record in ops.items()}


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


class TestCostLattice:
    def test_add_is_componentwise(self):
        a = Cost(const=1, per_item=2)
        b = Cost(const=3, per_item=1)
        assert a.add(b) == Cost(const=4, per_item=3)

    def test_join_takes_the_upper_bound(self):
        a = Cost(const=1, per_item=2)
        b = Cost(const=3)
        assert a.join(b) == Cost(const=3, per_item=2)

    def test_top_absorbs(self):
        assert TOP.add(Cost(const=5)).unbounded
        assert Cost(const=5).join(TOP).unbounded
        assert TOP.times_n().unbounded

    def test_times_n_moves_constants_to_per_item(self):
        assert Cost(const=2).times_n() == Cost(per_item=2)
        # n iterations of per-item work is n^2 — outside the lattice.
        assert Cost(const=2, per_item=1).times_n().unbounded

    def test_times_const_scales(self):
        assert Cost(const=2).times_const(3) == Cost(const=6)

    def test_times_unbounded_is_top_only_with_cost(self):
        assert ZERO.times_unbounded() == ZERO
        assert Cost(const=1).times_unbounded().unbounded

    def test_retry_flag_survives_add_and_join(self):
        window = Cost(const=1, retry=True)
        assert window.add(Cost(const=1)).retry
        assert Cost(const=0).join(window).retry

    def test_render(self):
        assert ZERO.render() == "0"
        assert Cost(const=2).render() == "2"
        assert Cost(per_item=1).render() == "1*n"
        assert Cost(const=1, per_item=2).render() == "1 + 2*n"
        assert TOP.render() == "T"
        assert "retry" in Cost(const=1, retry=True).render()


# ---------------------------------------------------------------------------
# Path-shape inference on toy structures
# ---------------------------------------------------------------------------


TOY = "Toy"


class TestInference:
    def test_straight_line_counts_client_ops(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(2, ceiling=2)
                def pair(self, client: Client) -> int:
                    a = client.read_u64(self.addr)
                    b = client.read_u64(self.addr + 8)
                    return a + b
            """,
            [TOY],
        )
        assert records["pair"]["verdict"] == "ok"
        assert records["pair"]["inferred"]["fast"] == "2"
        assert records["pair"]["inferred"]["worst"] == "2"

    def test_write_phys_costs_one_access(self, tmp_path):
        # Regression: the intrinsic-cost table is fmlint.FAR_SYNC_OPS, whose
        # hand-kept copy omitted write_phys and so priced it at 0.
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=1)
                def stage(self, client: Client, chunk: bytes) -> None:
                    client.write_phys(self.node, self.offset, chunk)
            """,
            [TOY],
        )
        assert records["stage"]["verdict"] == "ok"
        assert records["stage"]["inferred"]["fast"] == "1"
        assert records["stage"]["inferred"]["worst"] == "1"

    def test_branches_min_versus_join(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=3)
                def lookup(self, client: Client, key: int) -> int:
                    if key in self.cache:
                        return client.read_u64(self.base + key)
                    else:
                        client.read_u64(self.base)
                        client.read_u64(self.base + 8)
                        return client.read_u64(self.base + key)
            """,
            [TOY],
        )
        assert records["lookup"]["verdict"] == "ok"
        assert records["lookup"]["inferred"]["fast"] == "1"
        assert records["lookup"]["inferred"]["worst"] == "3"

    def test_bulk_loop_gives_per_item(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, per_item=True)
                def write_all(self, client: Client, values: list) -> None:
                    for index, value in enumerate(values):
                        client.write_u64(self.base + index, value)
            """,
            [TOY],
        )
        assert records["write_all"]["verdict"] == "ok"
        assert records["write_all"]["inferred"]["fast"] == "1*n"
        assert records["write_all"]["inferred"]["worst"] == "1*n"

    def test_one_phase_over_the_items_gives_per_item(self, tmp_path):
        # Priced like submit() in a comprehension over its calls list.
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, per_item=True)
                def write_all(self, client: Client, values: list) -> None:
                    calls = [(self.base + 8 * index, value) for index, value in enumerate(values)]
                    client.phase("write_u64", calls)
            """,
            [TOY],
        )
        assert records["write_all"]["verdict"] == "ok"
        assert records["write_all"]["inferred"]["fast"] == "1*n"
        assert records["write_all"]["inferred"]["worst"] == "1*n"

    def test_accumulator_loops_are_not_double_charged(self, tmp_path):
        # A second pass over a *derived* accumulator must not inflate
        # the mandatory fast-path cost beyond one pass over n.
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, per_item=True)
                def stage(self, client: Client, values: list) -> None:
                    futures = []
                    for value in values:
                        futures.append(client.submit("write_u64", value))
                    for future in futures:
                        future.result()
            """,
            [TOY],
        )
        assert records["stage"]["inferred"]["fast"] == "1*n"
        assert records["stage"]["verdict"] == "ok"

    def test_unbounded_far_loop_is_top(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1)
                def spin(self, client: Client) -> None:
                    while client.read_u64(self.flag) == 0:
                        pass
            """,
            [TOY],
        )
        assert records["spin"]["inferred"]["worst"] == "T"
        # No ceiling declared, so T is allowed; the fast path is still 1
        # (while-condition evaluated once on immediate success).
        assert records["spin"]["verdict"] == "ok"

    def test_retry_directive_prices_one_attempt(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=1)
                def bump(self, client: Client) -> None:
                    while True:  # fmcost: retry
                        seen = client.cas(self.addr, 0, 1)
                        if seen == 0:
                            return
            """,
            [TOY],
        )
        assert records["bump"]["verdict"] == "ok"
        assert records["bump"]["inferred"]["retry_exempt"] is True
        assert "retry" in records["bump"]["inferred"]["worst"]

    def test_cost_directive_overrides_the_body(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(3, ceiling=3)
                def opaque(self, client: Client) -> None:  # fmcost: cost=3
                    getattr(client, self.op_name)(self.addr)
            """,
            [TOY],
        )
        assert records["opaque"]["verdict"] == "ok"
        assert records["opaque"]["inferred"]["fast"] == "3"

    def test_helper_summaries_propagate(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                def _head(self, client: Client) -> int:
                    return client.read_u64(self.head_addr)

                @far_budget(2, ceiling=2)
                def peek(self, client: Client) -> int:
                    head = self._head(client)
                    return client.read_u64(head)
            """,
            [TOY],
        )
        assert records["peek"]["verdict"] == "ok"
        assert records["peek"]["inferred"]["fast"] == "2"

    def test_recursion_widens_to_top(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1)
                def chase(self, client: Client, addr: int) -> int:
                    nxt = client.read_u64(addr)
                    if nxt == 0:
                        return addr
                    return self.chase(client, nxt)
            """,
            [TOY],
        )
        assert records["chase"]["inferred"]["worst"] == "T"

    def test_raising_paths_are_excluded_from_fast(self, tmp_path):
        # The sanitizer never records a raising call, so validation-error
        # branches do not pin the fast path.
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=1)
                def checked(self, client: Client, value: int) -> None:
                    if value < 0:
                        raise ValueError(value)
                    client.write_u64(self.addr, value)
            """,
            [TOY],
        )
        assert records["checked"]["verdict"] == "ok"
        assert records["checked"]["inferred"]["fast"] == "1"

    def test_missing_budget_is_flagged(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                def touch(self, client: Client) -> int:
                    return client.read_u64(self.addr)
            """,
            [TOY],
        )
        assert records["touch"]["verdict"] == "missing_budget"

    def test_private_and_near_methods_get_no_record(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                def _probe(self, client: Client) -> int:
                    return client.read_u64(self.addr)

                def label(self) -> str:
                    return self.name
            """,
            [TOY],
        )
        assert records == {}

    def test_match_is_an_if_chain_over_its_guards(self, tmp_path):
        # Subject 1; the guarded arm pays its guard (1) plus its body (1);
        # the cheapest way out is the unguarded ``case 0``.
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=3)
                def route(self, client: Client) -> int:
                    match client.read_u64(self.addr):
                        case 0:
                            return 0
                        case nxt if client.read_u64(nxt):
                            return client.read_u64(nxt + 8)
                    return -1
            """,
            [TOY],
        )
        assert records["route"]["verdict"] == "ok"
        assert records["route"]["inferred"]["fast"] == "1"
        assert records["route"]["inferred"]["worst"] == "3"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11 syntax")
    def test_except_star_is_a_try(self, tmp_path):
        # On the parent walk ``ast.TryStar`` fell through to "costs nothing".
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(0, ceiling=0)
                def guarded(self, client: Client) -> int:
                    try:
                        value = client.read_u64(self.addr)
                    except* ValueError:
                        client.write_u64(self.addr, 0)
                        value = 0
                    return value
            """,
            [TOY],
        )
        assert records["guarded"]["verdict"] == "regression"
        assert records["guarded"]["inferred"]["fast"] == "1"
        assert records["guarded"]["inferred"]["worst"] == "2"

    def test_unmodelled_statement_kind_is_top_unless_call_free(self, tmp_path):
        mod = tmp_path / "toy.py"
        mod.write_text("def near():\n    return 0\n")
        model = analyze_paths([str(mod)], structures=[TOY])
        walker = fmcost._FnEval(model, model.index.functions["toy:near"], frozenset())

        class FutureStmt(ast.stmt):
            _fields = ("value",)

        far = ast.parse("client.read_u64(0)", mode="eval").body
        assert walker._stmt(FutureStmt(value=far)).worst == TOP
        assert walker._stmt(FutureStmt(value=ast.Constant(0))).worst == ZERO
        assert walker._stmt(ast.Pass()).worst == ZERO

    def test_regression_and_slack_verdicts(self, tmp_path):
        records = _analyze(
            tmp_path,
            """
            class Toy:
                @far_budget(1, ceiling=2)
                def cheap_lie(self, client: Client) -> int:
                    client.read_u64(self.a)
                    return client.read_u64(self.b)

                @far_budget(2, ceiling=2)
                def generous(self, client: Client) -> int:
                    return client.read_u64(self.a)
            """,
            [TOY],
        )
        assert records["cheap_lie"]["verdict"] == "regression"
        assert records["generous"]["verdict"] == "slack"


# ---------------------------------------------------------------------------
# The solver: demand-driven, order-independent, and no busier than needed
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    """Every function evaluation (one ``_FnEval`` each), as ``(qualname, ctx)``."""
    made = []
    original = fmcost._FnEval.__init__

    def counting(self, model, info, ctx):
        made.append((info.qualname, ctx))
        original(self, model, info, ctx)

    monkeypatch.setattr(fmcost._FnEval, "__init__", counting)
    return made


def _certified_keys(model):
    return [(fn.qualname, model._default_ctx(fn)) for fn in model._certified_ops()]


class TestSolver:
    def test_repo_solve_evaluates_what_the_certificate_reads(self, evaluations):
        # 192 evaluations over 188 keys when written; the whole-repo pass
        # loop this replaced made 11 523 over 885. A pin on the work, not
        # on the seconds (same idea as test_translate_once.py).
        model = analyze_paths([str(SRC)])
        assert len(evaluations) <= 400
        assert len(model.summaries) <= 260
        assert set(_certified_keys(model)) <= set(model.summaries)

    def test_root_order_does_not_move_a_summary(self, repo_model, repo_cert):
        backward = CostModel().load_paths([str(SRC)])
        for fn in reversed(list(backward._certified_ops())):
            backward.summary_for(fn, backward._default_ctx(fn))
        assert backward.summaries == repo_model.summaries
        assert build_certificate(backward) == repo_cert

    def test_late_demand_equals_upfront_demand(self):
        late = analyze_paths([str(SRC)], structures=["HTTree"])
        upfront = analyze_paths([str(SRC)], structures=["FarQueue"])
        keys = _certified_keys(upfront)
        assert keys and not set(keys) & set(late.summaries)
        for qualname, ctx in keys:
            info = late.index.functions[qualname]
            assert late.summary_for(info, ctx) == upfront.summaries[qualname, ctx]

    def test_unreachable_growing_cycle_costs_nothing(self, tmp_path, evaluations):
        mod = tmp_path / "toy.py"
        mod.write_text(
            textwrap.dedent(
                """
                class Toy:
                    @far_budget(1, ceiling=1)
                    def peek(self, client: Client) -> int:
                        return client.read_u64(self.addr)

                def chase(client: Client, addr: int) -> int:
                    nxt = client.read_u64(addr)
                    if nxt == 0:
                        return addr
                    return chase(client, nxt)
                """
            )
        )
        model = analyze_paths([str(mod)], structures=[TOY])
        assert [record["verdict"] for record in build_certificate(model)[TOY].values()] == ["ok"]
        assert evaluations == [("toy:Toy.peek", frozenset())]
        chase = model.summary_for(model.index.functions["toy:chase"], frozenset())
        assert chase.fast == (1, 0) and chase.worst.unbounded

    def test_certified_path_assumptions_are_finite_and_named(self, repo_model):
        # Every ambiguous receiver fmcost assumed near-only on a path some
        # certificate record reads. A new one is a reviewed diff here.
        assumed = []
        for line in repo_model.diagnostics:
            match = re.fullmatch(
                r"(\S+): unresolved receiver for \.(\w+)\(\) "
                r"\(\d+ same-name candidates\); assumed near-only",
                line,
            )
            assert match, line
            assumed.append(match.groups())
        assert sorted(assumed) == [
            ("repro.alloc.allocator:FarAllocator.alloc", "get"),
            ("repro.apps.kvstore.kvstore:FarKVStore.txn_get", "abort"),
            ("repro.apps.kvstore.kvstore:FarKVStore.txn_get", "get"),
            ("repro.obs.telemetry:TelemetryRegistry._advance", "on_window_advance"),
            ("repro.obs.telemetry:TelemetryRegistry._count", "get"),
            ("repro.obs.telemetry:TelemetryRegistry._roll_up", "record_many"),
            ("repro.txn.txn:TxnAbortError.__init__", "__init__"),
        ]


# ---------------------------------------------------------------------------
# The repo-wide certificate: paper claims hold statically
# ---------------------------------------------------------------------------


class TestRepoCertificate:
    def test_no_failing_operations(self, repo_cert):
        assert certificate_failures(repo_cert) == []

    def test_c4_httree_prices(self, repo_cert):
        get = repo_cert["HTTree"]["get"]
        put = repo_cert["HTTree"]["put"]
        assert get["declared"]["fast"] == 1
        assert get["inferred"]["fast"] == "1"
        assert get["verdict"] == "ok"
        assert put["declared"]["fast"] == 2
        assert put["inferred"]["fast"] == "2"
        assert put["verdict"] == "ok"

    def test_c5_queue_fast_path(self, repo_cert):
        for op in ("enqueue", "dequeue", "try_dequeue"):
            record = repo_cert["FarQueue"][op]
            assert record["declared"]["fast"] == 1
            assert record["verdict"] in ("ok", "slack")
        assert repo_cert["FarQueue"]["enqueue"]["inferred"]["fast"] == "1"

    def test_c2_single_access_primitives(self, repo_cert):
        for op in ("increment", "decrement", "read", "set"):
            record = repo_cert["FarCounter"][op]
            assert record["inferred"] == {
                "fast": "1",
                "fast_const": 1,
                "fast_per_item": 0,
                "retry_exempt": False,
                "worst": "1",
                "worst_const": 1,
                "worst_per_item": 0,
                "worst_unbounded": False,
            }
        assert repo_cert["FarMutex"]["release"]["verdict"] == "ok"

    def test_bulk_ops_are_per_item(self, repo_cert):
        multiget = repo_cert["HTTree"]["multiget"]
        assert multiget["declared"]["per_item"] is True
        assert multiget["inferred"]["fast"] == "1*n"

    def test_replicated_region_ceilings(self, repo_cert):
        write = repo_cert["ReplicatedRegion"]["write_block"]
        assert write["declared"]["ceiling"] == 2
        assert write["inferred"]["worst"] == "2"
        assert write["verdict"] == "ok"

    def test_every_registered_structure_is_covered(self, repo_cert):
        assert set(repo_cert) == {
            "HTTree",
            "FarQueue",
            "RefreshableVector",
            "FarKVStore",
            "FarMutex",
            "FarCounter",
            "ReplicatedRegion",
            "TxnSpace",
        }

    def test_matches_committed_baseline(self, repo_cert):
        assert moved(load(REPO / "analysis" / "cost_baseline.json"), repo_cert) == []


# ---------------------------------------------------------------------------
# The certificate as a recording
# ---------------------------------------------------------------------------


class TestDiff:
    def test_identical_certificates_do_not_diff(self, repo_cert):
        assert moved(repo_cert, copy.deepcopy(repo_cert)) == []

    def test_changed_inference_diffs(self, repo_cert):
        mutated = copy.deepcopy(repo_cert)
        mutated["HTTree"]["get"]["inferred"]["fast"] = "3"
        assert moved(repo_cert, mutated) == ["HTTree.get"]

    def test_removed_operation_diffs(self, repo_cert):
        mutated = copy.deepcopy(repo_cert)
        del mutated["HTTree"]["get"]
        assert moved(repo_cert, mutated) == ["HTTree.get"]

    def test_added_operation_diffs(self, repo_cert):
        mutated = copy.deepcopy(repo_cert)
        mutated["Toy"] = {"peek": mutated["HTTree"]["get"]}
        assert moved(repo_cert, mutated) == ["Toy.peek"]

    def test_the_recording_holds_no_line(self, repo_cert):
        # Line numbers move on every edit; a recorded operation is its
        # declared budget, inferred bounds and verdict.
        fields = {key for ops in repo_cert.values() for record in ops.values() for key in record}
        assert fields == {"module", "declared", "inferred", "verdict", "detail"}

    def test_one_operation_per_line(self, repo_cert):
        text = dumps(repo_cert)
        assert len(text.splitlines()) == sum(map(len, repo_cert.values())) + 2 * len(repo_cert) + 2


# ---------------------------------------------------------------------------
# Must-fail cases
# ---------------------------------------------------------------------------


class TestMustFail:
    def test_overbudget_fixture_is_rejected(self):
        model = analyze_paths([str(FIXTURE)], structures=["OverBudgetRegister"])
        cert = build_certificate(model)
        records = cert["OverBudgetRegister"]
        assert records["double_read"]["verdict"] == "regression"
        assert records["drain"]["verdict"] == "over_ceiling"
        assert records["unpriced_touch"]["verdict"] == "missing_budget"
        failures = certificate_failures(cert)
        assert len(failures) == 3

    def test_far_access_in_a_match_arm_is_rejected(self):
        # Certified ``fast 0, worst 0, ok`` while ``match`` was a statement
        # kind the walk did not know and therefore priced at nothing.
        model = analyze_paths([str(FIXTURE)], structures=["MatchRegister"])
        (record,) = build_certificate(model)["MatchRegister"].values()
        assert record["verdict"] == "regression"
        assert record["inferred"]["fast"] == "1"
        assert record["inferred"]["worst"] == "1"

    def test_degraded_hot_path_is_rejected(self, tmp_path):
        # Plant one extra far read on HTTree.get's hot path in a copy of
        # the tree; the certified fast=1 claim must break.
        degraded = tmp_path / "repro"
        shutil.copytree(SRC, degraded)
        target = degraded / "core" / "ht_tree.py"
        source = target.read_text()
        anchor = 'chain length <= 1). Returns the value or None."""'
        assert anchor in source
        target.write_text(
            source.replace(
                anchor, anchor + "\n        client.read_u64(self.root_addr)"
            )
        )
        cert = build_certificate(
            analyze_paths([str(degraded)], structures=["HTTree"])
        )
        record = cert["HTTree"]["get"]
        assert record["verdict"] == "regression"
        assert record["inferred"]["fast"] == "2"
        assert any("HTTree.get" in f for f in certificate_failures(cert))
