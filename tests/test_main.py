"""Smoke tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import main


def test_demo_prints_profile_and_trace_summary(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "far accesses" in out
    assert "trace summary" in out
    assert "far-access latency by fabric op" in out
    # The demo's label table and the histogram table both rendered.
    assert "ht-tree put x100" in out
    assert "p50 ns" in out


def test_trace_subcommand_exports_and_validates(tmp_path, capsys):
    assert main(["trace", "quickstart", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "passed schema validation" in out

    jsonl_path = tmp_path / "quickstart.trace.jsonl"
    chrome_path = tmp_path / "quickstart.trace.json"
    assert jsonl_path.is_file() and chrome_path.is_file()

    lines = jsonl_path.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["schema"] == "repro-trace-v1"
    assert meta["spans"] + meta["events"] + 1 == len(lines)

    document = json.loads(chrome_path.read_text())
    assert document["traceEvents"]

    # The validate subcommand accepts its own exports, both formats.
    for path in (chrome_path, jsonl_path):
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


def test_validate_rejects_tampered_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace.json"
    bad.write_text(
        json.dumps(
            {
                "traceEvents": [
                    {"ph": "B", "name": "x", "pid": 1, "tid": 0, "ts": 0}
                ]
            }
        )
    )
    assert main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_rejects_jsonl_off_the_event_table(tmp_path, capsys):
    envelope = {"type": "event", "kind": "timeout", "ts_ns": 0.0, "client": "c", "span_id": 1}
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text(
        json.dumps({"type": "meta", "schema": "repro-trace-v1", "spans": 0, "events": 2})
        + "\n"
        + json.dumps({**envelope, "op": "read", "node": 0, "attempt": 1})
        + "\n"
        + json.dumps({**envelope, "op": "read", "nodes": 0, "attempt": 1})
        + "\n"
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID (1 problems)" in out and "line 3: timeout: undeclared key" in out


def test_trace_unknown_target_is_an_error():
    with pytest.raises(SystemExit, match="cannot find"):
        main(["trace", "no-such-example"])


def test_lint_subcommand_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def zero(client, addrs):\n"
        "    for addr in addrs:\n"
        "        client.write_u64(addr, 0)\n"
    )
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FM001" in out and "1 finding(s)" in out

    good = tmp_path / "good.py"
    good.write_text("def add(a, b):\n    return a + b\n")
    assert main(["lint", str(good)]) == 0
    assert "fmlint: clean" in capsys.readouterr().out

    assert main(["lint", "--list-rules"]) == 0
    assert "sync-far-op-in-loop" in capsys.readouterr().out


def test_sanitize_subcommand_reports_budgets(tmp_path, capsys):
    script = tmp_path / "counter_demo.py"
    script.write_text(
        "from repro import Cluster\n"
        "cluster = Cluster(node_count=1, node_size=8 << 20)\n"
        "client = cluster.client('demo')\n"
        "counter = cluster.far_counter()\n"
        "for _ in range(3):\n"
        "    counter.increment(client)\n"
        "print('value', counter.read(client))\n"
    )
    assert main(["sanitize", str(script)]) == 0
    out = capsys.readouterr().out
    assert "FarCounter.increment" in out and "C2" in out


def test_sanitize_subcommand_fails_on_violations(tmp_path, capsys):
    script = tmp_path / "over_budget.py"
    script.write_text(
        "from repro import Cluster\n"
        "from repro.analysis.budget import far_budget\n"
        "\n"
        "class Chatty:\n"
        "    @far_budget(0, ceiling=0)\n"
        "    def op(self, client, addr):\n"
        "        return client.read_u64(addr)\n"
        "\n"
        "cluster = Cluster(node_count=1, node_size=8 << 20)\n"
        "client = cluster.client('demo')\n"
        "Chatty().op(client, cluster.allocator.alloc(8))\n"
        "print('ran')\n"
    )
    assert main(["sanitize", str(script), "--no-strict"]) == 1
    assert "budget violation" in capsys.readouterr().out


def test_topology_subcommand_renders_table(capsys):
    assert main(["topology"]) == 0
    out = capsys.readouterr().out
    assert "virtual address space" in out
    assert "extents of 262144 bytes" in out
    assert "free_slots" in out  # per-node table header


def test_topology_demo_shows_drain_and_remaps(capsys):
    assert main(["topology", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "(17 remapped" in out  # migrate + full drain of the last node
    assert "yes" in out  # drained column marker
    assert "*" in out  # remapped-extent flag


def test_topology_json_is_machine_readable(capsys):
    assert main(["topology", "--json", "--nodes", "3"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["extent_size"] == 262144
    assert len(dump["nodes"]) == 3
    assert dump["extent_count"] == len(dump["extents"])
    assert all(not info["remapped"] for info in dump["extents"])


def test_stats_subcommand_renders_and_exports(tmp_path, capsys):
    assert main(["stats", "quickstart", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "live telemetry of" in out
    assert "== repro top @" in out
    assert "-- fleet --" in out and "-- SLOs --" in out
    assert "timeout-ratio" in out

    prom = tmp_path / "quickstart.prom"
    jsonl = tmp_path / "quickstart.metrics.jsonl"
    assert prom.is_file() and jsonl.is_file()
    text = prom.read_text()
    assert "# TYPE repro_far_accesses_total counter" in text
    assert 'repro_far_accesses_total{scope="fleet"}' in text
    meta = json.loads(jsonl.read_text().splitlines()[0])
    assert meta["schema"] == "repro-telemetry-v1"


def test_stats_forbid_alerts_gate_on_clean_run(capsys):
    assert main(["stats", "quickstart", "--forbid-alerts"]) == 0
    assert "no SLO alerts fired" in capsys.readouterr().out


def test_stats_expect_alerts_gate_on_fault_burst(capsys):
    assert main(["stats", "fault_burst", "--expect-alerts"]) == 0
    out = capsys.readouterr().out
    assert "timeout-ratio" in out
    assert "FIRING" in out or "alert" in out


def test_stats_expect_alerts_fails_when_clean(capsys):
    assert main(["stats", "quickstart", "--expect-alerts"]) == 1
    assert "expected SLO alerts" in capsys.readouterr().out


def test_stats_forbid_alerts_fails_under_faults(capsys):
    assert main(["stats", "fault_burst", "--forbid-alerts"]) == 1
    assert "unexpected SLO alert" in capsys.readouterr().out


def test_top_once_renders_final_frame(capsys):
    assert main(["top", "quickstart", "--once"]) == 0
    out = capsys.readouterr().out
    assert "final frame" in out
    assert "-- extent heat --" in out
    assert "httree" in out


def test_top_unknown_target_is_an_error():
    with pytest.raises(SystemExit, match="cannot find"):
        main(["top", "no-such-example"])


def test_top_shows_drained_layout_after_migration(capsys):
    """`repro top --once` over the elastic-cluster drain: the node table
    marks the drained node and the extent table shows new homes."""
    assert main(["top", "elastic_cluster", "--once"]) == 0
    out = capsys.readouterr().out
    assert "drained" in out
    assert "remaps" in out
    assert "migration" in out  # the coordinator's structure scope


def test_cost_subcommand_certifies_the_repo(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "HTTree.get" in out and "0 failing" in out


def test_cost_check_matches_committed_baseline(capsys):
    assert main(["cost", "--check"]) == 0
    assert "matches baseline" in capsys.readouterr().out


def test_cost_out_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cost.json"
    assert main(["cost", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    assert cert["format"] == "fmcost-cert-v1"
    assert any(
        r["structure"] == "FarQueue" and r["op"] == "enqueue"
        for r in cert["records"]
    )


def test_cost_check_fails_against_a_tampered_baseline(tmp_path, capsys):
    cert_path = tmp_path / "cost.json"
    assert main(["cost", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    for record in cert["records"]:
        if record["structure"] == "HTTree" and record["op"] == "get":
            record["inferred"]["fast"] = "9"
    tampered = tmp_path / "baseline.json"
    tampered.write_text(json.dumps(cert))
    assert main(["cost", "--check", "--baseline", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "HTTree.get" in out and "--update-baseline" in out


def test_cost_fails_on_overbudget_fixture(capsys):
    import os

    fixture = os.path.join(
        os.path.dirname(__file__), "analysis", "overbudget_fixture.py"
    )
    assert (
        main(["cost", fixture, "--structures", "OverBudgetRegister"]) == 1
    )
    out = capsys.readouterr().out
    assert "regression" in out and "over_ceiling" in out


def test_check_subcommand_combines_gates(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["check", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "check: OK" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["lint"]["findings"] == []
    assert report["cost"]["failures"] == []
    assert report["cost"]["baseline_diffs"] == []


def test_check_subcommand_fails_on_lint_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def zero(client, addrs):\n"
        "    for addr in addrs:\n"
        "        client.write_u64(addr, 0)\n"
    )
    assert main(["check", str(bad)]) == 1
    assert "check: FAILED" in capsys.readouterr().out


def test_check_subcommand_runs_sanitized_examples(capsys):
    assert main(["check", "--sanitize", "quickstart"]) == 0
    out = capsys.readouterr().out
    assert "check: OK" in out
