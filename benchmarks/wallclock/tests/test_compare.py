"""``compare.py``: the verdict rules, and two runs of one commit agree."""

from __future__ import annotations

import copy
import subprocess
import sys

import compare


def _verdicts(a, b):
    return {(row[0], row[1]): row[5] for row in compare.compare(a, b)}


def test_two_runs_of_one_commit_have_no_worse_row(smoke_report, smoke_report_again):
    rows = _verdicts(smoke_report, smoke_report_again)
    assert len(rows) == len(smoke_report["workloads"]) * 7  # 6 metrics + ops_failed
    for (workload, metric), status in rows.items():
        if metric in ("py_calls_per_op", "sim_ns_per_op", "far_accesses_per_op", "ops_failed"):
            assert status == "ok", (workload, metric)
    done = subprocess.run(
        [sys.executable, compare.__file__, smoke_report["_path"], smoke_report["_path"]],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 0 and "0 worse" in done.stdout


def test_rules(smoke_report):
    base = {k: v for k, v in smoke_report.items() if not k.startswith("_")}
    for block in base["workloads"].values():
        block["ops"].update(pass_spread=1.01, calibration_ns=40.0)

    def changed(metric, factor, **top):
        other = copy.deepcopy(base)
        other.update(top)
        other["workloads"]["kv_read"]["end_to_end"][metric]["value"] *= factor
        return _verdicts(base, other)[("kv_read", metric)]

    # same seed: an exact metric may not move in the bad direction at all
    assert changed("py_calls_per_op", 1.001) == "worse"
    assert changed("py_calls_per_op", 0.9) == "ok"
    assert changed("sim_ns_per_op", 1.0001) == "worse"
    # another seed: the bound absorbs seed-to-seed variation
    assert changed("sim_ns_per_op", 1.01, seed=base["seed"] + 1) == "ok"
    assert changed("sim_ns_per_op", 1.2, seed=base["seed"] + 1) == "worse"
    # host metrics get their bound; higher-is-better is handled
    assert changed("host_ops_per_s", 0.97) == "ok"
    assert changed("host_ops_per_s", 0.5) == "worse"
    assert changed("host_ops_per_s", 2.0) == "ok"
    assert changed("peak_rss_mb", 1.5) == "worse"
    # passes that spread wider than the bound cannot resolve a timing
    noisy = copy.deepcopy(base)
    noisy["workloads"]["kv_read"]["ops"]["pass_spread"] = 1.6
    assert _verdicts(base, noisy)[("kv_read", "host_ops_per_s")] == "unresolved"
    assert _verdicts(base, noisy)[("kv_read", "py_calls_per_op")] == "ok"
    # nor can two reports taken at machine speeds further apart than the bound
    slow = copy.deepcopy(base)
    slow["workloads"]["kv_read"]["ops"]["calibration_ns"] = 60.0
    assert _verdicts(base, slow)[("kv_read", "setup_s")] == "unresolved"
    assert _verdicts(base, slow)[("kv_read", "peak_rss_mb")] == "ok"
    assert _verdicts(base, slow)[("kv_update", "setup_s")] == "ok"
    # a failed op is never ok
    failing = copy.deepcopy(base)
    failing["workloads"]["kv_faulty"]["ops"]["ops_failed"] = 1
    assert _verdicts(base, failing)[("kv_faulty", "ops_failed")] == "worse"
