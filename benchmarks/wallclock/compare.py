"""Compare two wallclock reports: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one commit), B
the candidate. One row per workload x end-to-end metric: both values, the
ratio B/A, and a verdict against the bound BENCHMARK.json fixed:

``worse``       B is worse than A by more than the bound.
``unresolved``  a timing whose passes spread wider than its bound in either
                report, or whose two reports were taken at machine speeds
                (``calibration_ns``) further apart than its bound: the runs
                cannot tell, repeat them.
``ok``          neither.

When both reports used the same seed and sizes, the sim-clock and exact
metrics must be *identical*: any move in the bad direction is ``worse``,
whatever the bound (the bound only absorbs seed-to-seed variation). The exit
code is non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

HOST_TIMED = ("setup_s", "host_ops_per_s")  # what pass_spread and calibration_ns speak for


def load(path: str) -> dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != "wallclock/1":
        raise SystemExit(f"{path}: not a wallclock/1 report")
    return report


def noise(ops_a: dict[str, Any], ops_b: dict[str, Any]) -> float:
    """How far apart two runs of identical code could have read a timing:
    the wider pass spread of the two, or the ratio of the machine speeds
    they were taken at, whichever is larger; 1.0 is no noise."""
    speeds = (ops_a["calibration_ns"], ops_b["calibration_ns"])
    return max(ops_a["pass_spread"], ops_b["pass_spread"], max(speeds) / min(speeds))


def verdict(
    metric: str, a: dict[str, Any], b: dict[str, Any], same_inputs: bool, spread: float
) -> str:
    bound = a["bound"]
    if same_inputs and a["clock"] != "host":
        bound = 0.0
    if a["better"] == "lower":
        worse_by = (b["value"] - a["value"]) / a["value"] if a["value"] else b["value"]
    else:
        worse_by = (a["value"] - b["value"]) / a["value"] if a["value"] else -b["value"]
    if metric in HOST_TIMED and spread - 1 > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[tuple]:
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    rows = []
    for name, block_a in a["workloads"].items():
        block_b = b["workloads"].get(name)
        if block_b is None:
            rows.append((name, "-", None, None, None, "worse"))
            continue
        spread = noise(block_a["ops"], block_b["ops"])
        for metric, row_a in block_a["end_to_end"].items():
            row_b = block_b["end_to_end"][metric]
            ratio = row_b["value"] / row_a["value"] if row_a["value"] else float("nan")
            status = verdict(metric, row_a, row_b, same_inputs, spread)
            rows.append((name, metric, row_a["value"], row_b["value"], ratio, status))
        failed_a, failed_b = block_a["ops"]["ops_failed"], block_b["ops"]["ops_failed"]
        status = "worse" if failed_b > failed_a else "ok"
        ratio = failed_b / failed_a if failed_a else float("nan")
        rows.append((name, "ops_failed", failed_a, failed_b, ratio, status))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    rows = compare(a, b)
    print(f"base A = {argv[1]} (seed {a['seed']}), B = {argv[2]} (seed {b['seed']}); ratio = B / A")
    print(f"{'workload':<18} {'metric':<22} {'A':>14} {'B':>14} {'B/A':>8}  verdict")
    for name, metric, value_a, value_b, ratio, status in rows:
        if value_a is None:
            print(f"{name:<18} missing from B{'':<47} {status}")
            continue
        shown = "-" if ratio != ratio else f"{ratio:.4f}"
        print(f"{name:<18} {metric:<22} {value_a:>14.6g} {value_b:>14.6g} {shown:>8}  {status}")
    counts = {s: sum(1 for row in rows if row[5] == s) for s in ("ok", "unresolved", "worse")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['worse']} worse")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
