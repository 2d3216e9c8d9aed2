"""benchmarks/wallclock: the two-clock, layer-attributed benchmark.

Two ways to run it, both from the repository root and both self-contained
(``src/`` is put on the path here, no ``PYTHONPATH`` needed):

    python3 benchmarks/wallclock/run.py [--seed N] [--smoke] [--out F]
        every workload, end-to-end and per-layer, one report

    python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line printed is the JSON object the
        BENCHMARK.json contract asks for (``--trace 0``: end-to-end
        metrics, ``--trace 1``: per-layer metrics)

Each measurement runs in its own ``worker.py`` subprocess, one after the
other, with ``PYTHONHASHSEED=0``. See README.md for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKER_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric is read from: ``sim`` (the modelled fabric,
    repeats bit-for-bit), ``host`` (this machine, noisy) or ``exact`` (a
    count, repeats bit-for-bit)."""
    if unit.startswith("sim_"):
        return "sim"
    timed = unit in ("s", "ops/s", "MiB", "us/op", "ns") or name == "obs.overhead_ratio"
    return "host" if timed or name.startswith("driver.") else "exact"


def run_worker(workload: str, mode: str, args: argparse.Namespace) -> dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--mode",
        mode,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    if mode == "traced" and args.trace_out:
        command += ["--trace-out", args.trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def same_exact(what: str, a: dict[str, Any], b: dict[str, Any]) -> None:
    """Two invocations with one seed must agree on every exact quantity."""
    if a != b:
        keys = [k for k in a if a[k] != b.get(k)]
        raise SystemExit(f"determinism guard: {what} disagree on {keys}")


def end_to_end(workload: str, args: argparse.Namespace) -> dict[str, Any]:
    untraced = run_worker(workload, "untraced", args)
    counted = run_worker(workload, "count", args)
    same_exact(f"{workload}: untraced and counting processes", untraced["exact"], counted["exact"])
    exact = untraced["exact"]
    values = dict(untraced["host"])
    values["py_calls_per_op"] = counted["py_calls"]["total"] / exact["ops"]
    values["sim_ns_per_op"] = exact["sim_ns_per_op"]
    values["far_accesses_per_op"] = exact["far_accesses_per_op"]
    return {
        "values": values,
        "verdict": untraced["verdict"],
        "exact": exact,
        "py_calls": counted["py_calls"],
        "passes": untraced["passes"],
        "chunks": untraced["chunks"],
    }


def declared(spec: dict[str, Any], section: str, values: dict[str, float]) -> dict[str, Any]:
    """Pick exactly the metrics ``section`` declares, with their units."""
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise SystemExit(f"BENCHMARK.json declares {section} metrics nobody measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def contract_line(verdict: dict[str, Any], metrics: dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": verdict["mismatches"] == 0,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": metrics,
        }
    )


def run_one(spec: dict[str, Any], args: argparse.Namespace) -> int:
    """Contract mode: one workload, one trace setting, one JSON line."""
    if args.trace:
        traced = run_worker(args.workload, "traced", args)
        undeclared = set(traced["per_layer"]) - {m["name"] for m in spec["per_layer"]}
        if undeclared:
            raise SystemExit(f"measured but not declared in BENCHMARK.json: {sorted(undeclared)}")
        verdict, metrics = traced["verdict"], declared(spec, "per_layer", traced["per_layer"])
    else:
        result = end_to_end(args.workload, args)
        verdict, metrics = result["verdict"], declared(spec, "end_to_end", result["values"])
    if verdict["first_mismatch"]:
        print(f"oracle mismatch: {verdict['first_mismatch']}", file=sys.stderr)
    print(contract_line(verdict, metrics))
    return 0 if verdict["mismatches"] == 0 else 1


def annotate(spec: dict[str, Any], section: str, values: dict[str, float]) -> dict[str, Any]:
    out = {}
    for metric in spec[section]:
        row = dict(metric, value=values[metric["name"]])
        row["clock"] = clock_of(row.pop("name"), metric["unit"])
        out[metric["name"]] = row
    return out


def run_all(spec: dict[str, Any], args: argparse.Namespace) -> int:
    """Every workload, both kinds of measurement, one report."""
    report: dict[str, Any] = {
        "schema": "wallclock/1",
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    mismatches = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        print(f"[{name}] end-to-end passes ...", file=sys.stderr, flush=True)
        e2e = end_to_end(name, args)
        print(f"[{name}] traced passes ...", file=sys.stderr, flush=True)
        traced = run_worker(name, "traced", args)
        same_exact(f"{name}: untraced and traced processes", e2e["exact"], traced["exact"])
        same_exact(f"{name}: the two counting passes", e2e["py_calls"], traced["py_calls"])
        verdict = e2e["verdict"]
        mismatches += verdict["mismatches"]
        report["workloads"][name] = {
            "why": entry["why"],
            "ops": {
                "ops_attempted": verdict["attempted"],
                "ops_failed": verdict["failed"],
                "oracle_mismatches": verdict["mismatches"],
                "first_mismatch": verdict["first_mismatch"],
                "requests_sampled": e2e["exact"]["samples"],
                "passes": e2e["passes"],
                "chunks": e2e["chunks"],
                "pass_spread": e2e["values"]["pass_spread"],
                "calibration_ns": e2e["values"]["calibration_ns"],
                "py_calls_total": e2e["py_calls"]["total"],
                "span_host_us_per_op": traced["span_host_us_per_op"],
            },
            "end_to_end": annotate(spec, "end_to_end", e2e["values"]),
            "per_layer": annotate(spec, "per_layer", traced["per_layer"]),
            "exact": {k: e2e["exact"][k] for k in ("digest", "metrics", "counters")},
        }
    report["machine"]["calibration_ns"] = min(
        w["ops"]["calibration_ns"] for w in report["workloads"].values()
    )
    print_report(report)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if mismatches == 0 else 1


def print_report(report: dict[str, Any]) -> None:
    for name, block in report["workloads"].items():
        ops = block["ops"]
        print(f"\n== {name}: {block['why']}")
        print(
            f"   ops_attempted={ops['ops_attempted']} ops_failed={ops['ops_failed']} "
            f"oracle_mismatches={ops['oracle_mismatches']} passes={ops['passes']} "
            f"chunks={ops['chunks']} requests_sampled={ops['requests_sampled']}"
        )
        for section in ("end_to_end", "per_layer"):
            print(f"   -- {section}")
            for metric, row in block[section].items():
                bound = f" bound={row['bound']:.0%}" if "bound" in row else ""
                print(
                    f"   {metric:<36} {row['value']:>16.6g} {row['unit']:<12} "
                    f"[{row['clock']}, {row['better']} is better{bound}]"
                )


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print("run.py needs the repository around it: src/repro, BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes")
    parser.add_argument("--out", help="full mode: write the report JSON here")
    parser.add_argument("--trace-out", help="write the first 1000 requests' spans here as JSONL")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 0.0
    try:
        return run_one(spec, args) if args.workload else run_all(spec, args)
    except subprocess.CalledProcessError as err:
        print(f"worker exited with code {err.returncode}: {' '.join(err.cmd)}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as err:
        print(f"worker exceeded {err.timeout}s: {' '.join(err.cmd)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
