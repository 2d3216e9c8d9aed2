"""``python -m repro`` — CLI entry points for the reproduction.

* ``python -m repro`` — a one-minute guided demo: a tiny end-to-end
  scenario with exact far-access accounting, profiled and traced, ending
  in the trace summary and the telemetry registry's fleet and node tables.
* ``python -m repro trace <example> [--out DIR]`` — run an example
  script (``examples/<name>.py`` or any path) under a tracer and export
  the JSONL event stream plus a Chrome trace-event JSON (open it in
  ``chrome://tracing`` or https://ui.perfetto.dev); print the span
  summary and the fleet and node tables of a registry observing the run.
* ``python -m repro validate <trace.json|trace.jsonl>`` — check an
  exported Chrome trace against the minimal schema (B/E balance, monotone
  timestamps), or a JSONL event stream against the event table.
* ``python -m repro lint [paths...]`` — run the far-memory static linter
  (:mod:`repro.analysis.fmlint`) over source trees; nonzero on findings.
* ``python -m repro sanitize <example>`` — run an example with the
  budget sanitizer active and print the per-op far-access budget table;
  nonzero on any declared-ceiling violation.
* ``python -m repro cost [--out PATH]`` — static far-access cost
  certification (:mod:`repro.analysis.fmcost`): infer fast/worst bounds
  for every registered structure op, verify the ``@far_budget``
  declarations, print the certificate and (``--out``) write it as a
  recording; ``--out analysis/cost_baseline.json`` regenerates the
  committed baseline.
* ``python -m repro check [--sanitize EXAMPLE ...]`` — the unified gate:
  lint + cost certification against the committed baseline (+ sanitized
  example runs) with one exit code and a combined JSON report
  (``--report``).
* ``python -m repro races <trace.jsonl>`` — happens-before race
  detection over an exported JSONL trace; nonzero on plain-access races.
* ``python -m repro topology`` — dump a cluster's extent table (extent →
  node, epoch, heat, replica groups; ``--json`` for machine form;
  ``--demo`` first exercises add/migrate/drain so the dump shows remaps).
* ``python -m repro stats <example>`` — run an example under the live
  telemetry plane (registry + SLO monitor) and print the fleet/node/
  extent dashboard; ``--out DIR`` also writes a Prometheus-text snapshot
  and a telemetry JSONL; ``--expect-alerts`` / ``--forbid-alerts`` turn
  SLO burn-rate alerts into the exit code (the CI gates).
* ``python -m repro top <example> [--once]`` — same harness, rendered as
  periodic ``top``-style frames over simulated time (``--once`` prints
  only the final frame).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import runpy
from typing import Optional, Sequence

from repro import Cluster, __version__
from repro.analysis.budget import BudgetSanitizer
from repro.obs import (
    SLOMonitor,
    TelemetryRegistry,
    Tracer,
    load_chrome_trace,
    render_fleet,
    render_nodes,
    render_top,
    set_default_tracer,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_telemetry_jsonl,
)


def _demo() -> int:
    print(f"repro {__version__} — Far Memory Data Structures (HotOS '19)\n")
    print("simulated fabric: 2 memory nodes x 32 MiB, 100 ns near / 1 us far\n")

    cluster = Cluster(node_count=2, node_size=32 << 20)
    client = cluster.client("you")
    tracer = Tracer()
    tracer.attach(client)
    registry = TelemetryRegistry().observe(tracer)

    tree = cluster.ht_tree(bucket_count=1024)
    with client.trace("ht-tree put x100"):
        for key in range(100):
            tree.put(client, key, key * key)
    tree.get(client, 0)
    with client.trace("ht-tree get x100 (warm)"):
        for key in range(100):
            assert tree.get(client, key) == key * key

    queue = cluster.far_queue(capacity=64, max_clients=4)
    with client.trace("queue enq+deq x100"):
        for i in range(100):
            queue.enqueue(client, i + 1)
            queue.dequeue(client)

    counter = cluster.far_counter()
    with client.trace("counter add x100"):
        for _ in range(100):
            counter.increment(client)

    print(
        f"total: {client.metrics.far_accesses} far accesses, "
        f"{client.metrics.near_accesses} near accesses, "
        f"{client.clock.now_ns / 1e6:.2f} simulated ms"
    )

    tracer.finish()
    print("\n-- trace summary (spans nest: demo phases > structure ops) --")
    print(tracer.summary(max_rows=8))
    print(f"\n{render_fleet(registry)}\n\n{render_nodes(registry)}")

    print(
        "\nnext:\n"
        "  python examples/quickstart.py          # the full tour\n"
        "  python -m repro trace quickstart       # same, exported as a trace\n"
        "  pytest tests/                          # the test suite\n"
        "  pytest benchmarks/ --benchmark-only -s # the paper's experiments\n"
        "  less DESIGN.md EXPERIMENTS.md          # what maps to what"
    )
    return 0


def _resolve_target(target: str) -> str:
    """An example name (``quickstart``), example file, or any script path."""
    candidates = [
        target,
        os.path.join("examples", target),
        os.path.join("examples", f"{target}.py"),
    ]
    here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    candidates.append(os.path.join(here, "examples", f"{target}.py"))
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    raise SystemExit(
        f"error: cannot find {target!r} (tried {', '.join(candidates)})"
    )


def _run_example(
    target: str,
    *,
    tracer: Optional[Tracer] = None,
    sanitizer: Optional[BudgetSanitizer] = None,
) -> str:
    """Run an example script, unmodified, under the observers given, and
    return its resolved path. Every client the script creates
    auto-attaches to ``tracer``; ``sanitizer`` is active for the run."""
    path = _resolve_target(target)
    set_default_tracer(tracer)
    try:
        with sanitizer if sanitizer is not None else contextlib.nullcontext():
            runpy.run_path(path, run_name="__main__")
    finally:
        set_default_tracer(None)
    return path


def _trace(args: argparse.Namespace) -> int:
    tracer = Tracer()
    # The run's roll-up. No SLO monitor: its alerts would enter the trace.
    registry = TelemetryRegistry().observe(tracer)
    path = _run_example(args.target, tracer=tracer)
    stem = os.path.splitext(os.path.basename(path))[0]
    tracer.finish()

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, f"{stem}.trace.jsonl")
    chrome_path = os.path.join(out_dir, f"{stem}.trace.json")
    records = write_jsonl(jsonl_path, tracer)
    document = write_chrome_trace(chrome_path, tracer)
    problems = validate_chrome_trace(document)

    print(f"\n-- trace of {path} --")
    print(tracer.summary())
    print(f"\n{render_fleet(registry)}\n\n{render_nodes(registry)}")
    print(
        f"\nwrote {jsonl_path} ({records} records) and {chrome_path} "
        f"({len(document['traceEvents'])} events; open in chrome://tracing "
        "or ui.perfetto.dev)"
    )
    if problems:
        print("exported trace FAILED validation:")
        for problem in problems[:10]:
            print(f"  - {problem}")
        return 1
    print("exported trace passed schema validation")
    return 0


class _TopTicker:
    """Registry listener that prints a ``repro top`` frame every
    ``EVERY`` fleet-window advances (simulated time, so frame cadence is
    deterministic)."""

    EVERY = 100

    def __init__(self, monitor: SLOMonitor) -> None:
        self.monitor = monitor
        self._last_frame_window: Optional[int] = None

    def on_window_advance(self, registry, client, ts_ns) -> None:
        window = registry.current_window
        if (
            self._last_frame_window is not None
            and window - self._last_frame_window < self.EVERY
        ):
            return
        self._last_frame_window = window
        print(render_top(registry, self.monitor))
        print()


def _run_with_telemetry(
    target: str, frames: bool = False
) -> tuple[str, TelemetryRegistry, SLOMonitor]:
    """Run an example under a tracer + telemetry registry (1 ms windows) +
    SLO monitor, printing periodic ``top`` frames when ``frames`` is set.

    The registry is a sink on the default tracer, which every client the
    script creates auto-attaches to. Observation stays free of observer
    effects: counts and clocks are bit-identical either way.
    """
    tracer = Tracer()
    registry = TelemetryRegistry().observe(tracer)
    monitor = SLOMonitor(registry)
    if frames:
        registry.add_listener(_TopTicker(monitor))
    path = _run_example(target, tracer=tracer)
    for client in tracer.clients():
        registry.sample_client(client)
    monitor.finish()
    tracer.finish()
    return path, registry, monitor


def _alert_gate(monitor: SLOMonitor, expect: bool, forbid: bool) -> int:
    if expect and not monitor.alerts:
        print("FAIL: expected SLO alerts, none fired")
        return 1
    if forbid and monitor.alerts:
        print(f"FAIL: unexpected SLO alert(s) fired on a clean run "
              f"({len(monitor.alerts)})")
        return 1
    if expect:
        print(f"OK: {len(monitor.alerts)} SLO alert(s) fired, as expected")
    if forbid:
        print("OK: no SLO alerts fired")
    return 0


def _stats(args: argparse.Namespace) -> int:
    path, registry, monitor = _run_with_telemetry(args.target)
    print(f"\n-- live telemetry of {path} --")
    print(render_top(registry, monitor))
    out_dir = args.out
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.splitext(os.path.basename(path))[0]
        prom_path = os.path.join(out_dir, f"{stem}.prom")
        jsonl_path = os.path.join(out_dir, f"{stem}.metrics.jsonl")
        samples = write_prometheus(prom_path, registry)
        records = write_telemetry_jsonl(jsonl_path, registry)
        print(
            f"\nwrote {prom_path} ({samples} samples) and "
            f"{jsonl_path} ({records} records)"
        )
    return _alert_gate(monitor, args.expect_alerts, args.forbid_alerts)


def _top(args: argparse.Namespace) -> int:
    path, registry, monitor = _run_with_telemetry(args.target, frames=not args.once)
    print(f"\n-- final frame ({path}) --")
    print(render_top(registry, monitor))
    return 0


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis.fmlint import RULES, lint_paths, render_rules

    if args.list_rules:
        print(render_rules())
        return 0
    findings = lint_paths(list(args.paths) or ["src", "examples"])
    for finding in findings:
        print(finding.format())
    if findings:
        by_code: dict[str, int] = {}
        for finding in findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        tally = ", ".join(
            f"{count}x {code} {RULES[code].name}"
            for code, count in sorted(by_code.items())
        )
        print(f"fmlint: {len(findings)} finding(s): {tally}")
        return 1
    print("fmlint: clean")
    return 0


def _sanitize(args: argparse.Namespace) -> int:
    sanitizer = BudgetSanitizer(strict=not args.no_strict)
    path = _run_example(args.target, sanitizer=sanitizer)
    print(f"\n-- far-access budgets over {path} --")
    print(sanitizer.report())
    return 1 if sanitizer.violations else 0


def _default_cost_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return [os.path.dirname(__file__)]


def _default_baseline_path() -> str:
    candidate = os.path.join("analysis", "cost_baseline.json")
    if os.path.exists(candidate):
        return candidate
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    return os.path.join(root, "analysis", "cost_baseline.json")


def _cost_certificate(
    paths: Sequence[str], structures: Optional[Sequence[str]] = None
) -> dict:
    from repro.analysis import fmcost

    model = fmcost.analyze_paths(
        list(paths) or _default_cost_paths(), structures=structures
    )
    return fmcost.build_certificate(model)


def _baseline_moves(cert: dict, baseline_path: str) -> list[str]:
    """The operations ``cert`` moved from the committed baseline, or the
    one reason the baseline cannot be read."""
    from repro.analysis import recorded

    try:
        baseline = recorded.load(baseline_path)
    except (OSError, ValueError) as err:
        return [f"unreadable baseline {baseline_path}: {err}"]
    return [f"{key} moved" for key in recorded.moved(baseline, cert)]


def _cost(args: argparse.Namespace) -> int:
    from repro.analysis import fmcost, recorded

    wanted = (
        [name.strip() for name in args.structures.split(",") if name.strip()]
        if args.structures
        else None
    )
    cert = _cost_certificate(args.paths, structures=wanted)
    print(fmcost.render_certificate(cert))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(recorded.dumps(cert))
        print(f"wrote certificate to {args.out}")
    failures = fmcost.certificate_failures(cert)
    if failures:
        print(f"fmcost: {len(failures)} failing operation(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    return 0


def _check(args: argparse.Namespace) -> int:
    """One gate: lint + cost certification (+ sanitized examples)."""
    import json

    from repro.analysis import fmcost
    from repro.analysis.fmlint import lint_paths

    lint_targets = list(args.paths) or ["src", "examples"]
    findings = lint_paths(lint_targets)
    for finding in findings:
        print(finding.format())
    print(f"lint: {len(findings)} finding(s)")

    cert = _cost_certificate([])
    cost_failures = fmcost.certificate_failures(cert)
    baseline_path = _default_baseline_path()
    cost_diffs = _baseline_moves(cert, baseline_path)
    for problem in cost_failures + cost_diffs:
        print(f"cost: {problem}")
    print(
        f"cost: {len(cost_failures)} failing verdict(s), "
        f"{len(cost_diffs)} baseline change(s)"
    )
    if cost_diffs:
        print(
            "cost changed? regenerate deliberately with: "
            f"python -m repro cost --out {baseline_path}"
        )

    sanitize_results = []
    for target in args.sanitize:
        sanitizer = BudgetSanitizer(strict=False)
        _run_example(target, sanitizer=sanitizer)
        violations = list(sanitizer.violations)
        sanitize_results.append(
            {"target": target, "violations": violations}
        )
        print(
            f"sanitize {target}: {len(violations)} violation(s)"
        )
        for violation in violations:
            print(f"  - {violation}")

    ok = (
        not findings
        and not cost_failures
        and not cost_diffs
        and all(not r["violations"] for r in sanitize_results)
    )
    report = {
        "ok": ok,
        "lint": {
            "paths": lint_targets,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "code": f.code,
                    "message": f.message,
                }
                for f in findings
            ],
        },
        "cost": {
            "baseline": baseline_path,
            "failures": cost_failures,
            "baseline_diffs": cost_diffs,
            "summary": fmcost.certificate_summary(cert),
        },
        "sanitize": sanitize_results,
    }
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote combined report to {args.report}")
    print(f"check: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _races(args: argparse.Namespace) -> int:
    from repro.analysis.races import detect_races_in_file

    try:
        report = detect_races_in_file(args.trace_jsonl)
    except (OSError, ValueError) as err:
        print(f"{args.trace_jsonl}: unreadable trace ({err})")
        return 2
    print(report.format())
    return 1 if report.errors else 0


def _topology(args: argparse.Namespace) -> int:
    nodes = args.nodes
    cluster = Cluster(node_count=nodes, node_size=4 << 20)
    if args.demo:
        # Make the dump show the machinery: heat, elastic growth, a live
        # migration's remap + epoch bump, and a drained node.
        client = cluster.client("topo-demo")
        vec = cluster.far_vector(4096)
        for i in range(512):
            vec.set(client, i % 64, i)
        spare = cluster.add_node()
        hot = cluster.fabric.extents.extents_on_node(0)[0]
        cluster.migration.migrate_extent(client, hot, spare)
        cluster.drain_node(nodes - 1, client)
    dump = cluster.topology()
    if args.json:
        import json

        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(
        f"virtual address space: {dump['virtual_size']} bytes in "
        f"{dump['extent_count']} extents of {dump['extent_size']} bytes "
        f"({dump['remapped']} remapped, {len(dump['migrating'])} migrating)"
    )
    print(f"forwards={dump['forwards_total']} fences={dump['fences_total']}\n")
    print("node  size       extents  free_slots  heat    drained")
    print("-" * 55)
    for row in dump["nodes"]:
        print(
            f"{row['node']:<5} {row['size']:<10} {row['extents']:<8} "
            f"{row['free_slots']:<11} {row['heat']:<7} "
            f"{'yes' if row['drained'] else ''}"
        )
    print("\nextent  base        node  slot  epoch  heat   state      replicas")
    print("-" * 70)
    shown = 0
    for row in dump["extents"]:
        interesting = (
            row["remapped"]
            or row["heat"]
            or row["epoch"] != 1
            or row["state"] != "active"
            or row["replica_groups"]
        )
        if shown >= 32 and not interesting:  # past 32 rows, only the interesting ones
            continue
        flag = "*" if row["remapped"] else " "
        groups = ",".join(row["replica_groups"])
        print(
            f"{row['extent']:<7} 0x{row['base']:<9x} {row['node']:<5} "
            f"{row['slot']:<5} {row['epoch']:<6} {row['heat']:<6} "
            f"{row['state']:<9}{flag} {groups}"
        )
        shown += 1
    hidden = len(dump["extents"]) - shown
    if hidden > 0:
        print(f"... {hidden} cold unremapped extent(s) elided (--json prints every row)")
    return 0


def _validate(args: argparse.Namespace) -> int:
    path = args.trace_json
    try:
        if path.endswith(".jsonl"):
            with open(path, "r", encoding="utf-8") as fh:
                problems = validate_jsonl(fh)
        else:
            problems = validate_chrome_trace(load_chrome_trace(path))
    except OSError as err:
        print(f"{path}: unreadable trace ({err})")
        return 1
    except ValueError:
        problems = ["not a JSON document"]
    if problems:
        print(f"{path}: INVALID ({len(problems)} problems)")
        for problem in problems[:20]:
            print(f"  - {problem}")
        return 1
    print(f"{path}: OK")
    return 0


def _node_count(text: str) -> int:
    """``topology --nodes``: a whole number of memory nodes, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Far Memory Data Structures (HotOS '19) reproduction",
    )
    parser.set_defaults(run=lambda _args: _demo())
    sub = parser.add_subparsers(dest="command")
    trace_parser = sub.add_parser(
        "trace", help="run an example under the tracer and export the trace"
    )
    trace_parser.set_defaults(run=_trace)
    trace_parser.add_argument(
        "target", help="example name (e.g. quickstart) or script path"
    )
    trace_parser.add_argument(
        "--out", default="traces", help="output directory (default: traces/)"
    )
    validate_parser = sub.add_parser(
        "validate", help="schema-check an exported Chrome trace JSON or event JSONL"
    )
    validate_parser.set_defaults(run=_validate)
    validate_parser.add_argument(
        "trace_json", help="path to a .trace.json or .trace.jsonl file"
    )
    lint_parser = sub.add_parser(
        "lint", help="far-memory static linter (nonzero exit on findings)"
    )
    lint_parser.set_defaults(run=_lint)
    lint_parser.add_argument(
        "paths", nargs="*", help="files or directories (default: src examples)"
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    sanitize_parser = sub.add_parser(
        "sanitize",
        help="run an example under the @far_budget sanitizer",
    )
    sanitize_parser.set_defaults(run=_sanitize)
    sanitize_parser.add_argument(
        "target", help="example name (e.g. quickstart) or script path"
    )
    sanitize_parser.add_argument(
        "--no-strict",
        action="store_true",
        help="record ceiling violations instead of raising at the call site",
    )
    cost_parser = sub.add_parser(
        "cost",
        help="static far-access cost certification (fmcost)",
    )
    cost_parser.set_defaults(run=_cost)
    cost_parser.add_argument(
        "paths",
        nargs="*",
        help="source roots to analyze (default: src/repro)",
    )
    cost_parser.add_argument(
        "--out",
        default=None,
        help="write the certificate here, one operation per line "
        "(analysis/cost_baseline.json regenerates the committed baseline)",
    )
    cost_parser.add_argument(
        "--structures",
        default=None,
        help="comma-separated structure classes to certify "
        "(default: the registered far structures)",
    )
    check_parser = sub.add_parser(
        "check",
        help="unified gate: lint + cost certification (+ sanitized examples)",
    )
    check_parser.set_defaults(run=_check)
    check_parser.add_argument(
        "paths",
        nargs="*",
        help="lint roots (default: src examples); cost always covers src/repro",
    )
    check_parser.add_argument(
        "--sanitize",
        action="append",
        default=[],
        metavar="EXAMPLE",
        help="also run EXAMPLE under the budget sanitizer (repeatable)",
    )
    check_parser.add_argument(
        "--report", default=None, help="write the combined JSON report here"
    )
    races_parser = sub.add_parser(
        "races",
        help="happens-before race detection over a .trace.jsonl export",
    )
    races_parser.set_defaults(run=_races)
    races_parser.add_argument("trace_jsonl", help="path to a .trace.jsonl file")
    topology_parser = sub.add_parser(
        "topology",
        help="dump the extent table (virtual address space topology)",
    )
    topology_parser.set_defaults(run=_topology)
    topology_parser.add_argument(
        "--nodes", type=_node_count, default="2", help="memory node count (default: 2)"
    )
    topology_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON dump"
    )
    topology_parser.add_argument(
        "--demo",
        action="store_true",
        help="exercise add_node/migrate/drain first, so the dump shows remaps",
    )
    stats_parser = sub.add_parser(
        "stats",
        help="run an example under the live telemetry plane and print stats",
    )
    stats_parser.set_defaults(run=_stats)
    stats_parser.add_argument(
        "target", help="example name (e.g. quickstart) or script path"
    )
    stats_parser.add_argument(
        "--out",
        default=None,
        help="also write <name>.prom + <name>.metrics.jsonl snapshots here",
    )
    stats_parser.add_argument(
        "--expect-alerts",
        action="store_true",
        help="exit nonzero unless at least one SLO alert fired",
    )
    stats_parser.add_argument(
        "--forbid-alerts",
        action="store_true",
        help="exit nonzero if any SLO alert fired",
    )
    top_parser = sub.add_parser(
        "top",
        help="run an example and render top-style telemetry frames",
    )
    top_parser.set_defaults(run=_top)
    top_parser.add_argument(
        "target", help="example name (e.g. quickstart) or script path"
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print only the final frame (no periodic frames)",
    )

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
