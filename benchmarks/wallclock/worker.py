"""One workload in one process: the untraced, counting or traced measurement.

``run.py`` starts this file as a subprocess (with ``PYTHONHASHSEED=0``) and
reads the JSON object printed on the last line of standard output. The
three modes never share a process with one another:

``untraced``  identical passes, nothing attached: the host-clock end-to-end
              numbers and the exact simulated ones.
``count``     one pass under ``cProfile``: exact function calls per layer.
``traced``    reference passes, the span pass, a counting pass, and where
              they apply the observer-off passes (``kv_read_observed``) and
              the bypass ladder (``raw_fabric``): per-layer numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import harness  # noqa: E402
from counting import calls_by_layer  # noqa: E402
from ladder import LADDER_METRICS, run_ladder  # noqa: E402
from spans import LAYERS, TRANSLATE_LOOKUPS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Run, Workload  # noqa: E402

from repro.analysis.budget import far_budget  # noqa: E402


def exact_block(workload: Workload, reference: harness.Pass, ops: int) -> dict[str, Any]:
    """Everything that must repeat bit-for-bit for one (workload, seed)."""
    deltas = sorted(reference.deltas)
    return {
        "ops": ops,
        "sim_ns_per_op": reference.sim_ns / ops,
        "far_accesses_per_op": reference.metrics["far_accesses"] / ops,
        "sim_ns_per_op_p50": harness.nearest_rank(deltas, 0.50),
        "sim_ns_per_op_p99": harness.nearest_rank(deltas, 0.99),
        "samples": len(deltas),
        "metrics": reference.metrics,
        "counters": reference.counters,
        "digest": zlib.crc32(repr((reference.results, reference.clocks)).encode()),
    }


def verdict_block(measurement: harness.Measurement) -> dict[str, Any]:
    verdict = measurement.verdict
    return {
        "attempted": verdict.attempted,
        "failed": verdict.failed + verdict.mismatches,
        "mismatches": verdict.mismatches,
        "first_mismatch": verdict.first_mismatch,
        "failed_op_share": (verdict.failed + verdict.mismatches) / verdict.attempted,
    }


def check_injector(reference: harness.Pass) -> None:
    """Two public ledgers of the same events must agree: every request the
    injector dropped is a timeout the client counted."""
    drops = reference.counters.get("injector.drops")
    if drops is not None and drops != reference.metrics["timeouts"]:
        raise harness.DeterminismError(
            f"injector dropped {drops} requests but Metrics.timeouts is "
            f"{reference.metrics['timeouts']}"
        )


def mode_untraced(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    inputs = workload.generate(args.seed, args.smoke)
    m = harness.measure(
        workload,
        inputs,
        smoke=args.smoke,
        seconds=args.seconds,
        min_passes=2 if args.smoke else 3,
    )
    check_injector(m.reference)
    return {
        "exact": exact_block(workload, m.reference, m.ops),
        "verdict": verdict_block(m),
        "host": {
            "setup_s": m.setup_ns / 1e9,
            "host_ops_per_s": m.ops / (m.host_ns / 1e9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_spread": m.pass_spread,
            "calibration_ns": m.calibration_ns,
        },
        "passes": len(m.passes),
        "chunks": len(m.chunk_ns),
    }


def counting_pass(
    workload: Workload, inputs: Any, bounds: list, reference: harness.Pass
) -> tuple[harness.Pass, dict[str, int]]:
    profile = cProfile.Profile()

    def profiled(run: Run, lo: int, hi: int) -> None:
        profile.enable()
        workload.execute(run, lo, hi)
        profile.disable()

    counted, _ = harness.run_pass(workload, inputs, bounds, chunk_runner=profiled)
    harness.check_same(f"{workload.name} counting pass vs untraced", reference, counted)
    return counted, calls_by_layer(profile)


def mode_count(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    inputs = workload.generate(args.seed, args.smoke)
    bounds = harness.chunk_bounds(len(inputs.requests), args.smoke)
    # A fresh process makes a few one-time calls (lazy imports) the first
    # time a path runs; an unprofiled pass first keeps them out of the count.
    warm, _ = harness.run_pass(workload, inputs, bounds)
    counted, layers = counting_pass(workload, inputs, bounds, warm)
    ops = workload.ops_in(inputs, 0, len(inputs.requests))
    return {
        "exact": exact_block(workload, counted, ops),
        "py_calls": {"total": sum(layers.values()), "per_layer": layers},
    }


def budget_passthrough_ns() -> float:
    """Host ns one ``@far_budget`` wrapper adds to a call when no sanitizer
    is active: the same empty method timed with and without the decorator."""

    class Probe:
        def plain(self, client: Any) -> None:
            return None

        budgeted = far_budget(1)(plain)

    probe = Probe()

    def per_call(method: Any) -> float:
        best = None
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(20_000):
                method(None)
            elapsed = time.perf_counter_ns() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best / 20_000

    return max(0.0, per_call(probe.budgeted) - per_call(probe.plain))


def span_pass(
    workload: Workload, inputs: Any, bounds: list, reference: harness.Pass, trace_out: Optional[str]
) -> tuple[SpanRecorder, harness.Pass]:
    recorder = SpanRecorder()

    def by_request(run: Run, lo: int, hi: int) -> None:
        execute = workload.execute
        for i in range(lo, hi):
            recorder.op_id = i
            execute(run, i, i + 1)

    recorder.install()
    try:
        # Set-up runs through the wrappers too; only the chunks are kept.
        traced, _ = harness.run_pass(
            workload,
            inputs,
            bounds,
            chunk_runner=by_request,
            after_setup=lambda run: recorder.reset(),
        )
    finally:
        recorder.uninstall()
    harness.check_same(f"{workload.name} span pass vs untraced", reference, traced)
    if trace_out:
        write_spans(recorder, trace_out)
    return recorder, traced


def write_spans(recorder: SpanRecorder, path: str) -> None:
    origin = recorder.spans[0][4] if recorder.spans else 0
    with open(path, "w") as out:
        for span_id, parent, layer, name, start, end, op in recorder.spans:
            row = {
                "id": span_id,
                "parent": parent,
                "layer": layer,
                "name": name,
                "start_ns": start - origin,
                "end_ns": end - origin,
                "op": op,
            }
            out.write(json.dumps(row) + "\n")


def observer_ratio(inputs: Any, bounds: list, m: harness.Measurement) -> float:
    """``kv_read_observed`` only: its host time / the host time of the same
    requests with no observer attached, which is the ``kv_read`` workload
    over the same inputs. Two such passes, per-chunk minimum."""
    plain = []
    for _ in range(2):
        current, _ = harness.run_pass(WORKLOADS["kv_read"], inputs, bounds)
        harness.check_same("kv_read_observed with the observer off", m.reference, current)
        plain.append(current.chunk_ns)
    return m.host_ns / sum(min(column) for column in zip(*plain))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mode_traced(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    inputs = workload.generate(args.seed, args.smoke)
    bounds = harness.chunk_bounds(len(inputs.requests), args.smoke)
    m = harness.measure(
        workload, inputs, smoke=args.smoke, seconds=args.seconds * 0.25, min_passes=2
    )
    ref, ops = m.reference, m.ops
    check_injector(ref)
    recorder, traced = span_pass(workload, inputs, bounds, ref, args.trace_out)
    span_ns = sum(traced.chunk_ns)
    _, calls = counting_pass(workload, inputs, bounds, ref)

    # The @far_budget wrapper sits between a span and the method it guards,
    # where no outside wrapper can reach: its share is its call count times
    # its measured pass-through cost, moved out of the guarded layer.
    passthrough = budget_passthrough_ns()
    self_ns = dict(recorder.self_ns)
    enters = dict(recorder.enters)
    for layer, count in recorder.budgeted_calls.items():
        moved = min(self_ns[layer], count * passthrough)
        self_ns[layer] -= moved
        self_ns["budget"] += moved
        enters["budget"] += count
    self_ns["other"] += span_ns - recorder.covered_ns()

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / ops / 1e3
        out[f"{layer}.enter_per_op"] = enters[layer] / ops
        out[f"{layer}.py_calls_per_op"] = calls[layer] / ops

    met, cnt = ref.metrics, ref.counters
    far = met["far_accesses"]
    tree_ops = cnt.get("tree.lookups", 0) + cnt.get("tree.updates", 0) + cnt.get("tree.inserts", 0)
    refreshes = cnt.get("tree.stale_refreshes", 0) + cnt.get("tree.cache_loads", 0)
    out["core.chain_hops_per_op"] = cnt.get("tree.chain_hops", 0) / ops
    out["core.cas_retries_per_op"] = cnt.get("tree.cas_retries", 0) / ops
    out["core.cache_hit_ratio"] = 1 - refreshes / tree_ops if tree_ops else 0.0
    out["core.splits"] = cnt.get("tree.splits_total", 0)
    out["client.round_trips_per_op"] = met["round_trips"] / ops
    out["client.bytes_moved_per_op"] = (met["bytes_read"] + met["bytes_written"]) / ops
    out["client.avg_window_depth"] = ratio(met["pipeline_ops"], met["pipeline_flushes"])
    out["client.overlap_efficiency"] = ratio(
        met["overlap_saved_ns"], met["overlap_saved_ns"] + met["pipeline_charged_ns"]
    )
    out["client.stalls_per_op"] = met["pipeline_stalls"] / ops
    out["retry.retries_per_op"] = met["retries"] / ops
    out["retry.timeouts_per_op"] = met["timeouts"] / ops
    out["retry.breaker_trips"] = met["breaker_trips"]
    out["retry.breaker_rejections"] = met["breaker_rejections"]
    out["retry.success_per_attempt"] = ratio(far, far + met["timeouts"])
    lookups = sum(recorder.calls.get(name, 0) for name in TRANSLATE_LOOKUPS)
    out["translate.lookups_per_far_access"] = ratio(lookups, far)
    out["translate.segments_per_far_access"] = ratio(
        (met["network_traversals"] - met["indirection_forwards"]) / 2, far
    )
    out["translate.remapped_extent_share"] = cnt["table.remapped_share"]
    out["memory_node.ops_per_op"] = cnt["node.ops"] / ops
    out["memory_node.bytes_per_op"] = cnt["node.bytes"] / ops
    out["obs.events_per_op"] = cnt["obs.events"] / ops
    # Measured on the one workload it is defined for; 0 means not measured here.
    out["obs.overhead_ratio"] = (
        observer_ratio(inputs, bounds, m) if workload.name == "kv_read_observed" else 0.0
    )
    attempts = met["txn_commits"] + met["txn_aborts"]
    out["txn.commit_ratio"] = ratio(met["txn_commits"], attempts)
    out["txn.far_accesses_per_commit"] = ratio(far, met["txn_commits"])
    # The ladder runs on raw_fabric's cluster and is reported there; 0 elsewhere.
    if workload.name == "raw_fabric":
        out.update(run_ladder(args.seed, args.smoke))
    else:
        out.update(dict.fromkeys(LADDER_METRICS, 0.0))
    out["driver.trace_overhead_ratio"] = span_ns / m.host_ns
    out["driver.calibration_ns"] = m.calibration_ns
    out["driver.host_us_per_op_p99"] = m.per_op_us_p99()
    out["driver.pass_spread"] = m.pass_spread
    exact = exact_block(workload, ref, ops)
    verdict = verdict_block(m)
    out["sim_ns_per_op_p50"] = exact["sim_ns_per_op_p50"]
    out["sim_ns_per_op_p99"] = exact["sim_ns_per_op_p99"]
    out["failed_op_share"] = verdict["failed_op_share"]
    return {
        "exact": exact,
        "verdict": verdict,
        "per_layer": out,
        "py_calls": {"total": sum(calls.values()), "per_layer": calls},
        "span_host_us_per_op": span_ns / ops / 1e3,
    }


MODES = {"untraced": mode_untraced, "count": mode_count, "traced": mode_traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    result = MODES[args.mode](WORKLOADS[args.workload], args)
    result.update(workload=args.workload, seed=args.seed, mode=args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
