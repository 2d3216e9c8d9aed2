"""``run.py --smoke`` end to end: the report matches BENCHMARK.json, both
contract modes print what the contract asks for, runs repeat exactly."""

from __future__ import annotations

import json
import re

import harness
from spans import LAYERS
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_E2E = ("py_calls_per_op", "sim_ns_per_op", "far_accesses_per_op")


def test_report_matches_the_declaration(spec, smoke_report):
    assert [w["name"] for w in spec["workloads"]] == list(smoke_report["workloads"])
    assert list(WORKLOADS) == list(smoke_report["workloads"])
    assert spec["paths"] == ["benchmarks/wallclock"]
    for name, block in smoke_report["workloads"].items():
        assert NAME.fullmatch(name)
        assert block["ops"]["ops_failed"] == 0 and block["ops"]["oracle_mismatches"] == 0
        for section in ("end_to_end", "per_layer"):
            assert list(block[section]) == [m["name"] for m in spec[section]], (name, section)
            for metric, row in block[section].items():
                assert NAME.fullmatch(metric)
                assert row["unit"] and row["better"] in ("higher", "lower")
                assert row["clock"] in ("sim", "host", "exact")
                assert isinstance(row["value"], (int, float))
                assert ("bound" in row) == (section == "end_to_end")
        for metric, row in block["end_to_end"].items():
            assert 0 < row["bound"] <= 0.25 and row["value"] > 0, (name, metric)


def test_every_metric_is_printed_by_name_with_its_unit(spec, smoke_report):
    for metric in spec["end_to_end"] + spec["per_layer"]:
        lines = [ln for ln in smoke_report["_stdout"].splitlines() if f" {metric['name']} " in ln]
        assert len(lines) == len(spec["workloads"]), metric["name"]
        assert all(f" {metric['unit']} " in ln for ln in lines)


def test_layer_attribution_adds_up(smoke_report):
    layers = LAYERS
    for name, block in smoke_report["workloads"].items():
        per_layer, ops = block["per_layer"], block["ops"]
        calls = sum(per_layer[f"{layer}.py_calls_per_op"]["value"] for layer in layers)
        total = block["end_to_end"]["py_calls_per_op"]["value"]
        assert abs(calls - total) <= 1e-9 * total, name
        self_us = sum(per_layer[f"{layer}.self_us_per_op"]["value"] for layer in layers)
        assert abs(self_us - ops["span_host_us_per_op"]) <= 0.10 * ops["span_host_us_per_op"], name
    raw = smoke_report["workloads"]["raw_fabric"]["per_layer"]
    assert raw["core.enter_per_op"]["value"] == 0
    assert raw["translate.remapped_extent_share"]["value"] > 0
    for name, block in smoke_report["workloads"].items():
        per_layer = block["per_layer"]
        # obs does work, and its overhead is measured, on one workload only
        assert (per_layer["obs.enter_per_op"]["value"] > 0) == (name == "kv_read_observed")
        assert (per_layer["obs.overhead_ratio"]["value"] > 0) == (name == "kv_read_observed")
        assert (per_layer["ladder.translate_ns"]["value"] > 0) == (name == "raw_fabric")


def test_contract_mode_prints_the_contract(spec, run_py):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_py("--workload", "kv_update", "--seed", "7", "--smoke", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]
        for metric in spec[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_observed_report_has_kv_read_sim_metrics(smoke_report):
    plain = smoke_report["workloads"]["kv_read"]
    watched = smoke_report["workloads"]["kv_read_observed"]
    for metric in ("sim_ns_per_op", "far_accesses_per_op"):
        assert plain["end_to_end"][metric]["value"] == watched["end_to_end"][metric]["value"]
    for metric in ("sim_ns_per_op_p50", "sim_ns_per_op_p99", "core.chain_hops_per_op"):
        assert plain["per_layer"][metric]["value"] == watched["per_layer"][metric]["value"]


def test_observed_workload_is_kv_read_with_only_obs_added():
    plain, observed = WORKLOADS["kv_read"], WORKLOADS["kv_read_observed"]
    inputs = plain.generate(11, True)
    assert observed.generate(11, True) == inputs
    bounds = harness.chunk_bounds(len(inputs.requests), True)
    first, _ = harness.run_pass(plain, inputs, bounds)
    watched, _ = harness.run_pass(observed, inputs, bounds)
    assert first.counters.pop("obs.events") == 0 and watched.counters.pop("obs.events") > 0
    harness.check_same("kv_read vs kv_read_observed", first, watched)
    assert first.counters == watched.counters and first.deltas == watched.deltas


def test_same_seed_repeats_exactly(smoke_report, smoke_report_again):
    for name, block in smoke_report["workloads"].items():
        again = smoke_report_again["workloads"][name]
        assert block["exact"] == again["exact"], name
        assert block["ops"]["py_calls_total"] == again["ops"]["py_calls_total"], name
        for metric in EXACT_E2E:
            assert block["end_to_end"][metric]["value"] == again["end_to_end"][metric]["value"]
        for metric in ("failed_op_share", "sim_ns_per_op_p50", "sim_ns_per_op_p99"):
            assert block["per_layer"][metric]["value"] == again["per_layer"][metric]["value"]


def test_another_seed_is_another_valid_stream(smoke_report, smoke_report_other_seed):
    for name, block in smoke_report["workloads"].items():
        other = smoke_report_other_seed["workloads"][name]
        assert block["exact"]["digest"] != other["exact"]["digest"], name
        assert other["ops"]["ops_failed"] == 0 and other["ops"]["oracle_mismatches"] == 0


def test_guard_fails_loudly_on_a_divergent_pass():
    workload = WORKLOADS["kv_update"]
    bounds = [(0, 50)]
    first, _ = harness.run_pass(workload, workload.generate(11, True), bounds)
    other, _ = harness.run_pass(workload, workload.generate(12, True), bounds)
    try:
        harness.check_same("seed 11 vs seed 12", first, other)
    except harness.DeterminismError as err:
        assert "seed 11 vs seed 12" in str(err)
    else:
        raise AssertionError("the guard accepted two different op streams")
