"""The failure-accounting paths of the three oracles.

The benchmark's workloads are tuned so that no op fails (the builder's
contract asks for that), which means no run ever feeds a failed op to
``verify``. These tests do: they run a real pass, then replace results with
what ``Run.settle`` records for a typed fabric error, or with a wrong value.
"""

from __future__ import annotations

import harness
from workloads import WORKLOADS, KvInputs, _preload_value, is_error, normalize

from repro.fabric.errors import FarTimeoutError

ERROR = normalize(FarTimeoutError(0, 0x1000, "injected"))


def _ran(name: str):
    workload = WORKLOADS[name]
    inputs = workload.generate(11, True)
    bounds = harness.chunk_bounds(len(inputs.requests), True)
    _, run = harness.run_pass(workload, inputs, bounds, keep_run=True)
    clean = workload.verify(inputs, run)
    assert (clean.failed, clean.mismatches) == (0, 0)
    return workload, inputs, run, clean


def test_a_typed_error_is_recorded_as_an_error():
    assert is_error(ERROR) and ERROR == ("error", "FarTimeoutError")
    assert not is_error(7) and not is_error((1, True))


def test_kv_oracle_counts_failed_ops_and_accepts_either_value_after_a_failed_put():
    workload = WORKLOADS["kv_update"]
    inputs = KvInputs(seed=0, keys=8, requests=[(True, 1, 70), (False, 1, 0), (False, 2, 0)])
    _, run = harness.run_pass(workload, inputs, [(0, 3)], keep_run=True)
    assert run.results[1:] == [70, _preload_value(2)]  # the put landed
    clean = workload.verify(inputs, run)
    assert (clean.attempted, clean.failed, clean.mismatches) == (3, 0, 0)

    run.results[0] = ERROR  # the put raised: it may or may not have landed
    for seen in (70, _preload_value(1)):
        run.results[1] = seen
        verdict = workload.verify(inputs, run)
        assert (verdict.failed, verdict.mismatches) == (1, 0), seen
    run.results[1] = 71  # a value nobody wrote
    verdict = workload.verify(inputs, run)
    assert (verdict.failed, verdict.mismatches) == (1, 1)
    assert "get(1)" in verdict.first_mismatch
    run.results[1] = ERROR  # a failed get is a failed op, not a mismatch
    verdict = workload.verify(inputs, run)
    assert (verdict.attempted, verdict.failed, verdict.mismatches) == (3, 2, 0)


def test_raw_fabric_oracle_counts_every_op_of_a_failed_window():
    workload, inputs, run, clean = _ran("raw_fabric")
    window_at = next(i for i, (kind, _) in enumerate(inputs.requests) if kind == "window")
    single_at = next(i for i, (kind, _) in enumerate(inputs.requests) if kind == "read_u64")
    run.results[window_at] = run.results[single_at] = ERROR
    verdict = workload.verify(inputs, run)
    assert verdict.attempted == clean.attempted == inputs.ops[-1]
    assert (verdict.failed, verdict.mismatches) == (16 + 1, 0)
    run.results[single_at] = inputs.expected[single_at] + 1
    verdict = workload.verify(inputs, run)
    assert (verdict.failed, verdict.mismatches) == (16, 1)
    assert f"request {single_at} read_u64" in verdict.first_mismatch


def test_txn_oracle_counts_both_transfers_of_a_failed_round():
    workload, inputs, run, clean = _ran("txn_transfer")
    run.results[3] = ERROR
    verdict = workload.verify(inputs, run)
    # the ledger can no longer be replayed, the conserved total still can
    assert (verdict.attempted, verdict.failed, verdict.mismatches) == (clean.attempted, 2, 0)
    run.results[3] = not inputs.requests[3][5]  # an abort pattern the inputs rule out
    verdict = workload.verify(inputs, run)
    assert verdict.failed == 0 and verdict.mismatches >= 1
    assert "round 3" in verdict.first_mismatch
