"""Pins for every commit step of ``TxnSpace``, recorded before lock,
validate, unlock, roll-back and roll-forward shared one posting primitive.

Each scenario is run twice, untraced and with a ``Tracer`` attached, and
every measured step records the acting client's full ``Metrics`` delta and
clock delta, the exception it raised (type, ``reason``, ``slot``,
``__cause__`` type), the ``TxnRecoveryReport`` it returned, and — traced —
the payloads of its ``window`` / ``txn_validate`` / ``txn_abort`` /
``txn_commit`` events. Both runs must agree (zero observer effect) and
match ``PINNED``; a change to the commit path must leave the table
untouched, so window shapes and abort causes are checked, not only end
states and far-access totals."""

from dataclasses import astuple

import pytest

from repro.apps.kvstore import FarKVStore
from repro.fabric import FaultPlan, RetryPolicy
from repro.fabric.client import Client
from repro.obs import Tracer
from repro.txn import TxnRecoveryReport

from .conftest import PAYLOAD, seed_cells, txn_cluster

KINDS = ("window", "txn_validate", "txn_abort", "txn_commit")
#: A crash phase -> how many of the commit's posts land before the owner
#: dies. The warm W=2, R=1 commit posts 2 lock CAS, 1 validate FAA, the
#: seal, then 2 write-back scatters; the KV commit 3 lock CAS, then the seal.
PHASES = {"before_lock": 0, "after_lock": 2, "after_seal": 4, "mid_writeback": 5}
KV_PHASES = {"after_lock": 3, "after_seal": 4}
#: Far accesses of the warm W=2, R=1 cell commit: 2 lock CAS, 1 validate
#: FAA, the seal, 2 write-back scatters, 2 unlocks and the tombstone.
COMMIT_ACCESSES = 9


def _flat(value):
    """A payload value as text: ``window``'s ``ops`` entries become
    ``op,charge_ns,span_id``."""
    if isinstance(value, dict):
        return ",".join(str(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return " ".join(_flat(item) for item in value)
    return str(value)


class _Probe:
    """One run of a scenario: makes its clients (traced or not) and
    records each measured step under a label."""

    def __init__(self, traced):
        self.tracer = Tracer() if traced else None
        self.steps = {}

    def client(self, cluster, name, **kwargs):
        client = cluster.client(name, **kwargs)
        if self.tracer is not None:
            self.tracer.attach(client)
        return client

    def act(self, label, client, fn):
        before, start_ns = client.metrics.snapshot(), client.clock.now_ns
        first = len(self.tracer.events) if self.tracer is not None else 0
        raised = report = None
        try:
            result = fn()
        except Exception as err:
            cause = err.__cause__
            raised = (
                type(err).__name__,
                getattr(err, "reason", None),
                getattr(err, "slot", None),
                None if cause is None else type(cause).__name__,
            )
        else:
            if isinstance(result, TxnRecoveryReport):
                report = astuple(result)
        delta = client.metrics.delta(before).as_dict()
        counters = " ".join(f"{key}={value}" for key, value in delta.items() if value)
        step = [counters, client.clock.now_ns - start_ns, raised, report]
        if self.tracer is not None:
            step.append(
                [
                    " ".join([event.kind, *(_flat(v) for v in event.data.values())])
                    for event in self.tracer.events[first:]
                    if event.client == client.name and event.kind in KINDS
                ]
            )
        self.steps[label] = tuple(step)


def _space(probe, cells=3, **kwargs):
    cluster = txn_cluster()
    owner = probe.client(cluster, "owner", **kwargs)
    space = cluster.txn_space(owner)
    addrs = seed_cells(cluster, space, owner, cells)
    space.register(owner)
    return cluster, owner, space, addrs


def _stores(cluster, owner):
    registry = cluster.registry()
    return [
        FarKVStore.create(cluster, registry, owner, name, bucket_count=64)
        for name in ("left", "right")
    ]


def _w2_r1(space, client, addrs):
    a, b, r = addrs
    txn = space.begin(client)
    space.read(client, txn, r, PAYLOAD)
    space.write(client, txn, a, b"A" * PAYLOAD)
    space.write(client, txn, b, b"B" * PAYLOAD)
    return txn


def _kv_puts(space, client, stores):
    left, right = stores
    txn = space.begin(client)
    left.txn_multiput(client, space, txn, [("x", b"1"), ("y", b"22")])
    right.txn_multiput(client, space, txn, [("z", b"333")])
    return txn


def commit_w2_r1(probe):
    _, owner, space, addrs = _space(probe)
    txn = _w2_r1(space, owner, addrs)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def commit_kv(probe):
    cluster, owner, space, (cell,) = _space(probe, cells=1)
    stores = _stores(cluster, owner)
    txn = _kv_puts(space, owner, stores)
    space.write(owner, txn, cell, b"C" * PAYLOAD)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def commit_read_only(probe):
    _, owner, space, (a, b) = _space(probe, cells=2)
    txn = space.begin(owner)
    space.read(owner, txn, a, PAYLOAD)
    space.read(owner, txn, b, PAYLOAD)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def lock_conflict(probe):
    cluster, owner, space, addrs = _space(probe)
    rival = probe.client(cluster, "rival")
    txn = _w2_r1(space, owner, addrs)
    other = space.begin(rival)
    space.write(rival, other, addrs[0], b"R" * PAYLOAD)
    space.commit(rival, other)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def validate_conflict(probe):
    cluster, owner, space, addrs = _space(probe)
    rival = probe.client(cluster, "rival")
    txn = _w2_r1(space, owner, addrs)
    other = space.begin(rival)
    space.write(rival, other, addrs[2], b"R" * PAYLOAD)
    space.commit(rival, other)
    probe.act("commit", owner, lambda: space.commit(owner, txn))


def _timeout_at(index):
    def scenario(probe):
        cluster, owner, space, addrs = _space(
            probe, retry_policy=RetryPolicy(max_attempts=1), breaker_policy=None
        )
        txn = _w2_r1(space, owner, addrs)
        cluster.inject_faults(plan=FaultPlan().timeout_at(index))
        probe.act("commit", owner, lambda: space.commit(owner, txn))

    return scenario


def _crash(posts):
    def scenario(probe):
        cluster, owner, space, addrs = _space(probe)
        txn = _w2_r1(space, owner, addrs)
        owner.crash_after(posts)
        probe.act("commit", owner, lambda: space.commit(owner, txn))
        surgeon = probe.client(cluster, "surgeon")
        probe.act("recover", surgeon, lambda: space.recover(surgeon, owner.client_id))

    return scenario


def _kv_crash(posts):
    def scenario(probe):
        cluster, owner, space, _ = _space(probe, cells=0)
        stores = _stores(cluster, owner)
        txn = _kv_puts(space, owner, stores)
        owner.crash_after(posts)
        probe.act("commit", owner, lambda: space.commit(owner, txn))
        surgeon = probe.client(cluster, "surgeon")
        low, _ = sorted(stores, key=lambda store: store.txn_tag)
        every = {store.txn_tag: store for store in stores}
        # A mapping that misses a sealed tag replays the tags before it,
        # then refuses; a second call with every store completes the job.
        probe.act(
            "recover_one_store",
            surgeon,
            lambda: space.recover(surgeon, owner.client_id, stores={low.txn_tag: low}),
        )
        probe.act(
            "recover_every_store",
            surgeon,
            lambda: space.recover(surgeon, owner.client_id, stores=every),
        )

    return scenario


SCENARIOS = {
    "commit_w2_r1": commit_w2_r1,
    "commit_kv": commit_kv,
    "commit_read_only": commit_read_only,
    "lock_conflict": lock_conflict,
    "validate_conflict": validate_conflict,
    **{f"timeout_at_{k}": _timeout_at(k) for k in range(COMMIT_ACCESSES)},
    **{f"crash_{phase}": _crash(posts) for phase, posts in PHASES.items()},
    **{f"kv_crash_{phase}": _kv_crash(posts) for phase, posts in KV_PHASES.items()},
}


def _observe(scenario, traced):
    Client.reset_ids()
    probe = _Probe(traced)
    scenario(probe)
    return probe.steps


def observed(name):
    """Every step of scenario ``name``: the untraced run's observations
    with the traced run's events appended (the two runs must agree)."""
    bare = _observe(SCENARIOS[name], traced=False)
    traced = _observe(SCENARIOS[name], traced=True)
    assert {label: step[:4] for label, step in traced.items()} == bare
    return traced


#: Recorded on the parent of the commit that gave lock, validate, unlock,
#: roll-back and roll-forward one posting primitive: scenario -> step ->
#: (nonzero Metrics delta, clock delta, (exception type, reason, slot,
#: cause type) or None, TxnRecoveryReport fields or None, traced events).
PINNED = {
    "commit_w2_r1": {
        "commit": (
            "far_accesses=9 round_trips=9 network_traversals=18 bytes_read=24 bytes_written=4216 "
            "atomic_ops=3 pipeline_ops=9 pipeline_flushes=6 pipeline_charged_ns=9766 "
            "overlap_saved_ns=2850 txn_commits=1 custom.fences=2",
            9766.0,
            None,
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 1050.0 2000.0 950.0 reap 2 wscatter,1000.0,1 wscatter,1000.0,1",
                "window 16164.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,1 write_u64,1000.0,1",
                "window 17214.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "txn_commit 1048577 2 0 2",
            ],
        ),
    },
    "commit_kv": {
        "commit": (
            "far_accesses=20 round_trips=20 network_traversals=41 near_accesses=3 bytes_read=152 "
            "bytes_written=4336 atomic_ops=7 indirection_forwards=1 pipeline_ops=20 "
            "pipeline_flushes=11 pipeline_charged_ns=15366 overlap_saved_ns=8550 txn_commits=1 "
            "custom.fences=4",
            15666.0,
            None,
            None,
            [
                "window 25906.0 1150.0 4000.0 2850.0 reap 4 cas,1000.0,1 cas,1000.0,1 "
                "cas,1000.0,1 cas,1000.0,1",
                "txn_validate 1048577 0 4 True",
                "window 27056.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 29864.0 1000.0 1000.0 0.0 reap 1 wscatter,1000.0,1",
                "window 31064.0 1050.0 2000.0 950.0 reap 2 load0,1000.0,8 load0,1000.0,8",
                "window 32114.0 1050.0 2000.0 950.0 fence 2 write,1000.0,8 write,1000.0,8",
                "window 33164.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,8 cas,1000.0,8",
                "window 34314.0 1300.0 1300.0 0.0 reap 1 load0,1300.0,9",
                "window 35614.0 1000.0 1000.0 0.0 fence 1 write,1000.0,9",
                "window 36614.0 1000.0 1000.0 0.0 reap 1 cas,1000.0,9",
                "window 37614.0 1150.0 4000.0 2850.0 reap 4 write_u64,1000.0,1 write_u64,1000.0,1 "
                "write_u64,1000.0,1 write_u64,1000.0,1",
                "window 38764.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "txn_commit 1048577 1 3 1",
            ],
        ),
    },
    "commit_read_only": {
        "commit": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=16 bytes_written=16 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=1 pipeline_charged_ns=1050 "
            "overlap_saved_ns=950 txn_commits=1",
            1050.0,
            None,
            None,
            [
                "window 9256.0 1050.0 2000.0 950.0 reap 2 faa,1000.0,1 faa,1000.0,1",
                "txn_validate 1048577 2 0 True",
                "txn_commit 1048577 0 0 0",
            ],
        ),
    },
    "lock_conflict": {
        "commit": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=16 bytes_written=24 "
            "atomic_ops=2 pipeline_ops=3 pipeline_flushes=2 pipeline_charged_ns=2050 "
            "overlap_saved_ns=950 txn_aborts=1 txn_conflicts=1",
            2050.0,
            ("TxnConflictError", "lock_failed", 0, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 write_u64,1000.0,1",
                "txn_abort 1048577 lock_failed 1",
            ],
        ),
    },
    "validate_conflict": {
        "commit": (
            "far_accesses=5 round_trips=5 network_traversals=10 bytes_read=24 bytes_written=40 "
            "atomic_ops=3 pipeline_ops=5 pipeline_flushes=3 pipeline_charged_ns=3100 "
            "overlap_saved_ns=1900 txn_aborts=1 txn_conflicts=1",
            3100.0,
            ("TxnConflictError", "version_changed", 10, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 False",
                "window 12306.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,1 write_u64,1000.0,1",
                "txn_abort 1048577 version_changed 1",
            ],
        ),
    },
    "timeout_at_0": {
        "commit": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=8 bytes_written=16 "
            "atomic_ops=1 timeouts=1 pipeline_ops=3 pipeline_flushes=2 pipeline_charged_ns=11050 "
            "overlap_saved_ns=950 txn_aborts=1",
            11050.0,
            ("TxnAbortError", "fabric_fault", None, "FarTimeoutError"),
            None,
            [
                "window 10256.0 10050.0 11000.0 950.0 reap 2 cas,10000.0,1 cas,1000.0,1",
                "window 20306.0 1000.0 1000.0 0.0 reap 1 write_u64,1000.0,1",
                "txn_abort 1048577 fabric_fault 1",
            ],
        ),
    },
    "timeout_at_1": {
        "commit": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=8 bytes_written=16 "
            "atomic_ops=1 timeouts=1 pipeline_ops=3 pipeline_flushes=2 pipeline_charged_ns=11050 "
            "overlap_saved_ns=950 txn_aborts=1",
            11050.0,
            ("TxnAbortError", "fabric_fault", None, "FarTimeoutError"),
            None,
            [
                "window 10256.0 10050.0 11000.0 950.0 reap 2 cas,1000.0,1 cas,10000.0,1",
                "window 20306.0 1000.0 1000.0 0.0 reap 1 write_u64,1000.0,1",
                "txn_abort 1048577 fabric_fault 1",
            ],
        ),
    },
    "timeout_at_2": {
        "commit": (
            "far_accesses=4 round_trips=4 network_traversals=8 bytes_read=16 bytes_written=32 "
            "atomic_ops=2 timeouts=1 pipeline_ops=5 pipeline_flushes=3 pipeline_charged_ns=12100 "
            "overlap_saved_ns=1900 txn_aborts=1",
            12100.0,
            ("TxnAbortError", "fabric_fault", None, "FarTimeoutError"),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 10000.0 10000.0 0.0 reap 1 faa,10000.0,1",
                "txn_validate 1048577 1 2 False",
                "window 21306.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,1 write_u64,1000.0,1",
                "txn_abort 1048577 fabric_fault 1",
            ],
        ),
    },
    "timeout_at_3": {
        "commit": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=24 bytes_written=24 "
            "atomic_ops=3 timeouts=1 pipeline_ops=4 pipeline_flushes=3 pipeline_charged_ns=12050 "
            "overlap_saved_ns=950",
            12050.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 10000.0 10000.0 0.0 reap 1 write,10000.0,1",
            ],
        ),
    },
    "timeout_at_4": {
        "commit": (
            "far_accesses=5 round_trips=5 network_traversals=10 bytes_read=24 bytes_written=2112 "
            "atomic_ops=3 timeouts=1 pipeline_ops=6 pipeline_flushes=4 pipeline_charged_ns=14908 "
            "overlap_saved_ns=1900 custom.fences=1",
            14908.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 10050.0 11000.0 950.0 reap 2 wscatter,10000.0,1 wscatter,1000.0,1",
            ],
        ),
    },
    "timeout_at_5": {
        "commit": (
            "far_accesses=5 round_trips=5 network_traversals=10 bytes_read=24 bytes_written=2112 "
            "atomic_ops=3 timeouts=1 pipeline_ops=6 pipeline_flushes=4 pipeline_charged_ns=14908 "
            "overlap_saved_ns=1900 custom.fences=1",
            14908.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 10050.0 11000.0 950.0 reap 2 wscatter,1000.0,1 wscatter,10000.0,1",
            ],
        ),
    },
    "timeout_at_6": {
        "commit": (
            "far_accesses=7 round_trips=7 network_traversals=14 bytes_read=24 bytes_written=2144 "
            "atomic_ops=3 timeouts=1 pipeline_ops=8 pipeline_flushes=5 pipeline_charged_ns=15958 "
            "overlap_saved_ns=2850 custom.fences=2",
            15958.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 1050.0 2000.0 950.0 reap 2 wscatter,1000.0,1 wscatter,1000.0,1",
                "window 16164.0 10050.0 11000.0 950.0 reap 2 write_u64,10000.0,1 "
                "write_u64,1000.0,1",
            ],
        ),
    },
    "timeout_at_7": {
        "commit": (
            "far_accesses=7 round_trips=7 network_traversals=14 bytes_read=24 bytes_written=2144 "
            "atomic_ops=3 timeouts=1 pipeline_ops=8 pipeline_flushes=5 pipeline_charged_ns=15958 "
            "overlap_saved_ns=2850 custom.fences=2",
            15958.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 1050.0 2000.0 950.0 reap 2 wscatter,1000.0,1 wscatter,1000.0,1",
                "window 16164.0 10050.0 11000.0 950.0 reap 2 write_u64,1000.0,1 "
                "write_u64,10000.0,1",
            ],
        ),
    },
    "timeout_at_8": {
        "commit": (
            "far_accesses=8 round_trips=8 network_traversals=16 bytes_read=24 bytes_written=2152 "
            "atomic_ops=3 timeouts=1 pipeline_ops=9 pipeline_flushes=6 pipeline_charged_ns=16958 "
            "overlap_saved_ns=2850 custom.fences=2",
            16958.0,
            ("FarTimeoutError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
                "window 15114.0 1050.0 2000.0 950.0 reap 2 wscatter,1000.0,1 wscatter,1000.0,1",
                "window 16164.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,1 write_u64,1000.0,1",
                "window 17214.0 10000.0 10000.0 0.0 reap 1 write,10000.0,1",
            ],
        ),
    },
    "crash_before_lock": {
        "commit": (
            "",
            0.0,
            ("ClientDeadError", None, None, None),
            None,
            [],
        ),
        "recover": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=2640 verified_reads=1 "
            "verify_misses=1 pipeline_ops=3 pipeline_flushes=3 pipeline_charged_ns=5064",
            5064.0,
            None,
            (0, "none", 0, 0, 0),
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,2",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,2",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,2",
            ],
        ),
    },
    "crash_after_lock": {
        "commit": (
            "far_accesses=2 round_trips=2 network_traversals=4 bytes_read=16 bytes_written=16 "
            "atomic_ops=2 pipeline_ops=2 pipeline_flushes=1 pipeline_charged_ns=1050 "
            "overlap_saved_ns=950",
            1050.0,
            ("ClientDeadError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
            ],
        ),
        "recover": (
            "far_accesses=6 round_trips=6 network_traversals=12 bytes_read=2640 "
            "bytes_written=2080 verified_reads=1 verify_misses=1 pipeline_ops=6 "
            "pipeline_flushes=5 pipeline_charged_ns=8922 overlap_saved_ns=950 txn_rollbacks=1",
            8922.0,
            None,
            (0, "rollback", 2, 0, 0),
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,2",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,2",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,2",
                "window 5064.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,2 write_u64,1000.0,2",
                "window 6114.0 2808.0 2808.0 0.0 reap 1 write,2808.0,2",
            ],
        ),
    },
    "crash_after_seal": {
        "commit": (
            "far_accesses=4 round_trips=4 network_traversals=8 bytes_read=24 bytes_written=2088 "
            "atomic_ops=3 pipeline_ops=4 pipeline_flushes=3 pipeline_charged_ns=4858 "
            "overlap_saved_ns=950 custom.fences=1",
            4858.0,
            ("ClientDeadError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
            ],
        ),
        "recover": (
            "far_accesses=10 round_trips=10 network_traversals=20 bytes_read=2688 "
            "bytes_written=2128 verified_reads=1 pipeline_ops=10 pipeline_flushes=7 "
            "pipeline_charged_ns=11022 overlap_saved_ns=2850 txn_rollforwards=1 custom.fences=1",
            11022.0,
            None,
            (0, "rollforward", 2, 2, 0),
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,2",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,2",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,2",
                "window 5064.0 1050.0 2000.0 950.0 reap 2 read,1000.0,2 read,1000.0,2",
                "window 6114.0 1050.0 2000.0 950.0 reap 2 write,1000.0,2 write,1000.0,2",
                "window 7164.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,2 write_u64,1000.0,2",
                "window 8214.0 2808.0 2808.0 0.0 reap 1 write,2808.0,2",
            ],
        ),
    },
    "crash_mid_writeback": {
        "commit": (
            "far_accesses=5 round_trips=5 network_traversals=10 bytes_read=24 bytes_written=2112 "
            "atomic_ops=3 pipeline_ops=5 pipeline_flushes=3 pipeline_charged_ns=4858 "
            "overlap_saved_ns=950 custom.fences=1",
            4858.0,
            ("ClientDeadError", None, None, None),
            None,
            [
                "window 10256.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,1 cas,1000.0,1",
                "window 11306.0 1000.0 1000.0 0.0 reap 1 faa,1000.0,1",
                "txn_validate 1048577 1 2 True",
                "window 12306.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
            ],
        ),
        "recover": (
            "far_accesses=10 round_trips=10 network_traversals=20 bytes_read=2688 "
            "bytes_written=2128 verified_reads=1 pipeline_ops=10 pipeline_flushes=7 "
            "pipeline_charged_ns=11022 overlap_saved_ns=2850 txn_rollforwards=1 custom.fences=1",
            11022.0,
            None,
            (0, "rollforward", 2, 2, 0),
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,2",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,2",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,2",
                "window 5064.0 1050.0 2000.0 950.0 reap 2 read,1000.0,2 read,1000.0,2",
                "window 6114.0 1050.0 2000.0 950.0 reap 2 write,1000.0,2 write,1000.0,2",
                "window 7164.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,2 write_u64,1000.0,2",
                "window 8214.0 2808.0 2808.0 0.0 reap 1 write,2808.0,2",
            ],
        ),
    },
    "kv_crash_after_lock": {
        "commit": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=24 bytes_written=24 "
            "atomic_ops=3 pipeline_ops=3 pipeline_flushes=1 pipeline_charged_ns=1100 "
            "overlap_saved_ns=1900",
            1100.0,
            ("ClientDeadError", None, None, None),
            None,
            [
                "window 23906.0 1100.0 3000.0 1900.0 reap 3 cas,1000.0,1 cas,1000.0,1 "
                "cas,1000.0,1",
                "txn_validate 1048577 0 3 True",
            ],
        ),
        "recover_one_store": (
            "far_accesses=7 round_trips=7 network_traversals=14 bytes_read=2640 "
            "bytes_written=2088 verified_reads=1 verify_misses=1 pipeline_ops=7 "
            "pipeline_flushes=5 pipeline_charged_ns=8972 overlap_saved_ns=1900 txn_rollbacks=1",
            8972.0,
            None,
            (0, "rollback", 3, 0, 0),
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,8",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,8",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,8",
                "window 5064.0 1100.0 3000.0 1900.0 reap 3 write_u64,1000.0,8 write_u64,1000.0,8 "
                "write_u64,1000.0,8",
                "window 6164.0 2808.0 2808.0 0.0 reap 1 write,2808.0,8",
            ],
        ),
        "recover_every_store": (
            "far_accesses=3 round_trips=3 network_traversals=6 bytes_read=2640 verified_reads=1 "
            "pipeline_ops=3 pipeline_flushes=3 pipeline_charged_ns=5064",
            5064.0,
            None,
            (0, "none", 0, 0, 0),
            [
                "window 8972.0 1000.0 1000.0 0.0 reap 1 read,1000.0,8",
                "window 9972.0 1256.0 1256.0 0.0 reap 1 read,1256.0,8",
                "window 11228.0 2808.0 2808.0 0.0 reap 1 read,2808.0,8",
            ],
        ),
    },
    "kv_crash_after_seal": {
        "commit": (
            "far_accesses=4 round_trips=4 network_traversals=8 near_accesses=1 bytes_read=24 "
            "bytes_written=2088 atomic_ops=3 pipeline_ops=4 pipeline_flushes=2 "
            "pipeline_charged_ns=3908 overlap_saved_ns=1900 custom.fences=1",
            4008.0,
            ("ClientDeadError", None, None, None),
            None,
            [
                "window 23906.0 1100.0 3000.0 1900.0 reap 3 cas,1000.0,1 cas,1000.0,1 "
                "cas,1000.0,1",
                "txn_validate 1048577 0 3 True",
                "window 25006.0 2808.0 2808.0 0.0 reap 1 write,2808.0,1",
            ],
        ),
        "recover_one_store": (
            "far_accesses=11 round_trips=11 network_traversals=22 near_accesses=2 bytes_read=2776 "
            "bytes_written=80 atomic_ops=2 verified_reads=1 pipeline_ops=11 pipeline_flushes=8 "
            "pipeline_charged_ns=10214 overlap_saved_ns=2850 custom.fences=1",
            10414.0,
            ("ValueError", None, None, None),
            None,
            [
                "window 0.0 1000.0 1000.0 0.0 reap 1 read,1000.0,9",
                "window 1000.0 1256.0 1256.0 0.0 reap 1 read,1256.0,9",
                "window 2256.0 2808.0 2808.0 0.0 reap 1 read,2808.0,9",
                "window 5064.0 1000.0 1000.0 0.0 reap 1 read,1000.0,10",
                "window 6064.0 1000.0 1000.0 0.0 reap 1 read,1000.0,10",
                "window 7264.0 1050.0 2000.0 950.0 reap 2 load0,1000.0,10 load0,1000.0,10",
                "window 8314.0 1050.0 2000.0 950.0 fence 2 write,1000.0,10 write,1000.0,10",
                "window 9364.0 1050.0 2000.0 950.0 reap 2 cas,1000.0,10 cas,1000.0,10",
            ],
        ),
        "recover_every_store": (
            "far_accesses=16 round_trips=16 network_traversals=33 near_accesses=3 bytes_read=2800 "
            "bytes_written=2144 atomic_ops=1 indirection_forwards=1 verified_reads=1 "
            "pipeline_ops=16 pipeline_flushes=12 pipeline_charged_ns=16372 overlap_saved_ns=3800 "
            "txn_rollforwards=1 custom.fences=2",
            16672.0,
            None,
            (0, "rollforward", 3, 0, 3),
            [
                "window 10414.0 1000.0 1000.0 0.0 reap 1 read,1000.0,9",
                "window 11414.0 1256.0 1256.0 0.0 reap 1 read,1256.0,9",
                "window 12670.0 2808.0 2808.0 0.0 reap 1 read,2808.0,9",
                "window 15678.0 1050.0 2000.0 950.0 reap 2 load0,1000.0,11 load0,1000.0,11",
                "window 16728.0 1050.0 2000.0 950.0 reap 2 write_u64,1000.0,11 "
                "write_u64,1000.0,11",
                "window 17778.0 1000.0 1000.0 0.0 reap 1 read,1000.0,12",
                "window 18778.0 1000.0 1000.0 0.0 reap 1 read,1000.0,12",
                "window 19878.0 1300.0 1300.0 0.0 reap 1 load0,1300.0,12",
                "window 21178.0 1000.0 1000.0 0.0 fence 1 write,1000.0,12",
                "window 22178.0 1000.0 1000.0 0.0 reap 1 cas,1000.0,12",
                "window 23178.0 1100.0 3000.0 1900.0 reap 3 write_u64,1000.0,9 write_u64,1000.0,9 "
                "write_u64,1000.0,9",
                "window 24278.0 2808.0 2808.0 0.0 reap 1 write,2808.0,9",
            ],
        ),
    },
}


def test_pins_cover_every_scenario():
    assert set(PINNED) == set(SCENARIOS)
    assert f"far_accesses={COMMIT_ACCESSES} " in PINNED["commit_w2_r1"]["commit"][0]


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_commit_steps_match_the_pinned_table(name):
    assert observed(name) == PINNED[name]
