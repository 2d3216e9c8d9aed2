"""Chaos integration test: data structures under seeded transient faults.

A seeded :class:`FaultPlan` mixes flaky windows, random dropped
completions, and latency spikes while clients drive HT-tree lookups,
queue enqueue/dequeue, and replicated reads. The contract under chaos:

* every operation either completes or raises a **typed**
  :class:`FabricError` subclass — never hangs, never a bare exception;
* no operation corrupts data — timed-out requests were never executed
  (request-drop semantics), so values read back are always values that
  were written, and FIFO order survives;
* the retry layer and injector account for everything they did, and the
  whole scenario replays bit-identically from the same seed.
"""

from __future__ import annotations

import dataclasses

from repro import Cluster
from repro.fabric import FaultPlan, RetryPolicy
from repro.fabric.errors import FabricError, FarTimeoutError, QueueEmpty, QueueFull
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import LeasedFarMutex, QueueScrubber

NODE_SIZE = 8 << 20
CHAOS_PLAN_SEED = 1337
REPLICATED = b"4242" * 2


def chaos_plan() -> FaultPlan:
    return (
        FaultPlan()
        .random_timeouts(0.04)
        .random_spikes(0.05, multiplier=4.0)
        .random_flaky(0.004, duration=6)
        .flaky_at(40, node=0, duration=10)
        .timeout_at(200)
    )


class TestChaosWorkload:
    def _run_scenario(self, seed: int):
        """Drive tree/queue/replica traffic under one seeded fault plan and
        return every counter the scenario produced."""
        from repro.fabric import Client

        # Jitter tokens derive from client ids: reset the global counter so
        # back-to-back scenario runs are bit-identical.
        Client.reset_ids()
        cluster = Cluster(node_count=3, node_size=NODE_SIZE)
        tree = cluster.ht_tree(bucket_count=64, initial_leaves=2)
        queue = cluster.far_queue(capacity=64, max_clients=2)
        region = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=8, block_count=1, copies=2
        )

        # Populate fault-free so chaos only perturbs the read/propagate
        # phase, then arm the injector.
        setup = cluster.client("setup")
        for key in range(64):
            tree.put(setup, key, key * 3)
        region.write_block(setup, 0, REPLICATED)
        injector = cluster.inject_faults(seed=seed, plan=chaos_plan())

        c = cluster.client("chaos", retry_policy=RetryPolicy(max_attempts=3))
        outcomes: list[str] = []
        dequeued: list[int] = []
        next_value = 1
        for i in range(300):
            kind = i % 3
            try:
                if kind == 0:
                    value = tree.get(c, i % 64)
                    assert value == (i % 64) * 3  # never stale garbage
                    outcomes.append("tree-hit")
                elif kind == 1:
                    if i % 6 == 1:
                        queue.enqueue(c, next_value)
                        next_value += 1
                        outcomes.append("enq")
                    else:
                        dequeued.append(queue.dequeue(c))
                        outcomes.append("deq")
                else:
                    assert region.read_block(c, 0) == REPLICATED
                    outcomes.append("replica")
            except (QueueEmpty, QueueFull):
                outcomes.append("queue-edge")
            except FabricError as err:
                # Typed failure: retries/breakers exhausted. Allowed, but
                # it must be the *typed* hierarchy, nothing else.
                outcomes.append(f"fault:{type(err).__name__}")
        # FIFO survives chaos: values drain in the order they entered.
        assert dequeued == sorted(dequeued)
        assert all(v > 0 for v in dequeued)
        counters = {
            "outcomes": outcomes,
            "dequeued": dequeued,
            "faults_injected": injector.stats.faults_injected,
            "injector": dataclasses.asdict(injector.stats),
            "retries": c.metrics.retries,
            "timeouts": c.metrics.timeouts,
            "backoff_ns": c.metrics.backoff_ns,
            "far_accesses": c.metrics.far_accesses,
            "breaker_trips": c.metrics.breaker_trips,
            "failovers": region.stats.failovers,
        }
        return counters

    def test_every_op_completes_or_raises_typed(self):
        counters = self._run_scenario(CHAOS_PLAN_SEED)
        assert len(counters["outcomes"]) == 300  # nothing hung or vanished
        # The plan actually bit: faults were injected and absorbed.
        assert counters["faults_injected"] > 0
        assert counters["timeouts"] > 0
        assert counters["retries"] > 0
        assert counters["backoff_ns"] > 0
        # Retries hid most faults: a solid majority of ops completed even
        # through the flaky windows (which drop every attempt for their
        # duration and trip breakers).
        completed = [o for o in counters["outcomes"] if not o.startswith("fault:")]
        assert len(completed) >= 200
        # Escaped faults are all from the typed hierarchy (the except
        # clause guarantees it; assert the scenario exercised it at all).
        escaped = [o for o in counters["outcomes"] if o.startswith("fault:")]
        assert escaped, "chaos plan too gentle: nothing escaped the retry layer"

    def test_chaos_replays_bit_identically(self):
        first = self._run_scenario(CHAOS_PLAN_SEED)
        second = self._run_scenario(CHAOS_PLAN_SEED)
        assert first == second

    def test_different_seed_different_chaos(self):
        first = self._run_scenario(CHAOS_PLAN_SEED)
        second = self._run_scenario(CHAOS_PLAN_SEED + 1)
        assert first["injector"] != second["injector"]


class TestLeaseUnderFaults:
    def test_try_acquire_tolerates_timeouts(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        lease = LeasedFarMutex.create(cluster.allocator, ttl_epochs=16)
        cluster.inject_faults(
            seed=5, plan=FaultPlan().random_timeouts(0.3)
        )
        c = cluster.client(retry_policy=RetryPolicy(max_attempts=2))
        acquired = 0
        for _ in range(30):
            try:
                if lease.try_acquire(c):
                    acquired += 1
                    lease.release(c)
            except FarTimeoutError:
                pass  # release may exhaust retries; the lease expires
        assert acquired > 0
        assert lease.stats.attempts == 30
        # Some acquisition attempts were absorbed as timeouts, not errors.
        assert lease.stats.timeouts > 0

    def test_mutual_exclusion_survives_timeouts(self):
        """A try_acquire that timed out mid-CAS must not leave the lock
        stolen: either the winner holds it, or it is cleanly free."""
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        lease = LeasedFarMutex.create(cluster.allocator, ttl_epochs=1 << 30)
        holder = cluster.client("holder")
        assert lease.try_acquire(holder)
        cluster.inject_faults(seed=7, plan=FaultPlan().random_timeouts(0.5))
        rival = cluster.client("rival", retry_policy=RetryPolicy(max_attempts=2))
        for _ in range(20):
            try:
                assert not lease.try_acquire(rival)
            except FarTimeoutError:
                pass
        cluster.fabric.set_fault_injector(None)
        assert lease.holder(holder) == holder.client_id


class TestScrubUnderFaults:
    def test_scrub_restarts_and_recovers(self):
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        queue = cluster.far_queue(capacity=24, max_clients=2)
        producer = cluster.client("producer")
        for value in (11, 22, 33):
            queue.enqueue(producer, value)

        cluster.inject_faults(seed=2, plan=FaultPlan().random_timeouts(0.25))
        scrubber = QueueScrubber(queue)
        healer = cluster.client("healer", retry_policy=RetryPolicy(max_attempts=2))
        report = None
        for _ in range(12):  # persistence against an unlucky seed
            try:
                report = scrubber.scrub(healer, max_restarts=3)
                break
            except FarTimeoutError:
                continue
        assert report is not None
        cluster.fabric.set_fault_injector(None)
        drained = []
        consumer = cluster.client("consumer")
        while True:
            try:
                drained.append(queue.dequeue(consumer))
            except QueueEmpty:
                break
        # Nothing lost: scrubbing under faults preserved all three items.
        assert sorted(drained) == [11, 22, 33]
