"""Randomized crash-injection soak tests: end-to-end guarantees under fire.

Two guarantees, each soaked under randomized schedules:

* at-least-once delivery through a *client* crash (queue + scrubber);
* zero silent wrong reads through *data* faults — corruption, torn
  writes, and a node fail-stop + repair, against a full value oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric import FaultPlan
from repro.fabric.errors import (
    ClientDeadError,
    FarCorruptionError,
    FarTimeoutError,
    NodeUnavailableError,
    QueueEmpty,
    QueueFull,
)
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import QueueScrubber, RepairCoordinator

NODE_SIZE = 8 << 20


class TestCrashSoak:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.integers(min_value=5, max_value=60),  # ops before the crash
        st.integers(min_value=0, max_value=2),  # which client crashes
    )
    def test_at_least_once_through_a_crash(self, seed, crash_after, victim_index):
        import random

        rng = random.Random(seed)
        cluster = Cluster(node_count=1, node_size=NODE_SIZE)
        queue = cluster.far_queue(capacity=24, max_clients=4, clear_batch=4)
        clients = [cluster.client(f"c{i}") for i in range(3)]
        healer = cluster.client("healer")

        enqueued: list[int] = []
        delivered: list[int] = []
        next_value = 1
        ops_done = 0
        crashed = False

        def step(client) -> None:
            nonlocal next_value
            if rng.random() < 0.55:
                try:
                    queue.enqueue(client, next_value)
                    enqueued.append(next_value)
                    next_value += 1
                except QueueFull:
                    pass
            else:
                try:
                    delivered.append(queue.dequeue(client))
                except QueueEmpty:
                    pass

        while ops_done < 120:
            client = rng.choice(clients)
            if not client.alive:
                continue
            if not crashed and ops_done == crash_after:
                clients[victim_index].crash()
                crashed = True
                if client is clients[victim_index]:
                    continue
            try:
                step(client)
            except ClientDeadError:
                pass
            ops_done += 1

        if not crashed:
            clients[victim_index].crash()

        # Recover: quiesce survivors, detach the dead client, scrub.
        survivors = [c for c in clients if c.alive] + [healer]
        report = QueueScrubber(queue).recover_crashed_client(
            clients[victim_index].client_id, healer, survivors=tuple(survivors)
        )

        # Drain everything that remains (survivors + healer), re-injecting
        # anything the scrubber could not fit into a full queue.
        def drain() -> None:
            idle = 0
            while idle < 4:
                progressed = False
                for client in survivors:
                    got = queue.try_dequeue(client)
                    if got is not None:
                        delivered.append(got)
                        progressed = True
                idle = 0 if progressed else idle + 1

        drain()
        for value in report.unrecovered:
            queue.enqueue(healer, value)
        if report.unrecovered:
            drain()

        # At-least-once: nothing enqueued is lost.
        assert set(enqueued) <= set(delivered), (
            sorted(set(enqueued) - set(delivered)),
            report,
        )
        # Duplicates only when the scrubber re-delivered (directly or via
        # the unrecovered hand-back).
        if len(delivered) != len(set(delivered)):
            assert report.redelivery_possible or report.unrecovered
        # Nothing is delivered that was never enqueued.
        assert set(delivered) <= set(enqueued)


class TestCorruptionCrashSoak:
    """Corruption + torn writes + a node fail-stop + repair, against an
    oracle: a verified read returns an acceptable value or raises — it
    NEVER silently returns wrong bytes, at any corruption rate."""

    PAYLOAD = 32
    BLOCKS = 8

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.sampled_from([0.0, 0.01, 0.05]),  # corruption rate
        st.sampled_from([0.0, 0.1]),  # torn-write rate
        st.integers(min_value=10, max_value=60),  # op index of the node death
    )
    def test_no_silent_wrong_reads(self, seed, corrupt_p, torn_p, fail_at):
        import random

        rng = random.Random(seed)
        cluster = Cluster(node_count=4, node_size=NODE_SIZE)
        region = ReplicatedRegion.create_framed(
            cluster.allocator,
            block_payload=self.PAYLOAD,
            block_count=self.BLOCKS,
            copies=2,
        )
        coordinator = RepairCoordinator(
            cluster.allocator, home_node=3, chunk_blocks=4
        )
        c = cluster.client(retry_policy=None, breaker_policy=None)
        coordinator.register(c, region)

        # Scope the rot to the replica payload ranges (the epoch word is
        # metadata — rotting it models a different failure than CORRUPT).
        span = self.BLOCKS * (self.PAYLOAD + 16)
        plan = FaultPlan().random_torn(torn_p)
        for base in region.replicas:
            plan.random_corruption(
                corrupt_p, bits=1, span=16, address_range=(base, base + span)
            )
        cluster.inject_faults(seed=seed, plan=plan)

        # Oracle: per block, the set of payloads a read may legally return.
        # A *failed* write (torn / dead node) is allowed to have landed on
        # some replicas and not others: {old, new} until overwritten.
        acceptable: dict[int, set[bytes]] = {
            i: {b"\x00" * self.PAYLOAD} for i in range(self.BLOCKS)
        }
        stamp = 0

        def check_read(index: int) -> None:
            try:
                got = region.read_block(c, index)
            except (FarCorruptionError, NodeUnavailableError, FarTimeoutError):
                return  # detected/unavailable — loud, never wrong
            assert got in acceptable[index], (
                f"silent wrong read of block {index}: {got!r} not in "
                f"{acceptable[index]!r}"
            )

        dead_node = None
        for op in range(80):
            if op == fail_at:
                dead_node = cluster.fabric.node_of(region.replicas[0])
                cluster.fabric.fail_node(dead_node)
            index = rng.randrange(self.BLOCKS)
            if rng.random() < 0.5:
                stamp += 1
                payload = stamp.to_bytes(8, "little") * (self.PAYLOAD // 8)
                try:
                    region.write_block(c, index, payload)
                    acceptable[index] = {payload}
                except (FarTimeoutError, NodeUnavailableError):
                    acceptable[index].add(payload)  # may be half-landed
            else:
                check_read(index)

        # Quiet window: repair the dead node's replicas, faults off.
        cluster.fabric.set_fault_injector(None)
        if dead_node is not None:
            try:
                report = coordinator.run(c, dead_node)
            except FarCorruptionError:
                return  # both copies of a block rotted: loss, surfaced loudly
            assert report.replicas_rebuilt == 1
            assert region.live_replicas() == 2

        for index in range(self.BLOCKS):
            check_read(index)
