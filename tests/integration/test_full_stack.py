"""Full-stack scenario: every subsystem in one deployment.

A four-node cluster runs a monitoring pipeline, a KV catalog, and a work
queue simultaneously, with structures discovered through the registry;
then a client crashes and a memory node fails, and the deployment keeps
its invariants. This is the adoption test: the pieces must compose, not
just pass their own suites.
"""

import pytest

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.apps.monitoring import AlarmConsumer, MetricProducer, WindowedHistogramRing
from repro.fabric.errors import QueueEmpty
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import LeasedFarMutex, QueueScrubber, RepairCoordinator
from repro.workloads import MetricStream

NODE_SIZE = 32 << 20


@pytest.mark.slow
class TestFullStack:
    def test_everything_composes(self):
        cluster = Cluster(node_count=4, node_size=NODE_SIZE)
        operator = cluster.client("operator")
        registry = cluster.registry()

        # --- provision: KV catalog, work queue, monitoring ring
        catalog = FarKVStore.create(cluster, registry, operator, "catalog")
        queue = cluster.far_queue(capacity=64, max_clients=8)
        registry.register_queue(operator, "jobs", queue)
        ring = WindowedHistogramRing.create(cluster.allocator, bins=100, window_count=3)
        lease = LeasedFarMutex.create(cluster.allocator, ttl_epochs=2)
        # Config that must survive a node outage lives on two replicas,
        # under a repair coordinator whose epoch words sit on node 3.
        repair = RepairCoordinator(cluster.allocator, home_node=3)
        config = ReplicatedRegion.create_framed(
            cluster.allocator, block_payload=8, block_count=1, copies=2
        )
        repair.register(operator, config)
        config.write_block(operator, 0, b"c0ffee!!")

        # --- steady state: producer feeds metrics, workers process jobs
        producer = MetricProducer(ring=ring, client=cluster.client("metrics"))
        watcher = AlarmConsumer(
            ring=ring, manager=cluster.notifications, client=cluster.client("watcher")
        )
        watcher.start()
        samples = MetricStream(bins=100, spike_probability=0.02, seed=9).samples(600)
        producer.run(samples, samples_per_window=300)
        watcher.poll()

        workers = [cluster.client(f"worker-{i}") for i in range(3)]
        for job in range(30):
            queue.enqueue(operator, job + 1)
            catalog.put(operator, f"job:{job}", b"queued")
        done = 0
        while done < 30:
            for worker in workers:
                try:
                    job = queue.dequeue(worker)
                except QueueEmpty:
                    continue
                if lease.try_acquire(worker):
                    catalog.put(worker, f"job:{job - 1}", b"done")
                    lease.release(worker)
                    done += 1
                else:  # pragma: no cover - lease is uncontended here
                    queue.enqueue(worker, job)

        assert watcher.alarms, "the 2% alarm tail must have fired"
        assert all(
            catalog.get(operator, f"job:{j}") == b"done" for j in range(30)
        )

        # --- fault phase: a worker dies holding the lease; a node fails
        victim = workers[0]
        assert lease.try_acquire(victim)
        victim.crash()
        survivor = workers[1]
        for _ in range(3):
            lease.tick(survivor)
        assert lease.try_acquire(survivor)
        lease.release(survivor)
        report = QueueScrubber(queue).recover_crashed_client(
            victim.client_id, survivor, survivors=(workers[1], workers[2])
        )
        assert not report.unrecovered

        config_node = cluster.fabric.node_of(config.replicas[0])
        cluster.fabric.fail_node(config_node)
        assert config.read_block(survivor, 0) == b"c0ffee!!"  # replica failover
        assert repair.run(survivor, config_node).replicas_rebuilt == 1
        assert config.live_replicas() == 2  # redundancy restored on a spare
        cluster.fabric.repair_node(config_node)

        # --- the rest of the deployment never noticed
        discovered = registry.lookup_queue(cluster.client("late-joiner"), "jobs")
        late = cluster.client("late-worker")
        discovered.enqueue(late, 999)
        assert discovered.dequeue(late) == 999
        assert catalog.get(late := cluster.client(), "job:0") == b"done"
