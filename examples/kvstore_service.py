#!/usr/bin/env python
"""A shared far-memory KV-store service under a YCSB workload.

Composes most of the library: a coordinator provisions the store and
publishes it in the far-memory registry; independent clients discover it
by name and run YCSB mixes against it; a tracer on one tenant prints the
per-operation far-access ledger (each store op opens its own span) — the
paper's cost discipline applied to a complete service.

Run:  python examples/kvstore_service.py
"""

from repro import Cluster, Tracer
from repro.apps.kvstore import FarKVStore
from repro.workloads import OpKind, ycsb_names, ycsb_operations

ITEMS = 1_000
OPS_PER_WORKLOAD = 800


def main() -> None:
    cluster = Cluster(node_count=2, node_size=64 << 20)
    coordinator = cluster.client("coordinator")
    registry = cluster.registry()
    reclaimer = cluster.reclaimer()

    # Provision and publish.
    store = FarKVStore.create(
        cluster, registry, coordinator, "catalog",
        bucket_count=4096, reclaimer=reclaimer,
    )
    for i in range(ITEMS):
        store.put(coordinator, f"item:{i}", f"payload-{i}".encode())
    print(f"coordinator: loaded {ITEMS} items into 'catalog'\n")

    # Independent tenants discover the store by name and run YCSB mixes.
    print(f"{'workload':>8} {'ops':>6} {'far/op':>8} {'us/op':>8}")
    for name in ycsb_names():
        tenant = cluster.client(f"tenant-{name}")
        handle = FarKVStore.open(
            cluster, registry, tenant, "catalog", reclaimer=reclaimer
        )
        pid = reclaimer.register()
        snapshot = tenant.metrics.snapshot()
        start = tenant.clock.now_ns
        for op in ycsb_operations(name, ITEMS, OPS_PER_WORKLOAD, seed=3):
            key = f"item:{op.key % ITEMS}"
            if op.kind is OpKind.READ:
                handle.get(tenant, key)
            else:
                handle.put(tenant, key, f"updated-{op.value}".encode())
        delta = tenant.metrics.delta(snapshot)
        elapsed = tenant.clock.now_ns - start
        print(
            f"{name:>8} {OPS_PER_WORKLOAD:>6} "
            f"{delta.far_accesses / OPS_PER_WORKLOAD:>8.2f} "
            f"{elapsed / OPS_PER_WORKLOAD / 1000:>8.2f}"
        )
        reclaimer.quiesce(pid)
        reclaimer.quiesce(pid)
        reclaimer.deregister(pid)

    print(f"\nstore-wide mutations (far counter): "
          f"{store.total_operations(coordinator)}")
    print(f"replaced-value regions reclaimed: {reclaimer.stats.reclaimed}")
    tenant_c = cluster.client("report-tenant")
    # Under `python -m repro trace` every client already feeds that tracer.
    tracer = tenant_c.tracer or Tracer().attach(tenant_c)
    handle = FarKVStore.open(cluster, registry, tenant_c, "catalog")
    handle.put(tenant_c, "final", b"check")
    assert handle.get(tenant_c, "final") == b"check"
    print("\nper-operation cost ledger (report tenant):")
    print(tracer.summary())


if __name__ == "__main__":
    main()
