"""Experiment E9 — notification scalability (section 7.2).

Three sub-experiments, one per scalability axis the paper names:

* **Subscribers** — hardware subscriber count with and without the broker
  tier, as the process count grows.
* **Subscriptions** — hardware subscription count and false-positive rate
  as coarsening merges nearby ranges.
* **Traffic** — delivered/dropped/warned notifications through an update
  spike, under coalescing and token-bucket policies.
"""

from __future__ import annotations

from repro.fabric.wire import WORD
from repro.notify import (
    BrokerNetwork,
    DeliveryPolicy,
    subscribe_coarsened,
)

from helpers import build_cluster, print_table, record, run_once


def _subscriber_scaling():
    rows = []
    for processes in (8, 32, 128):
        # Direct: every process is a hardware subscriber.
        direct = build_cluster()
        base = direct.allocator.alloc_words(16)
        for i in range(processes):
            direct.notifications.notify0(direct.client(), base + (i % 16) * WORD)
        direct_hw = direct.notifications.hardware_subscriptions

        # Brokered: a fixed tier of 8 brokers holds the hardware subs.
        brokered = build_cluster()
        base = brokered.allocator.alloc_words(16)
        network = BrokerNetwork.create(brokered.notifications, broker_count=8)
        for i in range(processes):
            network.attach(brokered.client(), base + (i % 16) * WORD)
        brokered_hw = brokered.notifications.hardware_subscriptions

        # Both must still deliver: one write fans out to the topic's subs.
        writer = brokered.client()
        writer.write_u64(base, 1)
        delivered = network.total_messages_out()
        rows.append((processes, direct_hw, brokered_hw, delivered))
    return rows


def _coarsening_sweep():
    rows = []
    for gap_words in (0, 8, 64, 512):
        cluster = build_cluster()
        watcher = cluster.client()
        writer = cluster.client()
        region = cluster.allocator.alloc(1 << 16)
        # 64 fine ranges spread over the region.
        fine = [(region + i * 512, WORD) for i in range(64)]
        filt, subs = subscribe_coarsened(
            cluster.notifications, watcher, fine, max_gap=gap_words * WORD
        )
        # Uniform writes across the region: some hit fine ranges, some only
        # the coarse envelopes.
        for i in range(0, 1 << 16, 256):
            writer.write_u64(region + i, 1)
        rows.append(
            (
                gap_words * WORD,
                len(fine),
                len(subs),
                filt.stats.notifications_checked,
                filt.stats.false_positive_rate(),
            )
        )
    return rows


def _spike_policies():
    rows = []
    policies = (
        ("reliable", DeliveryPolicy()),
        ("coalesce x8", DeliveryPolicy(coalesce_every=8)),
        ("bucket 50/tick", DeliveryPolicy(bucket_capacity=50, bucket_refill=50)),
        (
            "coalesce+bucket",
            DeliveryPolicy(coalesce_every=4, bucket_capacity=50, bucket_refill=50),
        ),
    )
    for name, policy in policies:
        cluster = build_cluster(delivery_policy=policy)
        watcher, writer = cluster.client(), cluster.client()
        cell = cluster.allocator.alloc_words(1)
        cluster.notifications.notify0(watcher, cell, WORD)
        for tick in range(4):
            for i in range(500):  # a spike of 500 updates per period
                writer.write_u64(cell, i)
            cluster.notifications.tick()
        stats = cluster.notifications.engine.stats
        rows.append(
            (
                name,
                stats.offered,
                stats.delivered,
                stats.coalesced_away,
                stats.dropped_bucket,
                stats.loss_warnings,
                watcher.metrics.notifications_received,
            )
        )
    return rows


def _scenario():
    return _subscriber_scaling(), _coarsening_sweep(), _spike_policies()


def test_e9_notification_scalability(benchmark):
    subscribers, coarsening, spikes = run_once(benchmark, _scenario)
    print_table(
        "E9a: hardware subscribers, direct vs 8-broker tier",
        ["processes", "direct hw subs", "brokered hw subs", "fan-out msgs"],
        subscribers,
    )
    print_table(
        "E9b: subscription coarsening (64 fine ranges)",
        ["max gap (B)", "fine", "hw subs", "delivered", "false-pos rate"],
        coarsening,
    )
    print_table(
        "E9c: 2000-update spike through delivery policies",
        ["policy", "offered", "delivered", "coalesced", "dropped", "warnings", "received"],
        spikes,
    )
    record(benchmark, {"broker_hw_subs_128procs": subscribers[-1][2]})

    # Brokers bound hardware subscribers regardless of process count.
    assert subscribers[-1][1] == 128 and subscribers[-1][2] <= 16
    # Coarsening monotonically trades subscriptions for false positives.
    hw = [row[2] for row in coarsening]
    fp = [row[4] for row in coarsening]
    assert hw == sorted(hw, reverse=True)
    assert fp[-1] > fp[0]
    assert coarsening[0][4] == 0.0  # no coarsening, no false positives
    # Spike handling: policies shed load and warn about it.
    reliable, coalesce, bucket, combo = spikes
    assert reliable[2] == reliable[1]  # everything delivered
    assert coalesce[2] <= reliable[2] / 7  # ~8x reduction
    assert bucket[4] > 0 and bucket[5] > 0  # drops happened and were warned
    assert combo[6] < reliable[6]  # total client traffic reduced
