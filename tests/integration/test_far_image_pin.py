"""Far-memory image pin: the bytes every structure leaves in far memory.

The client interprets raw far bytes (paper section 2), so each record
format is part of its structure's protocol. One scripted scenario drives
every structure that declares a :class:`repro.fabric.wire.Layout`, then
hashes every memory node's backing store. A change to the constant below
means a far record format (or an allocation order) moved: that is a
protocol change and must be said so, never a side effect of a refactor.
"""

import hashlib

import pytest

from repro import Cluster
from repro.apps.kvstore import FarKVStore
from repro.apps.monitoring import NaiveMonitor, NaiveProducer
from repro.apps.paramserver import GradientChannel
from repro.baselines import (
    AddressCachingHashMap,
    FarSkipList,
    HopscotchHashMap,
    OneSidedBTree,
    OneSidedHashMap,
)
from repro.core.blob import FarBlobStore
from repro.fabric.client import Client
from repro.fabric.errors import FabricError
from repro.fabric.replication import ReplicatedRegion
from repro.recovery import LeasedFarMutex, QueueScrubber

EXTENT = 64 << 10

IMAGE_SHA256 = "726dd52c0ad2fec39629199fbd93d22efe8286ca9b2ff6483917c3935be28884"


def _txn_cell(cluster, space, client, used, payload):
    """One framed cell in its own extent, on a version slot not in ``used``."""
    while True:
        base = cluster.allocator.alloc(EXTENT)
        slot = space.slot_for_addr(base)
        if slot not in used:
            used.add(slot)
            space.init_cell(client, base, payload)
            return base


def _crash_commit(space, victim, phase, buffer_writes):
    """Commit what ``buffer_writes(txn)`` buffers, the owner dying at ``phase``."""

    def hook(at, client):
        if at == phase:
            space.crash_hook = None
            client.crash()

    space.crash_hook = hook
    txn = space.begin(victim)
    buffer_writes(txn)
    with pytest.raises(FabricError):
        space.commit(victim, txn)


def build_image() -> str:
    Client.reset_ids()  # client ids are stored in lock words and markers
    cluster = Cluster(node_count=2, node_size=4 << 20, extent_size=EXTENT)
    a, b = cluster.client("a"), cluster.client("b")

    # HT-tree: inserts that force splits, an in-place update, a chained
    # delete, a pipelined multistore.
    tree = cluster.ht_tree(bucket_count=4, max_chain=2)
    for key in range(1, 41):
        tree.put(a, key * 7919, key)
    tree.put(a, 7919, 1000)
    tree.delete(a, 2 * 7919)
    tree.multistore(b, [(k * 104729, k) for k in range(1, 9)])
    assert tree.stats.splits > 0
    assert tree.get(b, 7919) == 1000

    # Queue: enqueue / dequeue through a wrap, batched ops, a scrub.
    queue = cluster.far_queue(capacity=8, max_clients=2)
    for i in range(1, 14):
        queue.enqueue(a, i)
        assert queue.dequeue(b) == i
    queue.enqueue_many(a, [21, 22, 23])
    assert queue.dequeue_many(b, 2) == [21, 22]
    queue.flush_clears(b)
    QueueScrubber(queue).scrub(a)
    # Fig. 1-only mode: deferred clears, wraps inside batched enqueues,
    # then a stranded slack pointer (a producer that died right after
    # its slack-landing saai) and unflushed clears for the scrubber.
    deferred = cluster.far_queue(capacity=16, max_clients=2, clear_batch=3, use_fsaai=False)
    for round_ in range(12):
        deferred.enqueue_many(a, [100 + 3 * round_ + i for i in range(3)])
        assert len(deferred.dequeue_many(b, 3)) == 3
    deferred.flush_clears(b)
    deferred.enqueue_many(a, [901, 902])
    assert deferred.dequeue(b) == 901
    QueueScrubber(deferred).recover_crashed_client(b.client_id, a)
    stranded = cluster.far_queue(capacity=16, max_clients=3)
    cluster.fabric.write_word(stranded.tail_addr, stranded.slack_base + 8)
    cluster.fabric.write(stranded.slack_base, (999).to_bytes(8, "little"))
    assert QueueScrubber(stranded).scrub(a).migrations_completed == 1
    assert stranded.size_estimate(b) == 1

    # Blob store, registry (register / lookup / unregister).
    blobs = FarBlobStore.create(cluster.allocator, cluster.ht_tree(bucket_count=8))
    blobs.put(a, 1, b"hello far memory")
    blobs.put(a, 1, b"replaced")
    blobs.multiput(a, [(2, b""), (3, bytes(range(200)))])
    assert blobs.multiget(b, [1, 2, 3]) == [b"replaced", b"", bytes(range(200))]
    registry = cluster.registry(capacity=8)
    counter = cluster.far_counter()
    registry.register_counter(a, "hits", counter)
    registry.register_queue(a, "jobs", queue)
    registry.register_counter(a, "gone", counter)
    assert registry.unregister(a, "gone")
    assert registry.lookup_queue(b, "jobs").capacity == 8
    assert registry.lookup_counter(b, "hits").address == counter.address

    # KV store: put, attach by name from another client, a committed
    # transactional multiput.
    store = FarKVStore.create(cluster, registry, a, "kv", bucket_count=16)
    store.put(a, "user:1", b"ada")
    opened = FarKVStore.open(cluster, registry, b, "kv")
    assert opened.get(b, "user:1") == b"ada"
    space = cluster.txn_space(a, n_slots=64, max_clients=4)
    txn = space.begin(a)
    store.txn_multiput(a, space, txn, [("user:1", b"grace"), ("user:2", b"edsger")])
    space.commit(a, txn)

    # Transactions over framed cells: one committed, one crashed after
    # the seal (recovered forward), one crashed holding locks (rolled back).
    used: set[int] = set()
    cells = [_txn_cell(cluster, space, a, used, bytes([i + 1]) * 8) for i in range(4)]
    txn = space.begin(a)
    space.write(a, txn, cells[0], b"A" * 8)
    space.write(a, txn, cells[1], b"B" * 8)
    space.commit(a, txn)
    victim = cluster.client("victim")

    def two_cells(txn):
        space.write(victim, txn, cells[2], b"C" * 8)
        space.write(victim, txn, cells[3], b"D" * 8)

    _crash_commit(space, victim, "after_seal", two_cells)
    assert space.recover(b, victim.client_id).action == "rollforward"
    v2 = cluster.client("victim2")
    _crash_commit(space, v2, "after_lock", lambda txn: space.write(v2, txn, cells[0], b"E" * 8))
    assert space.recover(b, v2.client_id).action == "rollback"
    v3 = cluster.client("victim3")
    put = [("user:3", b"barbara")]
    _crash_commit(space, v3, "after_seal", lambda txn: store.txn_multiput(v3, space, txn, put))
    assert space.recover(b, v3.client_id, stores={store.txn_tag: store}).action == "rollforward"
    assert store.get(b, "user:3") == b"barbara"

    # Replication: two writes of one framed block.
    framed = ReplicatedRegion.create_framed(
        cluster.allocator, block_count=4, block_payload=32, copies=2
    )
    framed.write_block(a, 1, b"v" * 32)
    framed.write_block(a, 1, b"w" * 32)

    # Refreshable vector, leased mutex, gradient channel, naive monitor.
    vector = cluster.refreshable_vector(16)
    vector.set(a, 3, 33)
    vector.set_many(a, {1: 11, 9: 99})
    vector.refresh(b)
    mutex = LeasedFarMutex.create(cluster.allocator, ttl_epochs=2)
    assert mutex.try_acquire(a)
    mutex.tick(b)
    channel = GradientChannel.create(cluster, max_workers=2)
    channel.send(a, {3: 0.5, 17: -1.25})
    channel.send(a, {4: 2.0})
    assert channel.receive(b) == {3: 0.5, 17: -1.25}
    assert channel.receive_many(b, 4) == [{4: 2.0}]
    channel.send(a, {5: 1.5})
    monitor = NaiveMonitor.create(cluster.allocator, capacity=8)
    NaiveProducer(monitor=monitor, client=a).run([3, 1, 4])

    # Baselines: each one's insert path (and an update / delete).
    hop = HopscotchHashMap.create(cluster.allocator, slot_count=8, neighborhood=3)
    chained = OneSidedHashMap.create(cluster.allocator, bucket_count=4)
    cached = AddressCachingHashMap(OneSidedHashMap.create(cluster.allocator, bucket_count=4))
    skip = FarSkipList.create(cluster.allocator, seed=3)
    btree = OneSidedBTree.create(cluster.allocator, max_keys=3)
    for key in range(1, 13):
        hop.put(a, key * 31, key)
        chained.put(a, key, key * 2)
        cached.put(a, key, key * 3)
        skip.put(a, key * 5 % 13, key)
        btree.put(a, key * 11 % 17, key)
    hop.delete(a, 31)
    assert hop.stats.displacements > 0 and hop.stats.resizes > 0
    chained.delete(a, 5)
    chained.put(a, 6, 66)
    cached.put(a, 2, 222)
    assert cached.get(b, 2) == 222 and cached.get(b, 2) == 222
    skip.put(a, 5, 555)
    assert btree.get(b, 11) == 1

    digest = hashlib.sha256()
    for node in cluster.fabric.nodes:
        digest.update(node._data)
    return digest.hexdigest()


def test_far_memory_image_is_pinned():
    assert build_image() == IMAGE_SHA256
    assert build_image() == IMAGE_SHA256, "scenario must be deterministic"
