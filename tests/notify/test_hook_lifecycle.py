"""Memory-node write hooks exist only while a subscription does.

Notifications live in the memory node's page-table entries (section
4.3): a node whose table is empty has nothing to match, so the fabric
arms the nodes' write hooks on the first subscription and disarms them
when the last one goes.
"""

import pytest

from repro import Cluster
from repro.fabric.errors import AlignmentError
from repro.fabric.memory_node import MemoryNode
from repro.fabric.wire import WORD

NODE_SIZE = 1 << 20
STRIPE = 256  # several stripes, on both nodes, inside one page


@pytest.fixture
def cluster():
    return Cluster(
        node_count=2, node_size=NODE_SIZE, interleaved=True, interleave_granularity=STRIPE
    )


@pytest.fixture
def fired(monkeypatch):
    """Every ``MemoryNode._fire`` call, as ``(node_id, offset)``."""
    calls = []
    original = MemoryNode._fire

    def spy(node, offset, length):
        calls.append((node.node_id, offset))
        original(node, offset, length)

    monkeypatch.setattr(MemoryNode, "_fire", spy)
    return calls


def _armed(cluster):
    return [node._write_hook is not None for node in cluster.fabric.nodes]


def _mutate_every_node(client):
    for stripe in range(2):  # stripe 0 on node 0, stripe 1 on node 1
        base = stripe * STRIPE
        client.write(base, b"x" * 16)
        client.cas(base + 16, 0, 1)
        client.faa(base + 24, 1)
        client.write_u64(base + 32, 7)


def test_no_subscription_reaches_no_hook(cluster, fired):
    _mutate_every_node(cluster.client())
    assert _armed(cluster) == [False, False]
    assert fired == []


def test_first_subscribe_arms_every_node_and_later_ones(cluster, fired):
    watcher = cluster.client("watcher")
    cluster.notifications.notify0(watcher, 0, WORD)
    assert _armed(cluster) == [True, True]
    cluster.add_node()
    assert _armed(cluster) == [True, True, True]
    _mutate_every_node(cluster.client())
    assert {node for node, _ in fired} == {0, 1}
    assert len(watcher.poll_notifications()) == 1  # the 16-byte write at 0


def test_one_notification_per_write_on_a_striped_range(cluster):
    watcher, writer = cluster.client("watcher"), cluster.client("writer")
    cluster.notifications.notify0(watcher, 0, 2 * STRIPE)
    _mutate_every_node(writer)
    notes = watcher.poll_notifications()
    assert [(n.address, n.length) for n in notes] == [
        (base + off, length)
        for base in (0, STRIPE)
        for off, length in ((0, 16), (16, WORD), (24, WORD), (32, WORD))
    ]


def test_one_notification_per_write_under_forward_migration(cluster, fired):
    watcher, writer = cluster.client("watcher"), cluster.client("writer")
    address = STRIPE  # extent 1, on node 1
    cluster.notifications.notify0(watcher, address, WORD)
    dst = cluster.add_node()  # added after the subscription: armed on arrival
    migration = cluster.migration.begin(cluster.client("mover"), 1, dst)
    migration.step()
    fired.clear()
    writer.write_u64(address, 1)  # source write + FORWARD mirror to the staging slot
    assert sorted(node for node, _ in fired) == [1, dst]
    migration.run()
    writer.write_u64(address, 2)  # now lands on the new home only
    assert [n.address for n in watcher.poll_notifications()] == [address, address]


def test_rejected_subscribe_arms_nothing(cluster):
    with pytest.raises(AlignmentError):
        cluster.notifications.notify0(cluster.client(), 3, WORD)
    assert _armed(cluster) == [False, False]


def test_last_unsubscribe_disarms_and_subscribe_rearms(cluster):
    watcher = cluster.client("watcher")
    first = cluster.notifications.notify0(watcher, 0, WORD)
    second = cluster.notifications.notify0(watcher, STRIPE, WORD)
    cluster.notifications.unsubscribe(first)
    assert _armed(cluster) == [True, True]
    cluster.notifications.unsubscribe(second)
    assert _armed(cluster) == [False, False]
    cluster.notifications.notify0(watcher, 0, WORD)
    assert _armed(cluster) == [True, True]
