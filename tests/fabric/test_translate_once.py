""""Translate once" as a tier-1 invariant.

Translation is free in the simulated world, so every entry into the extent
table is pure host overhead. These tests count entries into
``ExtentTable.locate`` / ``ExtentTable.split`` (``node_of`` is a ``locate``)
for one op each and pin them: one per plain op, pointer word + target for an
indirect op, one per iovec entry — and no more when something that needs the
op's home node (retry/breaker policy, tracer, fault injector) is attached:
the client translates once and hands the op that translation. Only an
``indexed`` row (its pointer is at ``ad + index``) translates for itself and
pays one more lookup for the guards' home node.
"""

import pytest

from repro import Cluster
from repro.fabric.extent import ExtentTable
from repro.fabric.ops import FAR_OPS
from repro.fabric.wire import WORD
from repro.obs import Tracer

NODE_SIZE = 8 << 20
PAYLOAD = b"p" * 24

# name -> (call, translations on a bare client); ``p`` holds a pointer to
# ``t``, ``a``/``b`` are plain buffers (``w``, 256 B, is for a full-packet write).
OPS = {
    "read": (lambda c, m: c.read(m["a"], 64), 1),
    "write": (lambda c, m: c.write(m["a"], PAYLOAD), 1),
    "read_u64": (lambda c, m: c.read_u64(m["a"]), 1),
    "write_u64": (lambda c, m: c.write_u64(m["a"], 7), 1),
    "cas": (lambda c, m: c.cas(m["a"], 0, 1), 1),
    "faa": (lambda c, m: c.faa(m["a"], 1), 1),
    "swap": (lambda c, m: c.swap(m["a"], 9), 1),
    "load0": (lambda c, m: c.load0(m["p"], 24), 2),
    "load2": (lambda c, m: c.load2(m["p"], 8, 24), 2),
    "store0": (lambda c, m: c.store0(m["p"], PAYLOAD), 2),
    "store2": (lambda c, m: c.store2(m["p"], 8, PAYLOAD), 2),
    "faai": (lambda c, m: c.faai(m["p"], 0, 24), 2),
    "saai": (lambda c, m: c.saai(m["p"], 0, PAYLOAD), 2),
    "add0": (lambda c, m: c.add0(m["p"], 1), 2),
    "add2": (lambda c, m: c.add2(m["p"], 1, 8), 2),
    "fsaai": (lambda c, m: c.fsaai(m["p"], 0, PAYLOAD), 3),
    "load1": (lambda c, m: c.load1(m["p"] - WORD, WORD, 24), 2),
    "store1": (lambda c, m: c.store1(m["p"] - WORD, WORD, PAYLOAD), 2),
    "add1": (lambda c, m: c.add1(m["p"] - WORD, 1, WORD), 2),
    "rscatter": (lambda c, m: c.rscatter(m["a"], [8, 16]), 1),
    "rgather": (lambda c, m: c.rgather([(m["a"], 8), (m["b"], 16), (m["t"], 8)]), 3),
    "wscatter": (lambda c, m: c.wscatter([(m["a"], 8), (m["b"], 16)], PAYLOAD), 2),
    "wgather": (lambda c, m: c.wgather(m["a"], [b"x" * 8, b"y" * 16]), 1),
}
EXACT = set(OPS) - {"fsaai"}  # fsaai is pinned as an upper bound
INDIRECT = {name for name in EXACT if FAR_OPS[name].indirect}


@pytest.fixture
def lookups(monkeypatch):
    """Count entries into the two translation walks."""
    counts = {"locate": 0, "split": 0}

    def counted(name):
        original = getattr(ExtentTable, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(ExtentTable, name, counted(name))
    return counts


def _cluster():
    cluster = Cluster(node_count=2, node_size=NODE_SIZE)
    alloc = cluster.allocator
    memory = {"a": alloc.alloc(64), "b": alloc.alloc(64), "t": alloc.alloc(64), "p": None}
    memory["p"] = alloc.alloc_words(1)
    memory["w"] = alloc.alloc(256)
    cluster.client(retry_policy=None, breaker_policy=None).write_u64(memory["p"], memory["t"])
    return cluster, memory


def _count(lookups, call, client, memory):
    before = dict(lookups)
    call(client, memory)
    return {name: lookups[name] - before[name] for name in lookups}


@pytest.mark.parametrize("op", sorted(OPS))
def test_bare_client_translates_once_per_word_or_range(lookups, op):
    cluster, memory = _cluster()
    client = cluster.client(retry_policy=None, breaker_policy=None)
    call, pinned = OPS[op]
    seen = _count(lookups, call, client, memory)
    total = seen["locate"] + seen["split"]
    if op in EXACT:
        assert total == pinned, seen
    else:
        assert total <= pinned, seen
    if op in INDIRECT:  # the word lookup *is* locate, the range walk *is* split
        assert seen == {"locate": 1, "split": 1}


def _with_policies(cluster):
    client = cluster.client()  # the default retry + breaker policies
    assert client.retry_policy is not None and client.breaker_policy is not None
    return client


def _with_tracer(cluster):
    client = cluster.client(retry_policy=None, breaker_policy=None)
    Tracer().attach(client)
    return client


def _with_injector(cluster):
    cluster.inject_faults(seed=1)  # no rules: observes every op, fires nothing
    return cluster.client(retry_policy=None, breaker_policy=None)


def _with_everything(cluster):
    cluster.inject_faults(seed=1)
    client = _with_policies(cluster)
    Tracer().attach(client)
    return client


@pytest.mark.parametrize(
    "attach", [_with_policies, _with_tracer, _with_injector, _with_everything]
)
@pytest.mark.parametrize("op", sorted(OPS))
def test_observers_and_guards_share_the_ops_own_lookup(lookups, op, attach):
    """The lookup they share is the op's own, except for an indexed row,
    which translates for itself (its pointer is at ``ad + index``)."""
    cluster, memory = _cluster()
    client = attach(cluster)
    call, pinned = OPS[op]
    seen = _count(lookups, call, client, memory)
    extra = FAR_OPS[op].shape == "indexed"
    if op in EXACT:
        assert seen["locate"] + seen["split"] == pinned + extra, seen
    else:
        assert seen["locate"] + seen["split"] <= pinned + extra, seen


def test_sub_word_indirect_transfer_is_the_one_re_split(lookups):
    # Hops are judged on the whole target word; a 4-byte transfer then
    # re-splits to its own length. Documented, rare, and pinned here so it
    # cannot spread to word-or-larger transfers.
    cluster, memory = _cluster()
    client = cluster.client(retry_policy=None, breaker_policy=None)
    assert WORD == 8
    seen = _count(lookups, lambda c, m: c.load0(m["p"], 4), client, memory)
    assert seen == {"locate": 1, "split": 2}
