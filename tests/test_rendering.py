"""Rendering an object never moves the simulation.

A reader prints objects at a prompt or in a failure message. Every class in
``src/repro`` that defines ``__repr__`` or ``__str__`` has a case here: its
text names the class, and rendering it leaves every memory node's bytes,
the client's clock and metrics, and the tracer's record as they were. A
class that gains a ``__repr__`` gains a case (the last test fails until it
does).
"""

from types import SimpleNamespace

import pytest

from repro import Cluster
from repro.alloc import EpochReclaimer
from repro.fabric import BreakerPolicy
from repro.fabric.retry import CircuitBreaker
from repro.notify import Broker
from repro.obs import HistogramSet, LatencyHistogram, SLOMonitor, TelemetryRegistry, Tracer
from repro.obs.telemetry import GaugeSeries
from repro.rpc import RpcServer

from .pins import image_sha256
from .test_surface import functions


def _world():
    """A two-node cluster whose one client has stored, looked up, watched a
    word and been traced into a telemetry registry."""
    cluster = Cluster(node_count=2, node_size=1 << 20)
    client = cluster.client("reader")
    tracer = Tracer()
    tracer.attach(client)
    registry = TelemetryRegistry().observe(tracer)
    tree = cluster.ht_tree(bucket_count=8)
    tree.put(client, 1, 10)
    assert tree.get(client, 1) == 10
    watched = cluster.allocator.alloc_words(1)
    cluster.notifications.notify0(client, watched, 8)
    client.write_u64(watched, 7)
    return SimpleNamespace(
        cluster=cluster, client=client, tracer=tracer, registry=registry, tree=tree
    )


def _latency_histogram():
    histogram = LatencyHistogram()
    histogram.record(1_500)
    return histogram


def _histogram_set():
    histograms = HistogramSet()
    histograms.record("get", 1_500)
    return histograms


#: Class name -> the object of that class to render, built in a fresh world.
OBJECTS = {
    "Broker": lambda w: Broker(w.cluster.notifications),
    "CircuitBreaker": lambda w: CircuitBreaker(0, BreakerPolicy()),
    "Client": lambda w: w.client,
    "Cluster": lambda w: w.cluster,
    "CompletionQueue": lambda w: w.client.cq,
    "CounterSeries": lambda w: w.registry.counters()[0][2],
    "EpochReclaimer": lambda w: EpochReclaimer(w.cluster.allocator),
    "ExtentTable": lambda w: w.cluster.fabric.extents,
    "Fabric": lambda w: w.cluster.fabric,
    "FarAllocator": lambda w: w.cluster.allocator,
    "FarFuture": lambda w: w.client.submit("read_u64", w.tree.header),
    "FarQueue": lambda w: w.cluster.far_queue(capacity=8, max_clients=2),
    "FaultInjector": lambda w: w.cluster.inject_faults(seed=1),
    "GaugeSeries": lambda w: GaugeSeries(),
    "HTTree": lambda w: w.tree,
    "HistogramRing": lambda w: w.registry.histograms()[0][2],
    "HistogramSet": lambda w: _histogram_set(),
    "LatencyHistogram": lambda w: _latency_histogram(),
    "MemoryNode": lambda w: w.cluster.fabric.nodes[0],
    "Metrics": lambda w: w.client.metrics,
    "Notification": lambda w: w.client.poll_notifications()[0],
    "RefreshableVector": lambda w: w.cluster.refreshable_vector(16),
    "RpcServer": lambda w: RpcServer(service_ns=700),
    "SLOMonitor": lambda w: SLOMonitor(w.registry),
    "Span": lambda w: w.tracer.all_spans()[-1],
    "TelemetryRegistry": lambda w: w.registry,
    "Tracer": lambda w: w.tracer,
}


def _state(w):
    return (
        image_sha256(w.cluster),
        w.client.clock.now_ns,
        w.client.metrics.as_dict(),
        len(w.tracer.events),
        len(w.tracer.all_spans()),
    )


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_rendering_names_the_class_and_moves_nothing(name):
    w = _world()
    obj = OBJECTS[name](w)
    assert type(obj).__name__ == name
    before = _state(w)
    assert repr(obj).startswith(name) and str(obj).startswith(name)
    assert _state(w) == before


def test_every_rendered_class_has_a_case():
    rendered = {
        qualified.rsplit(".", 1)[0]
        for qualified in functions().values()
        if qualified.endswith((".__repr__", ".__str__"))
    }
    assert rendered == set(OBJECTS)
