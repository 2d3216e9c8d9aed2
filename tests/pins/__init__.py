"""Recorded runs: one probe, one JSON format and one regeneration command.

A pin runs a deterministic scenario and compares what it observed, step by
step, with the record committed in ``tests/pins/<name>.json``. A scenario is
a function of a :class:`Probe`: it makes its clients through the probe and
measures each step with :meth:`Probe.act`. :func:`verify` runs it twice,
untraced and with a ``Tracer`` attached to every probe-made client, asserts
the two runs agree (zero observer effect) and that every step matches its
pinned record. Per step a record holds the acting client's nonzero
``Metrics`` delta (``delta``) and clock delta (``clock_ns``); what the step
returned (``result``: dataclasses as field tuples, ``bytes`` as hex) or the
exception it raised (``raised``: type, message, ``reason``, ``slot`` and
``__cause__`` type); the structure's stats afterwards (``stats``); and, for a
pin that names event kinds, the count and a sha256 prefix of the acting
client's events of those kinds (``events``). A key whose value is ``None``
is left out.

The files are ``{scenario: {step: record}}``, one step per line, so the diff
of a regenerated pin names the steps that moved. They are written only by
``PYTHONPATH=src python -m tests.pins``, which reruns every pin's scenarios
on the current tree; regenerate only for a deliberate change and list the
moved steps where the change is described.
"""

import functools
import hashlib
import json
from dataclasses import astuple, is_dataclass
from pathlib import Path

from repro.fabric.client import Client
from repro.obs import Tracer

HERE = Path(__file__).parent

#: Pin name (its file is ``tests/pins/<name>.json``) -> the test module
#: whose ``SCENARIOS`` and ``KINDS`` record it.
PINS = {
    "structure_steps": "tests.core.test_bulk_pin",
    "commit": "tests.txn.test_txn_pin",
    "op_table": "tests.fabric.test_pipeline",
    "far_image": "tests.integration.test_far_image_pin",
    "export": "tests.obs.test_export_pin",
}


def _encode(value):
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if is_dataclass(value):
        return astuple(value)
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    raise TypeError(f"cannot record {type(value).__name__}")


def normal(value):
    """``value`` as it reads back from a pin file: tuples become lists,
    ``bytes`` hex, dataclasses their field tuples."""
    return json.loads(json.dumps(value, default=_encode))


def counters(record):
    """A record's ``delta`` as counter name -> value."""
    return {
        key: json.loads(value)
        for key, value in (item.split("=") for item in record["delta"].split())
    }


def image_sha256(cluster) -> str:
    """The sha256 of every memory node's bytes, in node order."""
    digest = hashlib.sha256()
    for node in cluster.fabric.nodes:
        digest.update(node._data)
    return digest.hexdigest()


def _flat(value):
    """A payload value as text: ``window``'s ``ops`` entries become
    ``op,charge_ns,span_id``."""
    if isinstance(value, dict):
        return ",".join(str(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return " ".join(_flat(item) for item in value)
    return str(value)


class Probe:
    """One run of a scenario: makes its clients (traced or not) and records
    each measured step under a label."""

    def __init__(self, kinds, traced):
        self.kinds = kinds
        self.tracer = Tracer() if traced else None
        self.steps = {}
        self.lines = {}

    def client(self, cluster, name=None, **kwargs):
        client = cluster.client(name, **kwargs)
        if self.tracer is not None:
            self.tracer.attach(client)
        return client

    def act(self, label, client, fn, stats=None):
        """Run ``fn()`` as step ``label``, measured on ``client``; ``stats``
        is the structure's stats object, read after the step."""
        before, start_ns = client.metrics.snapshot(), client.clock.now_ns
        first = len(self.tracer.events) if self.tracer is not None else 0
        result = raised = None
        try:
            result = fn()
        except Exception as err:
            cause = err.__cause__
            raised = (
                type(err).__name__,
                str(err),
                getattr(err, "reason", None),
                getattr(err, "slot", None),
                None if cause is None else type(cause).__name__,
            )
        delta = client.metrics.delta(before).as_dict()
        record = {
            "delta": " ".join(f"{key}={value}" for key, value in delta.items() if value),
            "clock_ns": client.clock.now_ns - start_ns,
            "result": result,
            "raised": raised,
            "stats": stats,
        }
        if self.tracer is not None and self.kinds:
            # One line per event: its kind, then each payload value in key order.
            lines = [
                " ".join([event.kind, *(_flat(value) for value in event.data.values())])
                for event in self.tracer.events[first:]
                if event.client == client.name and event.kind in self.kinds
            ]
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
            record["events"] = (len(lines), digest)
            self.lines[label] = lines
        assert label not in self.steps, f"step {label!r} recorded twice"
        self.steps[label] = normal({key: v for key, v in record.items() if v is not None})


def run(scenario, kinds, traced):
    """One run of ``scenario`` from fresh client ids: its :class:`Probe`."""
    Client.reset_ids()
    probe = Probe(kinds, traced)
    scenario(probe)
    return probe


def observe(scenario, kinds):
    """Run ``scenario`` untraced and traced, assert the two agree but for
    the traced run's ``events``, and return the traced run's probe."""
    bare = run(scenario, kinds, traced=False).steps
    traced = run(scenario, kinds, traced=True)
    untraced = {
        label: {key: value for key, value in record.items() if key != "events"}
        for label, record in traced.steps.items()
    }
    moved = [label for label in {**bare, **untraced} if bare.get(label) != untraced.get(label)]
    assert not moved, f"tracing moved steps {moved}"
    return traced


def verify(scenario, kinds, pinned):
    """Assert every step of ``scenario`` (bare and traced) matches
    ``pinned`` (step -> record); a failure names each step that moved, with
    its current event lines."""
    probe = observe(scenario, kinds)
    moved = [
        label for label in {**pinned, **probe.steps} if pinned.get(label) != probe.steps.get(label)
    ]
    report = []
    for label in moved:
        report += [
            f"step {label!r} moved",
            f"  pinned:   {json.dumps(pinned.get(label))}",
            f"  observed: {json.dumps(probe.steps.get(label))}",
            *(f"    {line}" for line in probe.lines.get(label, [])),
        ]
    assert not moved, "\n".join(report)


@functools.cache
def load(name):
    """Pin ``name`` as committed: scenario -> step -> record."""
    return json.loads((HERE / f"{name}.json").read_text())


def dumps(pin):
    """The text of a pin file: one scenario per block, one step per line."""
    blocks = []
    for scenario, steps in pin.items():
        lines = ",\n".join(
            f"    {json.dumps(step)}: {json.dumps(record)}" for step, record in steps.items()
        )
        blocks.append(f"  {json.dumps(scenario)}: {{\n{lines}\n  }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"
