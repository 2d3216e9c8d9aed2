"""Recorded runs: one JSON format for what a deterministic run observed.

A recording is ``{scenario: {step: record}}`` — a record is a JSON object.
The pins under ``tests/pins`` record scenario steps this way, and the fmcost
certificate records ``{structure: {op: record}}``
(``python -m repro cost --out analysis/cost_baseline.json``). A recording is
written one step per line (:func:`dumps`), so the diff of a regenerated
file names the steps that moved, and compared step by step (:func:`moved`).
"""

from __future__ import annotations

import json
import os


def dumps(recorded: dict) -> str:
    """The text of a recording: one scenario per block, one step per line."""
    blocks = []
    for scenario, steps in recorded.items():
        lines = ",\n".join(
            f"    {json.dumps(step)}: {json.dumps(record)}" for step, record in steps.items()
        )
        blocks.append(f"  {json.dumps(scenario)}: {{\n{lines}\n  }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def load(path: str | os.PathLike) -> dict:
    """The recording at ``path``: scenario -> step -> record. Raises
    ``OSError`` if it cannot be read and ``ValueError`` if it is not JSON
    of that shape."""
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if not (
        isinstance(recorded, dict)
        and all(
            isinstance(steps, dict)
            and all(isinstance(record, dict) for record in steps.values())
            for steps in recorded.values()
        )
    ):
        raise ValueError(f"{path}: not a {{scenario: {{step: record}}}} recording")
    return recorded


def moved(recorded: dict, observed: dict) -> list[str]:
    """``scenario.step`` of every step added, removed or changed from
    ``recorded`` to ``observed``, in recorded order."""
    out = []
    for scenario in {**recorded, **observed}:
        before, after = recorded.get(scenario, {}), observed.get(scenario, {})
        out += [
            f"{scenario}.{step}"
            for step in {**before, **after}
            if before.get(step) != after.get(step)
        ]
    return out
