"""The counting pass: exact Python + C function calls per layer, from cProfile.

Entries are read from ``Profile.getstats()`` directly. ``pstats.Stats`` keys
on ``(file, line, name)``, so two dataclass-generated ``<string>:2 __init__``
functions silently overwrite one another there and identical runs report
different totals; ``getstats`` has one entry per code object and loses none.

Code under ``src/repro/`` belongs to the layer of its file
(:data:`spans.LAYER_FILES`). Code with no file of the repo's -- C builtins,
dataclass-generated ``<string>`` methods, the standard library -- is charged
to the layer that *called* it, taken from each entry's caller->callee
sub-entries; what remains (calls made by the harness or by other non-repo
code) is ``other``. Every call lands in exactly one layer, so the twelve
per-layer counts sum to the total exactly.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Any

from spans import LAYER_FILES, LAYERS

_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro") + "/"
_BY_LENGTH = sorted(LAYER_FILES.items(), key=lambda item: -len(item[0]))


def layer_of_file(filename: str) -> str | None:
    """Layer of a source file, or None when the repo does not own it."""
    if not filename.startswith(_SRC):
        return None
    relative = filename[len(_SRC) :]
    for prefix, layer in _BY_LENGTH:
        if relative.startswith(prefix):
            return layer
    return "other"


def _layer_of_code(code: Any) -> str | None:
    return None if isinstance(code, str) else layer_of_file(code.co_filename)


def calls_by_layer(profile: cProfile.Profile) -> dict[str, int]:
    """Total calls per layer over everything ``profile`` recorded."""
    counts = dict.fromkeys(LAYERS, 0)
    unowned = 0
    for entry in profile.getstats():
        layer = _layer_of_code(entry.code)
        if layer is None:
            unowned += entry.callcount
            continue
        counts[layer] += entry.callcount
        for sub in entry.calls or ():
            if _layer_of_code(sub.code) is None:
                counts[layer] += sub.callcount
                unowned -= sub.callcount
    counts["other"] += unowned
    return counts
