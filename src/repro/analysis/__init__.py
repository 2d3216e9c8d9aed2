"""Static and dynamic analysis for the far-memory reproduction.

Four cooperating passes turn the paper's access-count contracts into
machine-checked invariants:

* :mod:`repro.analysis.fmlint` — a static AST linter for far-memory
  anti-patterns (``python -m repro lint``).
* :mod:`repro.analysis.budget` — ``@far_budget`` declarations plus a
  runtime sanitizer asserting per-op far-access budgets
  (``python -m repro sanitize``).
* :mod:`repro.analysis.fmcost` — a static abstract interpreter that
  certifies worst-case far-access bounds for every declared budget
  (``python -m repro cost``; ``--out analysis/cost_baseline.json``
  regenerates the committed baseline, and the unified gate
  ``python -m repro check`` names every operation that moved from it).
* :mod:`repro.analysis.races` — an offline happens-before race detector
  over exported ``repro-trace-v1`` traces (``python -m repro races``).

The cost certificate is written, read and compared in one recorded-run
format, :mod:`repro.analysis.recorded` — the format of the test pins too.
"""

from repro.analysis.fmcost import (
    FAILING_VERDICTS,
    analyze_paths,
    build_certificate,
    certificate_failures,
    render_certificate,
)
from repro.analysis.fmlint import (
    Finding,
    RULES,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "FAILING_VERDICTS",
    "Finding",
    "RULES",
    "analyze_paths",
    "build_certificate",
    "certificate_failures",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_certificate",
]
