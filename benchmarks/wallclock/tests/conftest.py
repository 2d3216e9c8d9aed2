"""Put the harness and the library on the path, and share the smoke reports.

Run with ``PYTHONPATH=src python -m pytest benchmarks/wallclock/tests`` from the repository
root; the suite is not part of tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

WALLCLOCK = Path(__file__).resolve().parents[1]
ROOT = WALLCLOCK.parents[1]
for path in (WALLCLOCK, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def _run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WALLCLOCK / "run.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def _smoke_report(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("wallclock") / f"smoke_{seed}_{tag}.json"
    done = _run_py("--smoke", "--seed", str(seed), "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    report["_stdout"] = done.stdout
    report["_path"] = str(out)
    return report


@pytest.fixture(scope="session")
def run_py():
    """``run.py`` as a subprocess from the repository root."""
    return _run_py


@pytest.fixture(scope="session")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def smoke_report(tmp_path_factory) -> dict:
    return _smoke_report(tmp_path_factory, 11, "a")


@pytest.fixture(scope="session")
def smoke_report_again(tmp_path_factory) -> dict:
    return _smoke_report(tmp_path_factory, 11, "b")


@pytest.fixture(scope="session")
def smoke_report_other_seed(tmp_path_factory) -> dict:
    return _smoke_report(tmp_path_factory, 12, "a")
