"""Pin files are written only by ``python -m tests.pins``, and the cost
baseline only by ``python -m repro cost --out analysis/cost_baseline.json``."""

import pytest

from repro.analysis import recorded

from . import HERE, PINS, load

COST_BASELINE = HERE.parent.parent / "analysis" / "cost_baseline.json"


def test_every_pin_file_has_a_recorder():
    assert sorted(path.stem for path in HERE.glob("*.json")) == sorted(PINS)


@pytest.mark.parametrize("name", list(PINS))
def test_a_pin_file_is_its_own_serialisation(name):
    """Key order, one step per line and the trailing newline are the
    command's: a hand edit that is not a regeneration fails here."""
    assert (HERE / f"{name}.json").read_text() == recorded.dumps(load(name))


def test_the_cost_baseline_is_its_own_serialisation():
    assert COST_BASELINE.read_text() == recorded.dumps(recorded.load(COST_BASELINE))
