"""Pin files are written only by ``python -m tests.pins``."""

import pytest

from . import HERE, PINS, dumps, load


def test_every_pin_file_has_a_recorder():
    assert sorted(path.stem for path in HERE.glob("*.json")) == sorted(PINS)


@pytest.mark.parametrize("name", list(PINS))
def test_a_pin_file_is_its_own_serialisation(name):
    """Key order, one step per line and the trailing newline are the
    command's: a hand edit that is not a regeneration fails here."""
    assert (HERE / f"{name}.json").read_text() == dumps(load(name))
