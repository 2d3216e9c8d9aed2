"""Rewrite every ``tests/pins/*.json`` from the current tree.

Run from the repository root: ``PYTHONPATH=src python -m tests.pins``.
"""

import importlib

from . import HERE, PINS, dumps, observe


def main():
    for name, module_name in PINS.items():
        module = importlib.import_module(module_name)
        pin = {
            scenario: observe(fn, module.KINDS).steps for scenario, fn in module.SCENARIOS.items()
        }
        path = HERE / f"{name}.json"
        path.write_text(dumps(pin))
        print(f"{path.relative_to(HERE.parent.parent)}: {sum(map(len, pin.values()))} steps")


if __name__ == "__main__":
    main()
