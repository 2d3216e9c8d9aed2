"""The two lint rules every PR was checking by hand, as a tier-1 test.

``ruff`` cannot be installed in the build container, so its two cheapest
rules are re-implemented here with the stdlib and run over the whole tree
(``src tests benchmarks examples``, as the CI lint job does):

* **F401** — an imported name that nothing in the file uses. As ``ruff``
  does, names listed in ``__all__``, everything in an ``__init__.py``
  (re-exports), ``__future__`` imports and lines carrying ``# noqa: F401``
  are exempt, and quoted annotations count as uses.
* **line length** — a line over 100 columns (``pyproject.toml``'s
  ``line-length``, which CI's ``ruff format --check`` holds code to).

This is a floor under CI's ``ruff check``, not a replacement for it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
MAX_COLUMNS = 100


def _quoted_annotation_names(nodes: list[ast.AST]) -> set[str]:
    """Names used inside quoted annotations (``x: "Foo | None"``)."""
    annotations = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _exported(nodes: list[ast.AST]) -> set[str]:
    """The strings in every ``__all__ = [...]`` / ``__all__ += [...]``."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                names.update(
                    item.value
                    for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                )
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    nodes = list(ast.walk(ast.parse(source)))
    lines = source.splitlines()
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= _quoted_annotation_names(nodes) | _exported(nodes)
    found = []
    for node in nodes:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound == "*" or bound in used or "noqa: F401" in lines[alias.lineno - 1]:
                continue
            found.append((alias.lineno, bound))
    return sorted(found)


def _python_files():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: unused import {name}"
        for path in _python_files()
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_no_line_over_100_columns():
    offenders = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for path in _python_files()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert offenders == []


def test_the_scan_bites():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from a import b, c as d, e\n"
        "if TYPE_CHECKING:\n"
        "    from m import Quoted\n"
        "__all__ = ['e']\n"
        "def f(x: 'Quoted | None') -> Optional[int]:\n"
        "    return b\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "d")]
