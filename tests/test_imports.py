"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

import relalg

MODULES = sorted(Path(relalg.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names never read, except those marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_sees_unused_and_honours_noqa():
    source = (
        "import os\n"
        "from itertools import chain, product\n"
        "from math import pi  # noqa: F401  (re-exported)\n"
        "print(chain)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 2: product"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
