"""Every name a test or source module imports is used in it.

The package's __init__.py is left out: its imports are its public
re-exports."""

import ast
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SOURCES = sorted(HERE.glob("*.py")) + sorted(
    p for p in (HERE.parent / "src" / "nskoszul").glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read elsewhere in source."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\n"
        "from math import ceil, floor\nprint(os.sep, floor(1.5))\n"
    )
    assert unused_imports(source) == [(3, "ceil")]
