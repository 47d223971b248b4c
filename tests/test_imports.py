"""Every module-level import of the test and source modules is used. The
scan reads each module's syntax tree, so it needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted([*(ROOT / "tests").glob("*.py"),
                              *(ROOT / "src" / "stridemap").glob("*.py")])
           if p.name != "__init__.py"]  # a package's __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """The names that source's module-level imports bind and nothing in
    it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_scan_finds_unused_imports():
    source = ("import a, b.c\nimport d as e\nfrom __future__ import annotations\n"
              "from f import g, h as i\n\ndef j():\n    return b.c(i)\n")
    assert unused_imports(source) == ["a", "e", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
