"""Source hygiene: no module of the package imports a name it never uses.

``__init__.py`` is exempt, since importing is how it re-exports.  A name
counts as used when it appears anywhere in the module body, annotations
included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boundarylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_leftovers():
    source = "import os, sys\nfrom .x import a, b as c\nfrom __future__ import annotations\n"
    assert unused_imports(source + "def f(v: c) -> None:\n    sys.exit()\n") == ["a", "os"]


def test_modules_found():
    assert {"cosets.py", "spaces.py", "measures.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
