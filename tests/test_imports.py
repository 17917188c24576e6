"""Every name a src module imports is used in that module.

Package ``__init__`` modules exist to re-export, so they are skipped.  An
import statement carrying ``# noqa`` is kept on purpose (for example a
module attribute that profilers wrap) and is skipped too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "isscert"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_and_noqa():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == ["os (line 1)"]
    assert unused_imports("from a import (b,\n    c)  # noqa: F401\n") == []
    assert unused_imports("from x import y as z\nz()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_src_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []
