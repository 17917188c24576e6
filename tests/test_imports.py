"""Every name a module of src, tests or tools imports is used in that
module, and every private top-level name src defines is read somewhere
in src.  Only a parabolic run's steps load anything of scipy: LAPACK's
tridiagonal pair, from its extension file alone, without the scipy or
scipy.linalg package.

Package ``__init__`` modules exist to re-export, so the import check skips
them.  An import statement carrying ``# noqa`` is kept on purpose (for
example a module attribute that profilers wrap) and is skipped too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isscert"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
OTHER_MODULES = sorted(p for tree in ("tests", "tools") for p in (ROOT / tree).rglob("*.py")
                       if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_test_and_tool_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []



def top_level(source: str) -> list:
    """(private names defined, names read) of each top-level statement.

    A private name starts with one underscore.  Names read include
    attributes, so ``parabolic._balance`` reads ``_balance``.
    """
    out = []
    for node in ast.parse(source).body:
        defined = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        read = ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
        out.append(({n for n in defined if n.startswith("_") and not n.startswith("__")}, read))
    return out


def unreferenced(sources) -> list:
    """Private top-level names that no other top-level statement reads."""
    stmts = [stmt for source in sources for stmt in top_level(source)]
    return sorted(name for i, (defined, _) in enumerate(stmts) for name in defined
                  if not any(name in read for j, (_, read) in enumerate(stmts) if j != i))


def test_checker_sees_unreferenced_private_names():
    source = ("_a = 1\n_b, c = 2, 3\n__all__ = []\n\n"
              "def _f(n):\n    return _f(n - 1) + _a\n")
    assert unreferenced([source]) == ["_b", "_f"]
    assert unreferenced([source, "import m\nm._f(0)\nm._b\n"]) == []


def test_src_private_names_are_referenced():
    assert unreferenced(p.read_text() for p in sorted(SRC.rglob("*.py"))) == []


def test_scipy_loads_only_when_a_parabolic_run_steps(tmp_path):
    # importing scipy.linalg took about half of a cold start; the parabolic
    # step's tridiagonal solve needs only its LAPACK pair, and no other run
    # needs anything of scipy
    code = ("import sys, isscert, isscert.cli\n"
            "from isscert.solvers.parabolic import _lapack\n"
            f"assert isscert.cli.main(['run', 'transport_steady', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert _lapack.cache_info().currsize == 0\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            f"assert isscert.cli.main(['run', 'parabolic_demo', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert _lapack.cache_info().currsize == 1\n"
            "assert [repr(f) for f in _lapack()] == ['<fortran function dgttrf>', '<fortran function dgttrs>']\n"
            "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules\n")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("module", ["isscert.verify", "isscert.cli"])
def test_cli_and_verify_each_import_first(module):
    # cli imports verify for its verify command and verify runs its plans
    # through cli.run_plan; each must import in a fresh interpreter alone
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": path})
