"""Bound kinds have one table: ``certify.BOUNDS``.

Each kind's rules (its PDE class, parameter ranges, defaults and the name
``verify`` gives its checks) live in its ``BOUNDS`` entry, so no other src
module names a kind.  This scans every src module except ``certify.py``
for a string literal equal to a ``BOUNDS`` key.  A bundled scenario named
like a kind (``transport_liss``) is a scenario, not a kind, where it is
the argument of ``load_plan`` or ``load_config``.
"""

import ast
from pathlib import Path

from isscert.certify import BOUNDS

SRC = Path(__file__).resolve().parents[1] / "src" / "isscert"
_SCENARIO_LOADERS = {"load_plan", "load_config"}


def kind_literals(source: str, kinds) -> list:
    """Line numbers of the string literals in source that equal a kind."""
    tree = ast.parse(source)
    scenario_names = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in _SCENARIO_LOADERS for arg in node.args}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in kinds and id(node) not in scenario_names)


def test_checker_sees_kind_literals():
    source = ('if kind == "wave_m":\n'
              '    x = {"wave_m": 1, "other": 2}\n'
              'plan = load_plan("wave_m")\n'
              'doc = config.load_config("wave_m")\n'
              'name = f"wave_m_{q}"\n')
    assert kind_literals(source, {"wave_m"}) == [1, 2]


def test_no_src_module_but_certify_names_a_bound_kind():
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "certify.py"
             for line in kind_literals(path.read_text(), set(BOUNDS))]
    assert found == []
