"""The library's exactness and stdlib-only runtime, checked on its source.

Every module under ``src/bolalg`` is parsed and walked: no float or
complex literal, no use of the name ``float``, and no import from outside
the standard library and ``bolalg`` itself.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bolalg").glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: {type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: use of float")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names
                      if not _allowed(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and not _allowed(node.module):
            found.append(f"{where}: from {node.module} import")
    return found


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    return top == "bolalg" or top in sys.stdlib_module_names


def test_the_guard_sees_every_module():
    assert {p.name for p in SOURCES} >= {"algebra.py", "cli.py", "linalg.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(source):
    assert _violations(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code", ["x = 0.5", "x = 2j", "x = float(1)", "import numpy",
                                  "from sympy import Rational", "import numpy.linalg"])
def test_the_guard_catches(code):
    assert len(_violations(ast.parse(code))) == 1
