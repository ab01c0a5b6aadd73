"""README.md and ROADMAP.md name no private helper that is gone.

Every private name either document cites in backticks, ``_name`` or
``module._name`` (dunders aside), anywhere in a backticked span, must be
defined (a function, a class or an assigned name) in a Python file under
``src/``, ``tests/``, ``tools/`` or ``perfbench/``.  A helper that is deleted
or renamed must leave the documents with it; a document may still name it
without backticks, as history.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src", "tests", "tools", "perfbench")

_SPAN = re.compile(r"`([^`\n]+)`")
_PRIVATE = re.compile(r"(?<![\w.])(?:[A-Za-z_]\w*\.)*(_[A-Za-z0-9]\w*)")


def cited_private_names(text: str) -> set[str]:
    """The private names in the backticked spans of text, dunders aside."""
    return {m.group(1) for span in _SPAN.findall(text) for m in _PRIVATE.finditer(span)
            if not m.group(1).startswith("__")}


def defined_names(tree: ast.AST) -> set[str]:
    """The names a module defines: functions, classes and every assigned name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


@pytest.mark.parametrize("document, least", [("README.md", 50), ("ROADMAP.md", 30)])
def test_every_private_name_the_documents_cite_is_defined(document, least):
    cited = cited_private_names((ROOT / document).read_text())
    defined = set().union(*(defined_names(ast.parse(path.read_text(), str(path)))
                            for folder in FOLDERS for path in (ROOT / folder).rglob("*.py")))
    assert len(cited) > least  # the spans are found at all
    assert sorted(cited - defined) == []


@pytest.mark.parametrize("text, names", [
    ("`_split_form`", {"_split_form"}),
    ("`representation._module_of` and `Mat._of_rows(cols, nonzero_rows)`",
     {"_module_of", "_of_rows"}),
    ("the dense tensors (`algebra._dense` of `_cochain_entries`)", {"_dense", "_cochain_entries"}),
    ("`__post_init__`, `R.form`, `rho_of`", set()),
    ("_outside_backticks and `x_y`", set()),
    ("(PR 33; `_integer_forms` is gone)", {"_integer_forms"}),  # a deleted helper
    ("(PR 33; the integer-forms helper is gone)", set()),
])
def test_the_citation_reader_catches(text, names):
    assert cited_private_names(text) == names


@pytest.mark.parametrize("code, names", [
    ("def _f():\n    pass", {"_f"}),
    ("class _C:\n    _x: int = 0", {"_C", "_x"}),
    ("_A, (_B, c) = 1, (2, 3)", {"_A", "_B", "c"}),
    ("for _k in range(3):\n    pass", {"_k"}),
    ("_g(1)\nfrom m import _h", set()),
])
def test_the_definition_reader_catches(code, names):
    assert defined_names(ast.parse(code)) == names
