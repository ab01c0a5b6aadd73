"""The library's exactness and stdlib-only runtime, checked on its source
and at run time.

Every module under ``src/bolalg`` is parsed and walked: no float or
complex literal, no use of the name ``float``, no import from outside
the standard library and ``bolalg`` itself, and no imported name that the
module never uses and does not list in ``__all__``.  No module but
``algebra`` calls the Fraction evaluators ``bilinear_eval`` and
``trilinear_eval`` or an algebra's ``product`` and ``triple`` methods: every
scan reads integer forms.  No module calls ``tabulate`` (a slow reference
in ``conftest`` only) or the ``BolAlgebra`` and ``MaltsevAlgebra``
constructors: every algebra is built by ``algebra._of_form``, which writes
its integer form on a new object (from integer entries), and no command
builds an algebra's tensors c and t.  No module calls the public
``Representation`` constructor, which reads matrices: every representation
is written as its integer form.  Only the two form writers,
``algebra._entry_forms`` and ``representation._rows_form``, read a least
common denominator off integer terms (``_integer_terms``), and only the
tensor constructors, ``_of_entries``, the tensor constructor of a cochain
pair, the deformation forms and ``representation._split_form``, the one
writer of a split algebra B (+) V, call ``_entry_forms``.  Only
``algebra._bol_scans``, the one assembly of the Bol axioms, calls the B2 and
B3 block scans.  Antisymmetry is scanned once per object, and only by
``algebra._antisymmetry`` (an algebra's two forms), a module's D scan, the
tensor constructor of a cochain pair and the deformation scans; only
``algebra._of_entries`` and ``adjoint_representation`` write a kept result,
the one their construction guarantees.  No scan
module (``algebra``, ``representation``, ``cohomology``, ``deformation``)
multiplies matrices with ``@`` or calls a ``commutator``: each matrix
identity is one packed residual, an int of signed slots added up from the
integer rows (``representation._packed_map``), read as ints only at a
failure.  No scan
module (those and ``extension``) reads a representation's matrices
``.rho``, ``.D`` or ``.theta`` outside the ``Representation`` class, which
builds them from its integer form for the renderers: every scan reads the
form.  The source walk cannot
see a true division of two ints, which makes a float at run time, nor an
int zero an accumulator starts from; so every residual entry of every
failing verifier report is also checked to be a ``Fraction``, and so is
every entry of the extension, R1-R33, Delta-identity, (B1') and o3
residuals, which add up integer numerators, on zero and on failing tuples,
of the B2 and B3 residuals of the integer forms (through the per-tuple
references in ``conftest``: the antisymmetry and block scans of B01-B3 and
B01'-B3' build a residual only at a failure, which the failing reports
cover), and of the residual each failing x block of Sagle's identity
returns.  Every public entry point that takes scalars refuses a float, and
so does the tensor constructor ``CochainPair(base, m, nu, omega)``; an
algebra or a pair built from tensors holding a float, zero or not, is refused
at construction, which reads its tensors into the integer form, with the
``TypeError`` a direct ``Mat`` holding anything but ints and Fractions gets
from its own constructor (``linalg._require_held``), after every shape
check.

No module calls ``json.dumps`` or ``json.dump``: every report and file is
written by the one writer, ``formats._dumps``, whose text is that of
``json.dumps(obj, indent=2)`` (``tests/test_report_writer.py``).

A fresh ``python -I -S`` that imports ``bolalg.cli`` and builds its parser
loads none of ``dataclasses``, ``inspect``, ``ast``, ``dis``, ``tokenize``,
``typing`` and ``traceback``: each would add to the start of every command,
which already takes longer than most commands compute.  Building the parser
there constructs one ``argparse.ArgumentParser``, the top level, and a parse
builds the parser of its subcommand alone, once.
"""

import ast
import inspect
import itertools
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bolalg import algebra, deformation, extension, representation
from bolalg import cli as CLI
from bolalg.algebra import (
    BolAlgebra,
    MaltsevAlgebra,
    VerificationError,
    _add_terms,
    _over,
    _sagle_failure,
    _scan,
    maltsev_to_bol,
    verify_bol,
    verify_maltsev,
)
from bolalg.cohomology import (
    CochainPair, coboundary_of, cohomology, coords_to_cochain, is_cocycle,
)
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    deformed_algebra,
    generates_infinitesimal_deformation,
    is_deformation_type,
)
from bolalg.extension import (
    AbelianExtension, semidirect_product, twisted_product, validate_extension,
)
from bolalg.formats import parse_algebra, render_algebra, render_extension
from bolalg.linalg import Mat, replace
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    adjoint_representation,
    check_delta_identity,
    cochain_dim,
    induce_from_maltsev,
    is_pseudoderivation,
    verify_representation,
)

from .conftest import (
    DATA, b2_residual, b3_residual, eager_build_parser, m0_action, make_b2, make_m0, make_so3,
    random_fraction,
)

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import binds that is never read and not in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(*(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)))
    return [f"line {line}: {name} is imported and never used"
            for name, line in imported.items() if name not in used]


def test_the_guard_sees_every_module():
    assert {p.name for p in SOURCES} >= {"algebra.py", "cli.py", "linalg.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(source):
    assert _violations(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code", ["x = 0.5", "x = 2j", "x = float(1)", "import numpy",
                                  "from sympy import Rational", "import numpy.linalg"])
def test_the_guard_catches(code):
    assert len(_violations(ast.parse(code))) == 1


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(source):
    assert _unused_imports(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code, unused", [
    ("import math", ["math"]),
    ("import os.path", ["os"]),
    ("import os.path\nos.sep", []),
    ("from .linalg import vec_add, vec_sub\nvec_sub(a, b)", ["vec_add"]),
    ("from .linalg import Mat as M\nx: M", []),
    ("from .linalg import Mat\n__all__ = ['Mat']", []),
    ("from __future__ import annotations", []),
])
def test_the_unused_import_guard_catches(code, unused):
    assert _unused_imports(ast.parse(code)) == [
        f"line 1: {name} is imported and never used" for name in unused]


# modules whose import would add to the start of every command
_START_UP_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "traceback")


def test_the_command_line_starts_without_the_heavy_modules():
    # -I -S: no site, no user paths and no environment, so nothing else loads them
    code = (f"import sys; sys.path.insert(0, {str(SOURCES[0].parents[1])!r}); "
            "import bolalg.cli; bolalg.cli.build_parser(); "
            f"print([m for m in {_START_UP_FREE!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# ArgumentParser.__init__ calls, counted from the import on, after each step: building
# the parser, a verify parse, a second verify parse and a read of the subcommand choices
_PARSERS_BUILT = """
import argparse, sys
sys.path.insert(0, {src!r})
built = 0
init = argparse.ArgumentParser.__init__


def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counted
from bolalg import cli
{builder}
counts = []
parser = cli.build_parser()
counts.append(built)
parser.parse_args(["verify", "x.alg", "--json"])
counts.append(built)
parser.parse_args(["verify", "y.alg"])
counts.append(built)
sub = next(a for a in parser._actions if a.dest == "command")
set(sub.choices)
counts.append(built)
print(counts)
"""


def _parsers_built(builder: str = "") -> list[int]:
    code = _PARSERS_BUILT.format(src=str(SOURCES[0].parents[1]), builder=builder)
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return ast.literal_eval(done.stdout)


def test_the_command_line_builds_only_the_parser_it_parses():
    assert _parsers_built() == [1, 2, 2, 2]


def test_the_parser_guard_catches_an_eager_builder():
    eager = inspect.getsource(eager_build_parser) + "cli.build_parser = eager_build_parser"
    assert _parsers_built(eager) == [17, 17, 17, 17]


def _json_writers(tree: ast.AST) -> list[str]:
    """Each use of json's own writers, json.dumps and json.dump, by attribute or import."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"line {node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"line {node.lineno}: from json import {a.name}" for a in node.names
                      if a.name in ("dumps", "dump")]
    return found


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_report_goes_through_the_one_writer(source):
    assert _json_writers(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code, found", [
    ("text = json.dumps(obj, indent=2)", ["json.dumps"]),
    ("json.dump(obj, handle)", ["json.dump"]),
    ("write = json.dumps", ["json.dumps"]),
    ("from json import dumps", ["from json import dumps"]),
    ("from json import loads, dump as d", ["from json import dump"]),
    ("obj = json.loads(text)", []),
    ("escape = json.encoder.encode_basestring_ascii", []),
    ("text = _dumps(obj)", []),
])
def test_the_writer_guard_catches(code, found):
    assert _json_writers(ast.parse(code)) == [f"line 1: {name}" for name in found]


_EVALUATORS = {"bilinear_eval", "trilinear_eval"}


def _evaluator_calls(tree: ast.AST) -> list[str]:
    """Each call of bilinear_eval, trilinear_eval or a .product/.triple method
    (itertools.product is no algebra's)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            method = (isinstance(f, ast.Attribute) and name in ("product", "triple")
                      and not (isinstance(f.value, ast.Name) and f.value.id == "itertools"))
            if name in _EVALUATORS or method:
                found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("source", [p for p in SOURCES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_no_scan_outside_algebra_calls_the_fraction_evaluators(source):
    assert _evaluator_calls(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code, calls", [
    ("hat.product(s_cols[x], w)", ["product"]),
    ("_operate = lambda A, args: A.triple(*args)", ["triple"]),
    ("nu = lambda a, b: bilinear_eval(d.nu, a, b, n)", ["bilinear_eval"]),
    ("algebra.trilinear_eval(t, x, y, z, n)", ["trilinear_eval"]),
    ("itertools.product(range(3), repeat=2)", []),
    ("from itertools import product\nproduct(a, b)", []),
    ("M.basis_product(x, y)", []),
])
def test_the_evaluator_guard_catches(code, calls):
    assert _evaluator_calls(ast.parse(code)) == [
        f"line {code.count(chr(10)) + 1}: {name}" for name in calls]


_CONSTRUCTORS = {"tabulate", "BolAlgebra", "MaltsevAlgebra"}

# The one builder, which makes a new object of class ``cls`` with the integer form given.
_BUILDERS = {"algebra.py": ["_of_form: __new__"]}


def _calls_by_definition(tree: ast.Module, names_in) -> list[str]:
    """Each call of a name in names_in(top) inside each top-level statement top,
    as "<top-level definition>: <name>"."""
    found = []
    for top in tree.body:
        names = names_in(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    found.append(f"{getattr(top, 'name', '<module>')}: {name}")
    return found


def _construction_calls(tree: ast.Module) -> list[str]:
    """Each call of tabulate or of the BolAlgebra or MaltsevAlgebra constructor,
    and each call of ``cls`` or of a ``__new__`` in a module-level function (a
    classmethod's ``cls(...)`` builds its own class)."""
    return _calls_by_definition(tree, lambda top: _CONSTRUCTORS | (
        {"cls", "__new__"} if isinstance(top, ast.FunctionDef) else set()))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_algebra_is_built_from_coefficients(source):
    assert _construction_calls(ast.parse(source.read_text(), str(source))) == _BUILDERS.get(
        source.name, [])


@pytest.mark.parametrize("code, calls", [
    ("def f(n, g):\n    return tabulate(n, n, 2, g)", ["f: tabulate"]),
    ("hat = BolAlgebra(N, c, t)", ["<module>: BolAlgebra"]),
    ("def f(M):\n    return algebra.MaltsevAlgebra(M.n, M.c)", ["f: MaltsevAlgebra"]),
    ("def build(cls, n, c):\n    return cls(n, c)", ["build: cls"]),
    ("def build(cls, n):\n    return object.__new__(cls)", ["build: __new__"]),
    ("def f(n):\n    return BolAlgebra.__new__(BolAlgebra)", ["f: __new__"]),
    ("class P:\n    @classmethod\n    def of(cls):\n        return object.__new__(cls)", []),
    ("class A:\n    @classmethod\n    def zero(cls):\n        return cls(0)", []),
    ("def f(n):\n    return BolAlgebra.from_entries(n, (), ())", []),
    ("def f(A):\n    return isinstance(A, BolAlgebra)", []),
])
def test_the_construction_guard_catches(code, calls):
    assert _construction_calls(ast.parse(code)) == calls


# The two writers of an integer form from rows of (k, p, q) terms: algebra._entry_forms
# (every algebra, cochain pair and deformation form) and representation._rows_form
# (every representation).  No other code reads a least common denominator off terms.
_DENOMINATOR_READERS = {"algebra.py": ["_entry_forms: _integer_terms"],
                        "representation.py": ["_rows_form: _integer_terms"]}


def _denominator_calls(tree: ast.Module) -> list[str]:
    """Each call of _integer_terms, by top-level definition."""
    return _calls_by_definition(tree, lambda top: {"_integer_terms"})


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_only_the_two_form_writers_read_integer_terms(source):
    assert _denominator_calls(ast.parse(source.read_text(), str(source))) == (
        _DENOMINATOR_READERS.get(source.name, []))


@pytest.mark.parametrize("code, calls", [
    ("def maltsev_to_bol(M):\n    return _integer_terms(rows)", ["maltsev_to_bol: _integer_terms"]),
    ("D, rows = algebra._integer_terms([])", ["<module>: _integer_terms"]),
    ("class C:\n    def form(self):\n        return _integer_terms(self.rows)",
     ["C: _integer_terms"]),
    ("def _entry_forms(n, parts):\n    return _integer_terms(rows)",
     ["_entry_forms: _integer_terms"]),
    ("def f(n, parts):\n    return _entry_forms(n, parts)", []),
    ("def f(rows):\n    return integer_terms(rows)", []),
])
def test_the_denominator_guard_catches(code, calls):
    assert _denominator_calls(ast.parse(code)) == calls


# The callers of the one form writer algebra._entry_forms, by top-level definition: the
# tensor constructors and _of_entries, the tensor constructor of a cochain pair, the
# deformation forms and the one split-algebra writer representation._split_form (the
# hat(B) of extension.twisted_product and the null extension), so extension writes none.
_FORM_WRITERS = {"algebra.py": ["MaltsevAlgebra: _entry_forms", "BolAlgebra: _entry_forms",
                                "_of_entries: _entry_forms"],
                 "cohomology.py": ["CochainPair: _entry_forms"],
                 "deformation.py": ["_candidate_forms: _entry_forms", "_datum_forms: _entry_forms",
                                    "deformed_algebra: _entry_forms"],
                 "representation.py": ["_split_form: _entry_forms"]}


def _form_writer_calls(tree: ast.Module) -> list[str]:
    """Each call of _entry_forms, by top-level definition."""
    return _calls_by_definition(tree, lambda top: {"_entry_forms"})


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_split_algebra_is_written_by_the_one_split_writer(source):
    assert _form_writer_calls(ast.parse(source.read_text(), str(source))) == (
        _FORM_WRITERS.get(source.name, []))


@pytest.mark.parametrize("code, calls", [
    ("def twisted_product(R, c):\n    return _of_form(BolAlgebra, N, _entry_forms(N, parts), None)",
     ["twisted_product: _entry_forms"]),
    ("def _null_extension(M, rho):\n    return algebra._entry_forms(n + m, parts)",
     ["_null_extension: _entry_forms"]),
    ("FORM = _entry_forms(0, ())", ["<module>: _entry_forms"]),
    ("class E:\n    def hat(self):\n        return _entry_forms(self.n, self.parts)",
     ["E: _entry_forms"]),
    ("def twisted_product(R, c):\n    return _split_form(B.form, R.form, n, m, c.coords())", []),
    ("def f(n):\n    return entry_forms(n, ())", []),
])
def test_the_form_writer_guard_catches(code, calls):
    assert _form_writer_calls(ast.parse(code)) == calls


# No caller of the public Representation constructor, which reads matrices: every
# producer writes a form (Representation._of_form: the parser, the adjoint, induced and
# extension-induced modules through representation._module_of, Representation.zero).
_MATRIX_READERS = {}


def _representation_calls(tree: ast.Module) -> list[str]:
    """Each call of the name Representation, by top-level definition."""
    return _calls_by_definition(tree, lambda top: {"Representation"})


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_only_the_parser_builds_a_representation_from_matrices(source):
    assert _representation_calls(ast.parse(source.read_text(), str(source))) == (
        _MATRIX_READERS.get(source.name, []))


@pytest.mark.parametrize("code, calls", [
    ("def f(B, m, rho, D, theta):\n    return Representation(B, m, rho, D, theta)",
     ["f: Representation"]),
    ("def f(R):\n    return representation.Representation(R.base, R.m, R.rho, R.D, R.theta)",
     ["f: Representation"]),
    ("ZERO = Representation(B, 0, (), (), ())", ["<module>: Representation"]),
    ("class E:\n    def induced(self):\n        return Representation(*self.maps)",
     ["E: Representation"]),
    ("def f(B, m, form):\n    return Representation._of_form(B, m, form)", []),
    ("def f(B, m):\n    return Representation.zero(B, m)", []),
    ("def f(R):\n    return isinstance(R, Representation)", []),
])
def test_the_representation_guard_catches(code, calls):
    assert _representation_calls(ast.parse(code)) == calls


def _recorded_algebras(monkeypatch) -> list:
    """Every algebra built from here on, recorded where its state is written."""
    built, stored = [], algebra._stored
    monkeypatch.setattr(algebra, "_stored", lambda A, *state: built.append(A) or stored(A, *state))
    return built


def _with_tensors(built: list) -> list:
    return [A for A in built if {"c", "t"} & set(A.__dict__)]


@pytest.mark.parametrize("name", ["b2_lambda1.alg", "b2_lambda_5_3.alg", "so3.alg",
                                  "maltsev_dim4.alg"])
def test_the_library_pipeline_builds_no_tensor_of_an_algebra(monkeypatch, name):
    # parse, verify, adjoint cohomology, a twisted product per cocycle, render
    built = _recorded_algebras(monkeypatch)
    A = parse_algebra((DATA / name).read_text())
    B = maltsev_to_bol(A) if isinstance(A, MaltsevAlgebra) else A
    assert verify_bol(B).passed
    R = adjoint_representation(B)
    extensions = [twisted_product(R, z) for z in cohomology(R).z_basis]
    assert extensions
    for text in (render_algebra(A), render_algebra(B), *map(render_extension, extensions)):
        assert text
    assert len(built) >= 1 + len(extensions) and _with_tensors(built) == []
    assert (B.c, B.t) and _with_tensors(built) == [B]  # built on first access only


@pytest.mark.parametrize("argv", [
    ["verify", "b2_lambda1.alg"], ["verify", "so3.alg"], ["maltsev-to-bol", "so3.alg"],
    ["cohomology", "b2_lambda1.alg", "--adjoint"], ["verify", "sphere10.alg"],
    ["is-cocycle", "b2_lambda1.alg", "scale_b2.cochain", "--adjoint"],
    ["extend-build", "b2_lambda1.alg", "scale_b2.cochain", "--adjoint"],
    ["deform-check", "b2_lambda1.alg", "scale_b2.cochain"],
], ids=" ".join)
def test_the_commands_build_no_tensor_of_an_algebra(monkeypatch, capsys, argv):
    built = _recorded_algebras(monkeypatch)
    files = [str(DATA / a) if "." in a else a for a in argv]
    assert CLI.main(files + ["--json"]) == 0
    assert capsys.readouterr().out
    assert built and _with_tensors(built) == []


_BLOCK_SCANS = {"_b2_scan", "_b3_scan"}

# The one Bol-axiom assembly, behind verify_bol and the deformation-type checks.
_ASSEMBLY = {"algebra.py": ["_bol_scans: _b2_scan", "_bol_scans: _b3_scan"]}


def _block_scan_calls(tree: ast.Module) -> list[str]:
    """Each call of the B2 and B3 block scans, by top-level definition."""
    return _calls_by_definition(tree, lambda top: _BLOCK_SCANS)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_the_bol_axioms_are_assembled_once(source):
    assert _block_scan_calls(ast.parse(source.read_text(), str(source))) == _ASSEMBLY.get(
        source.name, [])


@pytest.mark.parametrize("code, calls", [
    ("def _closure_checks(forms):\n    return _b3_scan(\"B3'\", D, OM, pairs)",
     ["_closure_checks: _b3_scan"]),
    ("check = algebra._b2_scan(\"B2\", D, P, T, pairs, cubic)", ["<module>: _b2_scan"]),
    ("def _bol_scans(D, P, T):\n    return _b2_scan(*a), _b3_scan(*b)",
     ["_bol_scans: _b2_scan", "_bol_scans: _b3_scan"]),
    ("def verify(D, T):\n    return _b3_block(D, T, 0, 1, [])", []),
    ("def verify(B):\n    return _bol_scans(names, D, (), P, T, cubic)", []),
])
def test_the_assembly_guard_catches(code, calls):
    assert _block_scan_calls(ast.parse(code)) == calls


# Antisymmetry is decided once per object: an algebra's two forms by algebra._antisymmetry,
# a module's D by representation._antisymmetry_failure (which reads its base's through
# _antisymmetry), a cochain pair's tensors when read, and a deformation datum's (nu, mu,
# omega) by its own scans.  Only _of_entries and adjoint_representation write a kept result
# (``.keep``), the one their construction guarantees.
_ANTISYMMETRY_SCANS = {"algebra.py": ["_antisymmetry: _antisymmetry_scan",
                                      "_antisymmetry: _antisymmetry_scan"],
                       "cohomology.py": ["CochainPair: _antisymmetry_scan"],
                       "deformation.py": ["_primed_axioms: _antisymmetry_scan"],
                       "representation.py": ["_antisymmetry_failure: _antisymmetry_scan"]}
_KEPT_WRITERS = {"algebra.py": ["_of_entries: keep"],
                 "representation.py": ["adjoint_representation: keep"]}


def _antisymmetry_calls(tree: ast.Module) -> list[str]:
    """Each call of _antisymmetry_scan and each call of a ``keep``, by top-level definition."""
    return _calls_by_definition(tree, lambda top: {"_antisymmetry_scan", "keep"})


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_antisymmetry_is_scanned_and_kept_where_pinned(source):
    calls = _antisymmetry_calls(ast.parse(source.read_text(), str(source)))
    assert [c for c in calls if not c.endswith(": keep")] == _ANTISYMMETRY_SCANS.get(
        source.name, [])
    assert [c for c in calls if c.endswith(": keep")] == _KEPT_WRITERS.get(source.name, [])


@pytest.mark.parametrize("code, calls", [
    ("def verify_bol(B):\n    return _antisymmetry_scan(\"B01\", D, P, 2)",
     ["verify_bol: _antisymmetry_scan"]),
    ("check = algebra._antisymmetry_scan(\"D\", DR, D, 3, m)", ["<module>: _antisymmetry_scan"]),
    ("def twisted_product(R, c):\n    _antisymmetry.keep(E, (passed, passed))",
     ["twisted_product: keep"]),
    ("class P:\n    def read(self):\n        algebra._antisymmetry_failure.keep(self.R, None)",
     ["P: keep"]),
    ("def verify_bol(B):\n    b01, b02 = _antisymmetry(B)", []),
    ("def f(A):\n    return antisymmetry_scan(A)", []),
])
def test_the_antisymmetry_guard_catches(code, calls):
    assert _antisymmetry_calls(ast.parse(code)) == calls


_MATRIX_SCANS = ("algebra.py", "representation.py", "cohomology.py", "deformation.py")


def _matrix_products(tree: ast.AST) -> list[str]:
    """Each ``@`` and each call of a commutator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "commutator":
                found.append(f"line {node.lineno}: commutator")
    return found


@pytest.mark.parametrize("source", [SOURCES[0].parent / name for name in _MATRIX_SCANS],
                         ids=lambda p: p.name)
def test_no_scan_module_multiplies_fraction_matrices(source):
    assert _matrix_products(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code, found", [
    ("res = rho[z] @ jordan(a, b)", ["@"]),
    ("acc @= b", ["@"]),
    ("d1 = commutator(rho[x], rho[y])", ["commutator"]),
    ("linalg.commutator(a, b)", ["commutator"]),
    ("commutator_terms(a, b)", []),
    ("x = a * b + c", []),
])
def test_the_matrix_product_guard_catches(code, found):
    assert _matrix_products(ast.parse(code)) == [f"line 1: {name}" for name in found]


_MAP_SCANS = _MATRIX_SCANS + ("extension.py",)
_MAPS = {"rho", "D", "theta"}


def _map_reads(tree: ast.Module) -> list[str]:
    """Each read of an attribute .rho, .D or .theta outside a top-level class
    named ``Representation``."""
    return [f"line {node.lineno}: .{node.attr}" for top in tree.body
            if not (isinstance(top, ast.ClassDef) and top.name == "Representation")
            for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr in _MAPS]


@pytest.mark.parametrize("source", [SOURCES[0].parent / name for name in _MAP_SCANS],
                         ids=lambda p: p.name)
def test_no_scan_module_reads_the_matrices_of_a_representation(source):
    assert _map_reads(ast.parse(source.read_text(), str(source))) == []


@pytest.mark.parametrize("code, found", [
    ("rho = R.rho[0]", ["line 1: .rho"]),
    ("def f(R, i, j):\n    return R.D[i][j] - R.theta[j][i]", ["line 2: .D", "line 2: .theta"]),
    ("class Other:\n    def f(self):\n        return self.theta", ["line 3: .theta"]),
    ("class Representation:\n    def f(self):\n        return self.rho", []),
    ("DR, rho, D, theta = R.form", []),
    ("x = rho[k] + D[i][j]", []),
])
def test_the_matrix_read_guard_catches(code, found):
    assert _map_reads(ast.parse(code)) == found


# ---------------------------------------------------------------------------
# run time: the residuals of failing reports


def _random_mat(rng, m):
    return Mat.from_rows([[random_fraction(rng) for _ in range(m)] for _ in range(m)])


def _moved_entry(t, at: tuple, by=1):
    """The nested tensor t with its entry at the index path ``at`` moved by ``by``."""
    if not at:
        return t + by
    return tuple(_moved_entry(x, at[1:], by) if a == at[0] else x for a, x in enumerate(t))


def _refusal(call):
    """The report of the VerificationError that call() raises."""
    with pytest.raises(VerificationError) as info:
        call()
    return info.value.report


def _failing_reports():
    rng = random.Random(7)
    b2 = make_b2(1)
    n = b2.n
    grid = lambda: tuple(tuple(_random_mat(rng, 2) for _ in range(n)) for _ in range(n))
    module = Representation(b2, 2, tuple(_random_mat(rng, 2) for _ in range(n)), grid(), grid())
    adjoint = adjoint_representation(b2)
    cochain = coords_to_cochain(b2, n, tuple(random_fraction(rng)
                                             for _ in range(cochain_dim(n, n))))
    so3 = adjoint_representation(maltsev_to_bol(make_so3()))
    so3_cochain = coords_to_cochain(so3.base, 3, tuple(random_fraction(rng)
                                                       for _ in range(cochain_dim(3, 3))))
    candidate = BolAlgebra.from_entries(3, [((0, 1), {2: Fraction(1, 2)}), ((1, 2), {0: 3})],
                                        [((0, 1, 2), {1: Fraction(-2, 3)}), ((0, 2, 2), {0: 1}),
                                         ((1, 2, 0), {2: 5})])
    semidirect = semidirect_product(adjoint)
    datum = DeformationDatum(b2, cochain)
    infinitesimal = generates_infinitesimal_deformation(datum)
    return [
        verify_bol(parse_algebra((DATA / "broken_b2.alg").read_text())),
        verify_bol(candidate),
        verify_maltsev(MaltsevAlgebra.from_entries(3, [((0, 1), {1: 1}), ((0, 2), {0: 2}),
                                                       ((1, 2), {2: Fraction(1, 3)})])),
        verify_representation(module),
        check_delta_identity(module),
        _refusal(lambda: induce_from_maltsev(make_m0(), module.rho)),
        is_cocycle(so3, so3_cochain),
        is_deformation_type(DeformationTypeCandidate(3, candidate.c, candidate.c, candidate.t)),
        # one entry of each of mu, nu and omega moved off antisymmetry
        is_deformation_type(DeformationTypeCandidate(
            3, _moved_entry(candidate.c, (0, 1, 2)), _moved_entry(candidate.c, (1, 0, 0)),
            _moved_entry(candidate.t, (2, 1, 0, 2), Fraction(1, 3)))),
        check_first_order_formal(datum),
        infinitesimal.deformation_type,
        infinitesimal.cocycle,
        *(report for _, report in infinitesimal.sampling),
        validate_extension(AbelianExtension(semidirect.base, semidirect.m, semidirect.hat,
                                            semidirect.i, semidirect.p, Mat.zeros(4, 2))),
    ]


def test_every_residual_entry_of_a_failing_report_is_a_fraction():
    failed = [c for report in _failing_reports() for c in report.failures()]
    assert {c.name for c in failed} >= {
        "B2", "B3", "maltsev-identity", "R1", "R21", "R22", "R31", "R32", "R33",
        "delta-identity", "CC1", "CC2", "CC3", "B01'", "B02'", "B03'", "B2'", "B3'", "section"}
    for check in failed:
        if check.residual is not None:
            assert all(type(x) is Fraction for x in check.residual), check


def _integer_residuals():
    """Every B2 and B3 residual, and every failing Sagle block's, of a passing and
    a failing algebra (n = 3)."""
    candidate = BolAlgebra.from_entries(3, [((0, 1), {2: Fraction(1, 2)}), ((1, 2), {0: 3})],
                                        [((0, 1, 2), {1: Fraction(-2, 3)}), ((0, 2, 2), {0: 1}),
                                         ((1, 2, 0), {2: 5})])
    for B in (maltsev_to_bol(make_so3()), candidate):
        for args in itertools.product(range(3), repeat=4):
            yield b2_residual(B.form, *args)
        for args in itertools.product(range(3), repeat=5):
            yield b3_residual(B, *args)
    non_maltsev = MaltsevAlgebra.from_entries(3, [((0, 1), {1: 1}), ((0, 2), {0: 2}),
                                                  ((1, 2), {2: Fraction(1, 3)})])
    for M in (make_so3(), non_maltsev):
        for x in ((0,), (1,), (2,), (0, 2)):
            failure = _sagle_failure(M, x)
            if failure is not None:
                yield failure.residual


def test_integer_scans_give_fraction_residuals_on_zero_and_failing_tuples():
    residuals = list(_integer_residuals())
    assert any(any(r) for r in residuals) and not all(any(r) for r in residuals)
    for r in residuals:
        assert len(r) == 3 and all(type(x) is Fraction for x in r), r


def test_the_extension_representation_and_deformation_residuals_are_fractions(monkeypatch):
    # every tuple of every scan in those modules, passing and failing inputs alike
    seen = {}

    def scan_every_tuple(name, tuples, residual_fn):
        tuples = list(tuples)
        seen.setdefault(name, []).extend(residual_fn(*idx) for idx in tuples)
        return _scan(name, tuples, residual_fn)
    for module in (representation, extension, deformation):
        monkeypatch.setattr(module, "_scan", scan_every_tuple)
    # (B1') runs in algebra's Bol-axiom scans, beside verify_bol's B1 (zero on
    # every Bol base here): of algebra's scans only the primed ones are recorded
    monkeypatch.setattr(algebra, "_scan", lambda name, tuples, residual_fn: (
        scan_every_tuple if name.endswith("'") else _scan)(name, tuples, residual_fn))
    rng = random.Random(11)
    b2, so3 = make_b2(1), adjoint_representation(maltsev_to_bol(make_so3()))
    grid = lambda: tuple(tuple(_random_mat(rng, 2) for _ in range(2)) for _ in range(2))
    for R in (so3, Representation(b2, 2, (_random_mat(rng, 2), _random_mat(rng, 2)), grid(),
                                  grid())):
        verify_representation(R)
        check_delta_identity(R)
    E = semidirect_product(adjoint_representation(b2))
    validate_extension(E)
    validate_extension(replace(E, i=Mat.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])))
    validate_extension(replace(E, p=Mat.from_rows([[1, 0, 1, 1], [0, Fraction(1, 3), 0, 0]])))
    for coords in ((0,) * cochain_dim(3, 3), tuple(random_fraction(rng)
                                                    for _ in range(cochain_dim(3, 3)))):
        datum = DeformationDatum(so3.base, coords_to_cochain(so3.base, 3, coords))
        check_first_order_formal(datum)
        is_deformation_type(DeformationTypeCandidate(3, so3.base.c, datum.pair.nu,
                                                     datum.pair.omega))
        # one entry of each of mu, nu and omega moved off antisymmetry: B01'-B1' fail
        is_deformation_type(DeformationTypeCandidate(
            3, _moved_entry(so3.base.c, (0, 1, 2)), _moved_entry(datum.pair.nu, (1, 0, 0)),
            _moved_entry(datum.pair.omega, (2, 1, 0, 2), Fraction(1, 3))))
    # B01'-B03' and (B2') run through algebra's antisymmetry and block scans, which
    # build a residual only at a failure: the failing reports above check those
    assert set(seen) >= {"R1", "R21", "R22", "R31", "R32", "R33", "delta-identity",
                         "i-homomorphism", "p-homomorphism", "abelian-ideal", "B1'", "o3"}
    for name, residuals in seen.items():
        assert any(any(r) for r in residuals) and not all(any(r) for r in residuals), name
        for r in residuals:
            assert all(type(x) is Fraction for x in r), (name, r)


def test_an_accumulator_gives_fraction_zeros_and_sees_coordinate_0():
    # an integer accumulator is divided out into Fractions, zero or not
    acc = [0, 0, 0]
    _add_terms(acc, 2, ((0, 3), (2, -1)))
    assert _over(acc, 4) == (Fraction(3, 2), Fraction(0), Fraction(-1, 2))
    assert [type(x) for x in _over(acc, 4)] == [Fraction] * 3
    assert [type(x) for x in _over([0, 0], 7)] == [Fraction, Fraction]
    # a one-dimensional module has one residual coordinate, key 0
    zero = Mat.zeros(1, 1)
    D = ((zero, Mat.identity(1)), (zero, zero))
    R = Representation(make_b2(1), 1, (zero, zero), D, ((zero, zero), (zero, zero)))
    assert verify_representation(R)["R1"].witness == (0, 1)
    assert verify_representation(R)["R1"].residual == (Fraction(1),)


# ---------------------------------------------------------------------------
# run time: the public entry points that take scalars


_ENTRY_POINTS = {
    "BolAlgebra.from_entries": lambda x: BolAlgebra.from_entries(2, [((0, 1), {1: x})], []),
    "CochainPair.from_entries": lambda x: CochainPair.from_entries(
        make_b2(1), 1, [((0, 1), {0: x})], []),
    "coords_to_cochain": lambda x: coords_to_cochain(make_b2(1), 1, (x, 0, 0)),
    "CochainPair.__rmul__": lambda x: x * CochainPair.from_entries(
        make_b2(1), 1, [((0, 1), {0: 1})], []),
    "deformed_algebra": lambda x: deformed_algebra(
        DeformationDatum(make_b2(1), CochainPair.zero(make_b2(1), 2)), x),
    "coboundary_of": lambda x: coboundary_of(adjoint_representation(make_b2(1)),
                                             PseudoderivationData(Mat.zeros(2, 2), (x, 0))),
    "coboundary_of (f)": lambda x: coboundary_of(
        adjoint_representation(make_b2(1)),
        PseudoderivationData(Mat.from_rows([[0, x], [0, 0]]), (0, 0))),
    "is_pseudoderivation": lambda x: is_pseudoderivation(
        adjoint_representation(make_b2(1)), PseudoderivationData(Mat.zeros(2, 2), (x, 0))),
}


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_an_entry_point_takes_exact_scalars_and_refuses_a_float(name):
    build = _ENTRY_POINTS[name]
    assert build(Fraction(1, 10)) == build("1/10")
    for inexact in (0.1, 1.0):
        with pytest.raises(TypeError, match=re.escape(repr(inexact))):
            build(inexact)


def _tensor_pair(x):
    """CochainPair(b2, 1, nu, omega) with nu(e_0, e_1) = x = -nu(e_1, e_0), omega zero."""
    nu = (((0, x), (-x, 0)),)
    return CochainPair(make_b2(1), 1, nu, ((((0, 0),) * 2,) * 2,))


def test_the_tensor_constructor_refuses_a_float_and_makes_ints_fractions():
    for inexact in (0.5, 0.0, -0.0):  # antisymmetric, so only the exactness check sees it
        with pytest.raises(TypeError, match=re.escape(f"not an int or a Fraction: {inexact!r}")):
            _tensor_pair(inexact)
    pair = _tensor_pair(3)
    assert pair == _tensor_pair(Fraction(3)) and pair.coords() == (3, 0, 0)
    assert all(type(x) is Fraction for x in pair.coords())
    assert pair.nu == (((0, 3), (-3, 0)),)
    assert all(type(x) is Fraction for plane in pair.nu for row in plane for x in row)


def test_the_tensor_constructor_refuses_a_float_before_an_antisymmetry_failure():
    # nu is read into its integer form first: an inexact entry raises TypeError
    # even where nu is also not antisymmetric
    nu = (((0, 0.5), (0.5, 0)),)
    with pytest.raises(TypeError, match=re.escape(repr(0.5))):
        CochainPair(make_b2(1), 1, nu, ((((0, 0),) * 2,) * 2,))
    with pytest.raises(ValueError, match="nu is not antisymmetric"):
        CochainPair(make_b2(1), 1, (((0, 1), (1, 0)),), ((((0, 0),) * 2,) * 2,))


def test_the_tensor_readers_check_every_shape_before_any_entry():
    # a float in the first tensor and a bad shape of the second: the shape comes first
    with pytest.raises(ValueError, match="omega tensor must be 1 x 2 x 2 x 2"):
        CochainPair(make_b2(1), 1, (((0, 0.5), (-0.5, 0)),), (((0, 0),) * 2,))
    with pytest.raises(ValueError, match="t tensor must be 2 x 2 x 2 x 2"):
        BolAlgebra(2, (((0.0, 0), (0, 0)),) * 2, ((0,),))
    with pytest.raises(ValueError, match="omega tensor must be 2 x 2 x 2 x 2"):
        is_deformation_type(DeformationTypeCandidate(2, make_b2(1).c, (((0, 0.5), (0, 0)),) * 2,
                                                     ()))


@pytest.mark.parametrize("inexact", [0.5, -1.0, 0.0, -0.0])
def test_an_algebra_refuses_a_float_at_construction(inexact):
    # the tensors are read into the integer form before any scan reads the algebra; a
    # float zero is refused as a Mat refuses it, not dropped as a zero
    B = make_b2(1)
    c = B.c[:1] + (((0, inexact), (-inexact, 0)),)
    t = B.t[:1] + ((((0, 0), (inexact, 0)), ((-inexact, 0), (0, 0))),)
    for build in (lambda: BolAlgebra(2, c, B.t), lambda: BolAlgebra(2, B.c, t),
                  lambda: MaltsevAlgebra(2, c)):
        with pytest.raises(TypeError, match=re.escape(f"not an int or a Fraction: {inexact!r}")):
            build()


def _float_mat(x):
    """A direct 2 x 2 Mat whose entry (0, 0) is x; the constructor refuses an inexact x."""
    return Mat(2, 2, (x, 0, 0, 1))


def _module_with(x):
    zero = Mat.zeros(2, 2)
    return Representation(make_b2(1), 2, (_float_mat(x), zero), ((zero, zero),) * 2,
                          ((zero, zero),) * 2)


_FORM_READERS = {
    "induce_from_maltsev": lambda x: induce_from_maltsev(
        make_m0(), (_float_mat(x), m0_action()[1])),
    "verify_representation": lambda x: verify_representation(_module_with(x)),
    "check_delta_identity": lambda x: check_delta_identity(_module_with(x)),
    "verify_bol (tensors)": lambda x: verify_bol(BolAlgebra(
        2, make_b2(1).c[:1] + (((0, x), (-x, 0)),), make_b2(1).t)),
    "is_deformation_type": lambda x: is_deformation_type(DeformationTypeCandidate(
        2, make_b2(1).c, (((0, x), (-x, 0)),) * 2, make_b2(1).t)),
}


@pytest.mark.parametrize("name", _FORM_READERS)
def test_an_integer_form_refuses_a_float_in_a_direct_matrix_or_tensor(name):
    read = _FORM_READERS[name]
    read(Fraction(-1))  # exact: a report or a Representation, no error
    for inexact in (-1.0, 0.5, 0.0, -0.0):  # a Mat refuses a float zero too
        with pytest.raises(TypeError, match=re.escape(repr(inexact))):
            read(inexact)
