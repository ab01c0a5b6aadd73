"""The parsers write each object's stored state straight from the file text.

``parse_algebra`` writes an algebra's integer form (D, P, T) from the i<j
entries it reads, ``parse_representation`` a representation's integer form
from its matrices' rows, and ``parse_cochain`` a cochain's coordinates; each
scalar is read as the two ints its text spells, and no Fraction is built for
an algebra or a representation.  The result must equal what the former route
builds (one Fraction per scalar, fed to ``from_entries`` and to the public
``Representation`` constructor: ``fraction_parse_*`` in conftest) in form,
``==``, hash, type and basis names, on every data file, every golden CLI
input and the inputs the benchmark generator writes for its three workloads
at seeds 0 and 1; an algebra's form must also equal the one its tensors give
through the tensor constructor.  Every spelling of a scalar parses as its
lowest terms, and a malformed file gives the ParseError (path and message)
that the Fraction route gave, in the same order.
"""

import importlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bolalg import algebra
from bolalg.algebra import BolAlgebra, MaltsevAlgebra
from bolalg.cohomology import CochainPair
from bolalg.formats import (
    ParseError,
    parse_action,
    parse_algebra,
    parse_cochain,
    parse_extension,
    parse_representation,
    render_algebra,
    render_cochain,
    render_representation,
)
from bolalg.linalg import Mat
from bolalg.representation import Representation, adjoint_representation

from .conftest import (
    DATA,
    fraction_entries,
    fraction_parse_algebra,
    fraction_parse_cochain,
    fraction_parse_representation,
    make_b2,
    tensor_by_leaves,
)
from .test_golden_cli import build_workspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _ints(x) -> list:
    """Every scalar of nested tuples."""
    return [y for part in x for y in _ints(part)] if isinstance(x, tuple) else [x]


def _fraction_mat(rows: list) -> Mat:
    return Mat(len(rows), len(rows[0]) if rows else 0, tuple(F(x) for row in rows for x in row))


def assert_same(new, old) -> None:
    """new and old are one object: type, ==, hash and stored state; a form holds ints."""
    assert type(new) is type(old)
    assert new == old and hash(new) == hash(old)
    if isinstance(old, CochainPair):
        assert new.coords() == old.coords() and all(type(x) is F for x in new.coords())
        return
    assert new.form == old.form and all(type(x) is int for x in _ints(new.form))
    if not isinstance(old, Representation):
        assert new.basis_names == old.basis_names


def assert_parses_as_the_fraction_route(text: str, base=None):
    """Parse text by its kind (read off its fields) both ways and compare; the algebra
    of an algebra file is returned, as the base of the files that follow it."""
    obj = json.loads(text)
    if "kind" in obj:
        A = parse_algebra(text)
        assert_same(A, fraction_parse_algebra(text))
        # the former writer too: the dense tensors read by the tensor constructor
        n, names = A.n, A.basis_names
        c = tensor_by_leaves(n, n, 2, fraction_entries(obj["binary"]))
        if isinstance(A, MaltsevAlgebra):
            assert_same(A, MaltsevAlgebra(n, c, names))
        else:
            t = tensor_by_leaves(n, n, 3, fraction_entries(obj["ternary"]))
            assert_same(A, BolAlgebra(n, c, t, names))
        return A
    if "hat" in obj:
        E = parse_extension(text)
        for name in ("base", "hat"):
            assert_same(getattr(E, name), fraction_parse_algebra(json.dumps(obj[name])))
        assert (E.i, E.p, E.sigma) == tuple(_fraction_mat(obj[k]) for k in ("i", "p", "sigma"))
    elif "D" in obj:
        assert_same(parse_representation(text, base), fraction_parse_representation(text, base))
    elif "nu" in obj:
        assert_same(parse_cochain(text, base), fraction_parse_cochain(text, base))
    else:
        m, rho = parse_action(text, base.n)
        assert (m, rho) == (obj["module_dimension"], tuple(map(_fraction_mat, obj["rho"])))
        assert all(type(x) is F for mat in rho for x in mat.entries)
    return base


@pytest.mark.parametrize("path", sorted(DATA.iterdir()), ids=lambda p: p.name)
def test_every_data_file_parses_as_the_fraction_route(path):
    # the cochains are over b2 (n=2), the action over the 2-dim Maltsev algebra M0
    assert_parses_as_the_fraction_route(path.read_text(), make_b2(1))


# the representation files of the golden workspace, with the algebra each is read over
_GOLDEN_MODULES = {"adj1.rep": "data/b2_lambda1.alg", "adj4.rep": "m4_bol.alg",
                   "ex28.rep": "m0_bol.alg", "bad_action.rep": "data/maltsev_m0.alg"}


def test_every_golden_input_parses_as_the_fraction_route(tmp_path):
    build_workspace(tmp_path)
    paths = sorted(p for p in tmp_path.iterdir() if p.is_file())
    assert {p.suffix for p in paths} == {".alg", ".rep", ".cochain", ".ext"}
    for path in paths:
        if path.suffix == ".rep":
            base = parse_algebra((tmp_path / _GOLDEN_MODULES[path.name]).read_text())
        else:
            base = make_b2(1)  # the cochain zero2.cochain is over b2
        assert_parses_as_the_fraction_route(path.read_text(), base)


def _jobs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("jobs")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["cohomology-ladder", "verify-scan", "extend-deform"])
def test_every_benchmark_input_parses_as_the_fraction_route(tmp_path, workload, seed):
    jobs = _jobs()
    kinds = set()
    for job in jobs.build_pass(workload, seed, 0, str(tmp_path)):
        base = None
        for arg in job["argv"]:
            path = tmp_path / arg
            if path.is_file():
                text = path.read_text()
                kinds.add(next(k for k in ("kind", "hat", "D", "nu") if k in json.loads(text)))
                base = assert_parses_as_the_fraction_route(text, base)
    assert "kind" in kinds and kinds <= {"kind", "hat", "D", "nu"}


def test_the_parsers_build_no_fraction_and_write_the_form_once(monkeypatch):
    texts = [(DATA / name).read_text() for name in ("b2_lambda_5_3.alg", "so3.alg")]
    B = parse_algebra(texts[0])
    rep = render_representation(adjoint_representation(B))
    built, writes = [], []
    monkeypatch.setattr(F, "__new__", lambda *args, **kwargs: built.append(args))
    entry_forms = algebra._entry_forms
    monkeypatch.setattr(algebra, "_entry_forms",
                        lambda *args: writes.append(args) or entry_forms(*args))
    parsed = [parse_algebra(text) for text in texts] + [parse_representation(rep, B)]
    monkeypatch.undo()
    assert built == [] and len(writes) == 2
    assert parsed[0] == B and parsed[2] == adjoint_representation(B)


# ---------------------------------------------------------------------------
# spellings of a scalar


_SPELLINGS = [("2/4", "1/2"), ("-6/3", "-2"), ("0/7", "0"), ("-0", "0"), ("-0/3", "0"),
              ("007", "7"), ("-14/021", "-2/3"), ("4/2", "2")]


def _algebra_text(x: str) -> str:
    return json.dumps({"kind": "bol", "dimension": 3,
                       "binary": [{"args": [0, 1], "value": {"2": x, "1": "1/6"}},
                                  {"args": [1, 2], "value": {"0": x}}],
                       "ternary": [{"args": [0, 2, 1], "value": {"1": x}}]})


def _representation_text(x: str) -> str:
    mat = [[x, "1/3"], ["0", x]]
    zero = [["0", "0"], ["0", "0"]]
    return json.dumps({"module_dimension": 2, "rho": [mat, zero],
                       "D": [[zero, mat], [zero, zero]], "theta": [[zero, zero], [mat, zero]]})


def _cochain_text(x: str) -> str:
    return json.dumps({"module_dimension": 2, "nu": [{"args": [0, 1], "value": {"1": x}}],
                       "omega": [{"args": [0, 1, 1], "value": {"0": x, "1": "-1/4"}}]})


@pytest.mark.parametrize("spelt, lowest", _SPELLINGS)
def test_every_spelling_parses_as_its_lowest_terms(spelt, lowest):
    base = make_b2(1)
    for text, parse, render in (
            (_algebra_text, parse_algebra, render_algebra),
            (_representation_text, lambda t: parse_representation(t, base), render_representation),
            (_cochain_text, lambda t: parse_cochain(t, base), render_cochain)):
        got, want = parse(text(spelt)), parse(text(lowest))
        assert_same(got, want)
        assert render(got) == render(want) == render(parse(render(want)))
        assert_parses_as_the_fraction_route(text(spelt), base)


def test_a_common_factor_of_every_denominator_is_divided_out():
    # the denominators as spelt have lcm 12; the values' lowest common denominator is 4
    text = json.dumps({"kind": "maltsev", "dimension": 2,
                       "binary": [{"args": [0, 1], "value": {"0": "6/12", "1": "-3/4"}}]})
    empty = ((),) * 2
    assert parse_algebra(text).form == (4, (((), ((0, 2), (1, -3))), (((0, -2), (1, 3)), ())),
                                        ((empty,) * 2,) * 2)
    zero = json.dumps({"kind": "maltsev", "dimension": 2,
                       "binary": [{"args": [0, 1], "value": {"0": "0/12", "1": "-0/5"}}]})
    assert_same(parse_algebra(zero), MaltsevAlgebra.from_entries(2, []))
    assert parse_algebra(zero).form[0] == 1


# ---------------------------------------------------------------------------
# malformed files: the path and message of the first error, in reading order


def _alg(binary, ternary=None, kind="bol", n=2, **fields) -> str:
    obj = {"kind": kind, "dimension": n, **fields, "binary": binary}
    return json.dumps(obj if ternary is None else dict(obj, ternary=ternary))


def _e(args, value) -> dict:
    return {"args": args, "value": value}


_Z = [["0", "0"], ["0", "0"]]


def _rep(rho=(_Z, _Z), D=((_Z, _Z), (_Z, _Z)), theta=((_Z, _Z), (_Z, _Z))) -> str:
    return json.dumps({"module_dimension": 2, "rho": rho, "D": D, "theta": theta})


def _cochain(nu, omega, m=2) -> str:
    return json.dumps({"module_dimension": m, "nu": nu, "omega": omega})


_LONG = "3" * 4301

# (id, kind, text, the ParseError's message; its path is the text before ": ")
_MALFORMED = [
    ("entry-not-object", "algebra", _alg([5], []), "binary[0]: entry must be an object"),
    ("args-short", "algebra", _alg([_e([0], {})], []),
     "binary[0].args: must be a list of 2 integers"),
    ("args-bool", "algebra", _alg([_e([True, 1], {})], []),
     "binary[0].args: must be a list of 2 integers"),
    ("args-range", "algebra", _alg([_e([0, 5], {"0": "1"})], []),
     "binary[0].args: index 5 out of range [0, 2)"),
    ("diagonal", "algebra", _alg([], [_e([0, 0, 1], {"0": "1"})]),
     "ternary[0].args: diagonal ternary entry (0, 0, 1)"),
    ("unordered", "algebra", _alg([_e([1, 0], {"0": "1"})], []),
     "binary[0].args: args (1, 0) must satisfy i<j in the first two slots"),
    ("value-not-object", "algebra", _alg([_e([0, 1], "1")], []),
     "binary[0].value: value must be an object mapping index to rational"),
    ("repeated-index", "algebra",
     '{"kind": "maltsev", "dimension": 2, "binary": [{"args": [0, 1], '
     '"value": {"1": "-1", "1": "5"}}]}', "binary[0].value.1: duplicate index"),
    ("index-leading-zero", "algebra", _alg([_e([0, 1], {"01": "1"})], []),
     "binary[0].value.01: index key must be a decimal string without leading zeros"),
    ("index-range", "algebra", _alg([_e([0, 1], {"9": "1"})], []),
     "binary[0].value.9: index out of range [0, 2)"),
    # a canonical index key over int()'s digit limit is out of range, not int()'s ValueError
    ("index-digits", "algebra", _alg([_e([0, 1], {"1" + _LONG: "1"})], []),
     f"binary[0].value.1{_LONG}: index out of range [0, 2)"),
    ("malformed", "algebra", _alg([_e([0, 1], {"0": "x"})], []),
     "binary[0].value.0: malformed rational 'x'"),
    ("number", "algebra", _alg([_e([0, 1], {"0": 0})], []),
     "binary[0].value.0: rational must be a string, got int"),
    ("null", "algebra", _alg([_e([0, 1], {"0": None})], []),
     "binary[0].value.0: rational must be a string, got NoneType"),
    ("zero-denominator", "algebra", _alg([_e([0, 1], {"0": "0/0"})], []),
     "binary[0].value.0: zero denominator in '0/0'"),
    ("decimal", "algebra", _alg([_e([0, 1], {"0": "1.5"})], []),
     "binary[0].value.0: malformed rational '1.5'"),
    ("digits", "algebra", _alg([_e([0, 1], {"0": "1/" + _LONG})], []),
     "binary[0].value.0: rational has a numerator or denominator longer than 4300 digits"),
    ("ternary-scalar", "algebra", _alg([], [_e([0, 1, 1], {"1": "2/x"})]),
     "ternary[0].value.1: malformed rational '2/x'"),
    ("duplicate", "algebra", _alg([_e([0, 1], {"0": "1"}), _e([0, 1], {"1": "1"})], []),
     "binary: duplicate entry (0, 1)"),
    # every entry's own checks come before the duplicate check of its block
    ("bad-scalar-before-duplicate", "algebra",
     _alg([_e([0, 1], {"0": "x"}), _e([0, 1], {"1": "1"})], []),
     "binary[0].value.0: malformed rational 'x'"),
    ("duplicate-before-bad-scalar", "algebra",
     _alg([_e([0, 1], {"0": "1"}), _e([0, 1], {"1": "1"}), _e([0, 2], {"0": "1/0"})], [], n=3),
     "binary[2].value.0: zero denominator in '1/0'"),
    ("binary-duplicate-before-ternary-scalar", "algebra",
     _alg([_e([0, 1], {"0": "1"}), _e([0, 1], {"1": "1"})], [_e([0, 1, 0], {"0": "x"})]),
     "binary: duplicate entry (0, 1)"),
    ("index-before-scalar", "algebra", _alg([_e([0, 1], {"9": "1", "0": "x"})], []),
     "binary[0].value.9: index out of range [0, 2)"),
    ("scalar-before-index", "algebra", _alg([_e([0, 1], {"0": "x", "9": "1"})], []),
     "binary[0].value.0: malformed rational 'x'"),
    ("missing-value", "algebra", _alg([{"args": [0, 1]}], []),
     "binary[0]: missing field 'value'"),
    ("unknown-entry-field", "algebra", _alg([{"args": [0, 1], "value": {}, "note": 1}], []),
     "binary[0].note: unknown field"),
    ("maltsev-ternary", "algebra", _alg([], [], kind="maltsev"),
     "ternary: a maltsev file must not carry a ternary block"),
    ("basis-names", "algebra", _alg([], [], basis_names=["a"]),
     "basis_names: must be a list of 2 strings"),
    ("missing-ternary", "algebra", _alg([]), "file: missing field 'ternary'"),
    ("rho-count", "representation", _rep(rho=[_Z]),
     "rho: must list one 2x2 matrix per basis element (2)"),
    ("rho-rows", "representation", _rep(rho=[[["0", "0"]], _Z]),
     "rho[0]: matrix must have 2 rows"),
    ("rho-row", "representation", _rep(rho=[_Z, [["0"], ["0", "0"]]]),
     "rho[1][0]: row must have 2 entries"),
    ("rho-scalar", "representation", _rep(rho=[_Z, [["0", "0"], ["1", "x"]]]),
     "rho[1][1][1]: malformed rational 'x'"),
    ("scalar-before-row-shape", "representation", _rep(rho=[[["y", "0"], ["0"]], _Z]),
     "rho[0][0][0]: malformed rational 'y'"),
    ("scalar-before-matrix-shape", "representation", _rep(rho=[[["y", "0"], ["0", "0"]], [["0"]]]),
     "rho[0][0][0]: malformed rational 'y'"),
    ("D-not-list", "representation", _rep(D={}), "D: must be an 2x2 grid of matrices"),
    ("D-row", "representation", _rep(D=[[_Z, _Z], [_Z]]), "D[1]: must be a row of 2 matrices"),
    ("D-scalar", "representation", _rep(D=[[_Z, _Z], [[["0", "1/0"], ["0", "0"]], _Z]]),
     "D[1][0][0][1]: zero denominator in '1/0'"),
    ("theta-number", "representation", _rep(theta=[[_Z, [["0", "0"], [0, "0"]]], [_Z, _Z]]),
     "theta[0][1][1][0]: rational must be a string, got int"),
    ("rho-scalar-before-D-shape", "representation",
     _rep(rho=[[["z", "0"], ["0", "0"]], _Z], D=[[_Z]]), "rho[0][0][0]: malformed rational 'z'"),
    ("D-scalar-before-theta-shape", "representation",
     _rep(D=[[_Z, _Z], [_Z, [["0", "0"], ["0", "q"]]]], theta=[]),
     "D[1][1][1][1]: malformed rational 'q'"),
    ("module-dimension", "representation", json.dumps({"module_dimension": -1, "rho": []}),
     "file.module_dimension: must be an integer >= 0"),
    ("rho-digits", "representation", _rep(rho=[_Z, [["0", "0"], [_LONG, "0"]]]),
     "rho[1][1][0]: rational has a numerator or denominator longer than 4300 digits"),
    ("coordinate-range", "cochain", _cochain([_e([0, 1], {"1": "1"})], [], m=1),
     "nu[0].value.1: index out of range [0, 1)"),
    ("omega-scalar", "cochain", _cochain([], [_e([0, 1, 1], {"0": "1", "1": "1//2"})]),
     "omega[0].value.1: malformed rational '1//2'"),
    ("nu-duplicate-before-omega-scalar", "cochain",
     _cochain([_e([0, 1], {}), _e([0, 1], {})], [_e([0, 1, 0], {"0": "x"})]),
     "nu: duplicate entry (0, 1)"),
    ("omega-args", "cochain", _cochain([], [_e([0, 1], {})]),
     "omega[0].args: must be a list of 3 integers"),
    ("action-scalar", "action",
     json.dumps({"module_dimension": 2, "rho": [_Z, [["0", "0"], ["1", "-"]]]}),
     "rho[1][1][1]: malformed rational '-'"),
]


@pytest.mark.parametrize("kind, text, message", [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_a_malformed_file_gives_its_first_error(kind, text, message):
    base = make_b2(1)
    parse = {"algebra": parse_algebra, "representation": lambda t: parse_representation(t, base),
             "cochain": lambda t: parse_cochain(t, base), "action": lambda t: parse_action(t, 2)}
    with pytest.raises(ParseError) as info:
        parse[kind](text)
    assert str(info.value) == message
    assert info.value.path == message.split(": ", 1)[0]
