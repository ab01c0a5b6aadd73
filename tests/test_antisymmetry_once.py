"""Antisymmetry decided once per object.

An algebra's product and triple forms are scanned for antisymmetry at most
once (``algebra._antisymmetry``, kept on the algebra), and so is a module's
D (``representation._antisymmetry_failure``, kept on the module, which reads
its base's two results).  Two writers fill those slots with the result
their construction guarantees, so nothing is scanned: ``algebra._of_entries``
(i<j entries written with their negated twins, no diagonal entry; every
file, ``from_entries`` and ``maltsev_to_bol``) and
``adjoint_representation`` (a base that passed B01 and B02, and D(x, y) its
[x, y, .]).  Every kept result must equal a fresh scan of the stored forms:
checked on every object the golden CLI cases and one seed-0 pass of each
benchmark workload build, on seeded random i<j entry sets and on adjoint
modules.  Algebras built from tensors are scanned, once, and keep every
witness and residual of the Fraction reference.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from fractions import Fraction

import pytest

from bolalg import algebra, cli, representation
from bolalg.algebra import (
    BolAlgebra,
    MaltsevAlgebra,
    VerificationError,
    _antisymmetry,
    _antisymmetry_error,
    _antisymmetry_scan,
    maltsev_to_bol,
    verify_bol,
    verify_maltsev,
)
from bolalg.cohomology import cohomology
from bolalg.formats import parse_algebra
from bolalg.representation import (
    Representation,
    _antisymmetry_failure,
    adjoint_representation,
    check_delta_identity,
    verify_representation,
)

from .conftest import (
    DATA, fraction_antisymmetry, make_b2, make_maltsev_dim4, make_so3, make_solvable,
    random_fraction,
)
from .test_basis_change import dense_basis, transport
from .test_golden_cli import CASES, ROOT, build_workspace, case_digest
from .test_sparse_scans import REPRESENTATIONS

COHOMOLOGY = importlib.import_module("bolalg.cohomology")  # the module, not the function


def _fresh(A) -> tuple:
    """Fresh un-named scans of A's stored product and triple forms."""
    D, P, T = A.form
    return _antisymmetry_scan("", D, P, 2), _antisymmetry_scan("", D, T, 3)


def _fresh_failure(R: Representation) -> str | None:
    """The former _antisymmetry_failure: every form of R scanned afresh, in order."""
    (DA, P, T), (DR, _, D, _) = R.base.form, R.form
    for name, denominator, form, arity, size in (
            ("binary", DA, P, 2, R.base.n), ("ternary", DA, T, 3, R.base.n), ("D", DR, D, 3, R.m)):
        check = _antisymmetry_scan(name, denominator, form, arity, size)
        if not check.passed:
            return _antisymmetry_error(name, check.witness[:2] if name == "D" else check.witness)
    return None


@pytest.fixture
def built(monkeypatch):
    """Every algebra and module built while the test runs, and each kept result written."""
    seen = {"algebras": [], "modules": [], "written": []}
    stored, of_form = algebra._stored, Representation._of_form
    monkeypatch.setattr(algebra, "_stored",
                        lambda A, *state: seen["algebras"].append(A) or stored(A, *state))
    monkeypatch.setattr(Representation, "_of_form", classmethod(
        lambda cls, *args: seen["modules"].append(R := of_form(*args)) or R))
    for once in (_antisymmetry, _antisymmetry_failure):
        monkeypatch.setattr(once, "keep", lambda obj, result, keep=once.keep: (
            seen["written"].append((obj, result)), keep(obj, result))[1])
    return seen


def _check_built(seen: dict) -> None:
    for obj, result in seen["written"]:
        if isinstance(obj, Representation):
            assert result is None and _fresh_failure(obj) is None
            assert _antisymmetry_failure(obj) is None
        else:
            assert result == _fresh(obj) and _antisymmetry(obj) == result
    for A in seen["algebras"]:
        assert _antisymmetry(A) == _fresh(A)
    for R in seen["modules"]:
        assert _antisymmetry_failure(R) == _fresh_failure(R)


def test_every_golden_object_keeps_what_a_fresh_scan_finds(built, tmp_path):
    build_workspace(tmp_path)
    for _, where, argv, written in CASES:
        case_digest(where, argv, written, tmp_path)
    kinds = {type(obj) for obj, _ in built["written"]}
    assert {BolAlgebra, MaltsevAlgebra, Representation} <= kinds
    _check_built(built)


@pytest.mark.parametrize("workload", ["cohomology-ladder", "verify-scan", "extend-deform"])
def test_every_benchmark_object_keeps_what_a_fresh_scan_finds(built, tmp_path, monkeypatch,
                                                              workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs  # the benchmark's job lists, from its own directory

    pass_jobs = jobs.build_pass(workload, 0, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(job["argv"]) for job in pass_jobs]
    assert set(codes) <= {0, 1} and built["written"]
    _check_built(built)


def _entries(rng: random.Random, n: int, arity: int) -> list:
    """Random i<j entries {args: {k: value}}, values 0, ints or Fractions."""
    out = []
    for args in algebra.entry_args(n, arity):
        if rng.random() < 0.4:
            out.append((args, {k: rng.choice((0, rng.randint(-2, 2), random_fraction(rng)))
                               for k in rng.sample(range(n), rng.randint(1, min(n, 3)))}))
    return out


def _counted(monkeypatch) -> dict:
    """The calls of _antisymmetry_scan through algebra's name and representation's."""
    calls = {"algebra": 0, "representation": 0}
    for module in (algebra, representation):
        def counting(*args, module=module, scan=module._antisymmetry_scan):
            calls[module.__name__.split(".")[-1]] += 1
            return scan(*args)
        monkeypatch.setattr(module, "_antisymmetry_scan", counting)
    return calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(8))
def test_an_algebra_of_i_lt_j_entries_keeps_what_a_fresh_scan_finds(monkeypatch, n, seed):
    rng = random.Random(1000 * n + seed)
    calls = _counted(monkeypatch)
    B = BolAlgebra.from_entries(n, _entries(rng, n, 2), _entries(rng, n, 3))
    M = MaltsevAlgebra.from_entries(n, _entries(rng, n, 2))
    kept = [_antisymmetry(A) for A in (B, M)]
    assert calls == {"algebra": 0, "representation": 0}  # written, never scanned
    assert kept == [_fresh(B), _fresh(M)] and all(c.passed for pair in kept for c in pair)
    # the same algebras built from their tensors are scanned, and report the same
    assert verify_bol(B) == verify_bol(BolAlgebra(n, B.c, B.t))
    assert verify_maltsev(M) == verify_maltsev(MaltsevAlgebra(n, M.c))


def _verified_bases() -> list:
    rng = random.Random(7)
    so3, sol3 = maltsev_to_bol(make_so3()), maltsev_to_bol(make_solvable(3))
    return [make_b2(1), make_b2(Fraction(5, 3)), BolAlgebra.zero(2), so3, sol3,
            maltsev_to_bol(make_maltsev_dim4()), transport(so3, dense_basis(rng, 3)),
            BolAlgebra(so3.n, so3.c, so3.t), parse_algebra((DATA / "b2_lambda1.alg").read_text())]


@pytest.mark.parametrize("index", range(len(_verified_bases())))
def test_an_adjoint_module_keeps_what_a_fresh_scan_finds(monkeypatch, index):
    B = _verified_bases()[index]
    assert verify_bol(B).passed
    calls = _counted(monkeypatch)
    R = adjoint_representation(B)
    assert _antisymmetry_failure(R) is None and check_delta_identity(R).passed
    assert calls == {"algebra": 0, "representation": 0}  # written, never scanned
    assert _fresh_failure(R) is None


def _planted(which: str) -> BolAlgebra | MaltsevAlgebra:
    """sol3's Bol algebra (or its Maltsev algebra) built from tensors, with one entry
    moved off antisymmetry: c at (1, 2), or t at (2, 1, 0)."""
    M = make_solvable(3)
    c = [[list(row) for row in plane] for plane in M.c]
    c[2][1][2] += 1
    if which == "anticommutativity":
        return MaltsevAlgebra(3, c)
    B = maltsev_to_bol(M)
    t = [[[list(row) for row in block] for block in plane] for plane in B.t]
    if which == "B02":
        t[0][2][1][0] += Fraction(1, 2)
        c = B.c
    return BolAlgebra(3, c, t)


@pytest.mark.parametrize("which", ["B01", "B02", "anticommutativity"])
def test_a_planted_asymmetry_keeps_its_witness_and_is_scanned_once(monkeypatch, which):
    A = _planted(which)
    calls = _counted(monkeypatch)
    maltsev = which == "anticommutativity"
    check = (verify_maltsev(A) if maltsev else verify_bol(A))[which]
    tensor, arity = (A.c, 2) if which != "B02" else (A.t, 3)
    assert check == fraction_antisymmetry(which, tensor, A.n, arity) and not check.passed
    assert calls == {"algebra": 1 if maltsev else 2, "representation": 0}
    if not maltsev:  # a module's base is read off the kept result, and D is not scanned
        R = Representation.zero(A, 1)
        expected = ("binary", check.witness) if which == "B01" else ("ternary", check.witness)
        assert _antisymmetry_failure(R) == _antisymmetry_error(*expected) == _fresh_failure(R)
        assert calls == {"algebra": 2, "representation": 0}


def test_a_file_read_algebra_is_not_scanned_for_antisymmetry(monkeypatch):
    calls = _counted(monkeypatch)
    B = parse_algebra((DATA / "b2_lambda1.alg").read_text())
    M = parse_algebra((DATA / "so3.alg").read_text())
    assert verify_bol(B).passed and verify_maltsev(M).passed
    assert verify_bol(maltsev_to_bol(M)).passed
    R = adjoint_representation(B)
    assert verify_representation(R).passed and _antisymmetry_failure(R) is None
    assert calls == {"algebra": 0, "representation": 0}
    assert [c.name for c in verify_bol(B).checks[:2]] == ["B01", "B02"]
    assert verify_maltsev(M).checks[0].name == "anticommutativity"


# cohomology() on a module that fails verification but whose c, t and D are
# antisymmetric: the perturbed dim-4 adjoint modules of test_sparse_scans, whose
# coboundaries leave the cocycle space.
_UNVERIFIED = (24, 25, 26, 27, 32, 33, 34, 35)


@pytest.mark.parametrize("index", _UNVERIFIED)
def test_cohomology_of_an_unverified_module_names_its_failing_condition(index):
    R = REPRESENTATIONS[index]
    assert _antisymmetry_failure(R) is None and verify_bol(R.base).passed
    with pytest.raises(VerificationError, match="^representation fails verification$") as info:
        cohomology(R)
    assert info.value.report == verify_representation(R)
    assert info.value.report.first_failure().name == ("R21" if index < 32 else "R1")


def test_cohomology_of_a_verified_module_runs_no_verifier(monkeypatch):
    def refused(*args):
        raise AssertionError("verifier called on the success path")
    monkeypatch.setattr(COHOMOLOGY, "verify_bol", refused)
    monkeypatch.setattr(COHOMOLOGY, "verify_representation", refused)
    report = COHOMOLOGY.cohomology(adjoint_representation(make_b2(1)))
    assert report.dim_Z >= report.dim_B
