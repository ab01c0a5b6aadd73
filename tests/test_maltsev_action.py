"""The Maltsev-action checks and the induced maps in integers, against the
Fraction matrix arithmetic they replaced.

``maltsev_action_report``, ``maltsev_action_jordan_report`` and
``induce_from_maltsev`` read the action once as integer rows over D_R and the
algebra through its kept integer form, and add up ints with
``_matrix_sum``.  The references in ``conftest`` are the former bodies:
commutators, ``@`` and linear combinations of ``Fraction`` matrices.  Each
report must equal its reference (check, witness and residual), and
``induce_from_maltsev`` must give the same ``Representation`` or raise the
same error with the same report.

The actions are the adjoint actions of m0, so3, the solvable algebras n = 2-4
and the octonions, those conjugated by a rational matrix and on a rational
basis of so3, with two matrices swapped, one matrix halved or one entry moved,
and random rational actions.
"""

import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import MaltsevAlgebra, VerificationError
from bolalg.cli import main
from bolalg.formats import render_action, render_algebra
from bolalg.linalg import Mat, inverse
from bolalg.representation import (
    induce_from_maltsev,
    maltsev_action_jordan_report,
    maltsev_action_report,
)

from .conftest import (
    fraction_induce_from_maltsev,
    fraction_maltsev_action_jordan_report,
    fraction_maltsev_action_report,
    m0_action,
    make_m0,
    make_so3,
    make_solvable,
    random_fraction,
)
from .test_sparse_scans import _octonions


def _adjoint_action(M: MaltsevAlgebra) -> tuple[Mat, ...]:
    """rho(e_i) = the matrix of e_i * (.), column a the product e_i * e_a."""
    return tuple(Mat.from_cols([M.product(i, a) for a in range(M.n)], rows=M.n)
                 for i in range(M.n))


def _halved_so3() -> tuple:
    """so3 on the basis e_i / 2 (constants 1/2), with its adjoint action there."""
    half = MaltsevAlgebra.from_entries(3, binary=[
        ((0, 1), {2: F(1, 2)}), ((1, 2), {0: F(1, 2)}), ((0, 2), {1: F(-1, 2)})])
    return half, tuple(F(1, 2) * mat for mat in _adjoint_action(make_so3()))


def _conjugated(rho: tuple[Mat, ...], P: Mat) -> tuple[Mat, ...]:
    return tuple(inverse(P) @ mat @ P for mat in rho)


def _moved(mat: Mat, k: int, by) -> Mat:
    return Mat(mat.rows, mat.cols, tuple(x + by if i == k else x
                                         for i, x in enumerate(mat.entries)))


def _corpus():
    rng = random.Random(24)
    passing = [(make_m0(), m0_action()), _halved_so3()]
    passing += [(M, _adjoint_action(M)) for M in (make_so3(), make_solvable(2),
                                                 make_solvable(3), make_solvable(4))]
    passing.append((make_m0(), (Mat.zeros(2, 2), Mat.zeros(2, 2))))
    so3, rho = make_so3(), _adjoint_action(make_so3())
    P = Mat.from_rows([[1, F(1, 2), 0], [0, 1, F(-2, 3)], [2, 0, 1]])
    passing.append((so3, _conjugated(rho, P)))
    cases = list(passing)
    for M, rho in passing:
        n, m = M.n, rho[0].rows
        if n > 1:
            cases.append((M, (rho[1], rho[0]) + rho[2:]))
        i = rng.randrange(n)
        cases.append((M, rho[:i] + (F(1, 2) * rho[i],) + rho[i + 1:]))
        for _ in range(3):
            i, k = rng.randrange(n), rng.randrange(m * m)
            cases.append((M, rho[:i] + (_moved(rho[i], k, random_fraction(rng) or 1),)
                          + rho[i + 1:]))
        cases.append((M, tuple(Mat.from_rows([[random_fraction(rng) for _ in range(m)]
                                              for _ in range(m)]) for _ in range(n))))
    octonions = _octonions()
    cases.append((octonions, _adjoint_action(octonions)))
    cases.append((octonions, tuple(_moved(mat, 8, 1) if i == 3 else mat
                                   for i, mat in enumerate(_adjoint_action(octonions)))))
    return cases


CORPUS = _corpus()


def _outcome(fn, M, rho):
    try:
        return fn(M, rho)
    except VerificationError as error:
        return type(error), str(error), error.report


@pytest.mark.parametrize("M, rho", CORPUS)
def test_the_maltsev_checks_equal_the_fraction_references(M, rho):
    assert maltsev_action_report(M, rho) == fraction_maltsev_action_report(M, rho)
    assert (maltsev_action_jordan_report(M, rho)
            == fraction_maltsev_action_jordan_report(M, rho))
    assert _outcome(induce_from_maltsev, M, rho) == _outcome(fraction_induce_from_maltsev, M, rho)


def test_the_corpus_passes_and_fails_each_condition():
    reports = [(maltsev_action_report(M, rho), maltsev_action_jordan_report(M, rho))
               for M, rho in CORPUS]
    for k, name in enumerate(("maltsev-representation", "maltsev-representation-jordan")):
        failed = [r[k].checks[0] for r in reports if not r[k].passed]
        assert failed and len(failed) < len(reports)
        assert all(c.name == name and len(c.witness) == 3 for c in failed)
        assert all(type(x) is F for c in failed for x in c.residual)
    # induce_from_maltsev refuses with each message: the first form fails, or it
    # passes and the Jordan form does not (the solvable n=2 action with one entry moved)
    messages = {outcome[1] for outcome in (_outcome(induce_from_maltsev, M, rho)
                                           for M, rho in CORPUS) if type(outcome) is tuple}
    assert messages == {"action does not satisfy the Maltsev representation condition",
                        "action does not satisfy the Jordan form of the Maltsev "
                        "representation condition"}


def test_an_action_failing_the_jordan_form_alone_is_refused_naming_it(tmp_path, capsys):
    # e0*e1 = e1 with rho(e0) = diag(0, -2), rho(e1) = [[0, 0], [-1, 0]]
    M = make_solvable(2)
    rho = (Mat.from_rows([[0, 0], [0, -2]]), Mat.from_rows([[0, 0], [-1, 0]]))
    assert maltsev_action_report(M, rho).passed
    jordan = maltsev_action_jordan_report(M, rho).checks[0]
    assert not jordan.passed and jordan.witness == (0, 0, 1)
    message = "action does not satisfy the Jordan form of the Maltsev representation condition"
    with pytest.raises(VerificationError, match=message):
        induce_from_maltsev(M, rho)
    algebra, action = tmp_path / "solvable2.alg", tmp_path / "action.rep"
    algebra.write_text(render_algebra(M))
    action.write_text(render_action(2, rho))
    assert main(["induce-rep", str(algebra), str(action)]) == 1
    assert f"FAIL: {message}" in capsys.readouterr().out


def test_the_induced_maps_of_a_rational_action_are_fractions():
    M, rho = _halved_so3()
    R = induce_from_maltsev(M, rho)
    entries = [x for grid in (R.D, R.theta) for row in grid for mat in row for x in mat.entries]
    assert all(type(x) is F for x in entries) and any(entries)
    assert R == fraction_induce_from_maltsev(M, rho)


@pytest.mark.parametrize("rho, message", [
    ((Mat.zeros(2, 2),), "expected 2 action matrices, got 1"),
    ((Mat.zeros(2, 2), Mat.zeros(3, 3)), "action matrices must share one square shape"),
    ((Mat.zeros(2, 3), Mat.zeros(2, 3)), "action matrices must share one square shape"),
])
def test_a_malformed_action_is_refused_by_every_entry_point(rho, message):
    for fn in (maltsev_action_report, maltsev_action_jordan_report, induce_from_maltsev):
        with pytest.raises(ValueError, match=message):
            fn(make_m0(), rho)
