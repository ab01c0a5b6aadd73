"""induce_from_maltsev decides a Maltsev action by its split null extension,
against the Fraction matrix arithmetic of the two hand-derived conditions.

An action rho of M on V is a Maltsev representation when the null extension
M (+) V, with (a+u)(b+v) = ab + rho(a)v - rho(b)u, is a Maltsev algebra.
``induce_from_maltsev`` builds that algebra once (``_null_extension``),
refuses the action unless verify_maltsev passes on it, and reads D and theta
off the brackets of its Bol algebra.  The references in ``conftest`` are the
tabulated null extension (``fraction_null_extension``), the condition in its
two hand-derived forms, [D1(x,y), rho(z)] = rho([x,y,z]_1) and the Jordan
form (``fraction_maltsev_action_report`` and ``_jordan_report``), and the
induced maps of ``fraction_induce_from_maltsev``, which requires both forms:
commutators, ``@`` and linear combinations of ``Fraction`` matrices.  The
library must accept exactly the actions the references accept, with the same
``Representation``.

The actions are the adjoint actions of m0, so3, the solvable algebras n = 2-4
and the octonions, those conjugated by a rational matrix and on a rational
basis of so3, with two matrices swapped, one matrix halved or one entry moved,
and random rational actions; then 1,016 seeded ones of the same kinds, with
direct sums and small integer actions.
"""

import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import MaltsevAlgebra, VerificationError, verify_maltsev
from bolalg.cli import main
from bolalg.formats import render_action, render_algebra
from bolalg.linalg import Mat, inverse
from bolalg.representation import _null_extension, induce_from_maltsev

from .conftest import (
    assert_read_as_its_matrices,
    fraction_induce_from_maltsev,
    fraction_maltsev_action_jordan_report,
    fraction_maltsev_action_report,
    fraction_null_extension,
    m0_action,
    make_m0,
    make_so3,
    make_solvable,
    random_fraction,
    random_invertible,
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


def _block(a: Mat, b: Mat) -> Mat:
    return Mat.from_rows([list(a.row(r)) + [0] * b.rows for r in range(a.rows)]
                         + [[0] * a.rows + list(b.row(r)) for r in range(b.rows)])


_KINDS = ("conjugate", "sum", "moved", "moved", "swapped", "scaled", "random", "random")


def _random_actions(rng: random.Random, M: MaltsevAlgebra, known: list, count: int,
                    kinds: tuple = _KINDS) -> list:
    """count actions of M, the kinds in turn, each made from a known Maltsev
    representation (or the zero action on one dimension): conjugated by a random
    rational matrix, summed with a small known one, one entry moved, two matrices
    swapped, one matrix scaled, or a random action with entries in {-1, 0, 1}."""
    n, known = M.n, known + [(Mat.zeros(1, 1),) * M.n]
    out = []
    for c in range(count):
        kind, rho = kinds[c % len(kinds)], rng.choice(known)
        m = rho[0].rows
        if kind == "conjugate":
            rho = _conjugated(rho, random_invertible(rng, m))
        elif kind == "sum":
            other = rng.choice([k for k in known if k[0].rows <= 2])
            rho = tuple(map(_block, rho, other))
        elif kind == "moved":
            i, k = rng.randrange(n), rng.randrange(m * m)
            rho = rho[:i] + (_moved(rho[i], k, random_fraction(rng) or 1),) + rho[i + 1:]
        elif kind == "swapped":
            i, j = sorted(rng.sample(range(n), 2))
            rho = rho[:i] + (rho[j],) + rho[i + 1:j] + (rho[i],) + rho[j + 1:]
        elif kind == "scaled":
            i = rng.randrange(n)
            rho = rho[:i] + (random_fraction(rng) * rho[i],) + rho[i + 1:]
        else:
            m = rng.randint(1, 2)
            rho = tuple(Mat.from_rows([[rng.choice((-1, 0, 0, 1)) for _ in range(m)]
                                       for _ in range(m)]) for _ in range(n))
        out.append((M, rho))
    return out


# (name, algebra, its known Maltsev representations, count, kinds); the octonions'
# references take about a second on a passing action, so they get few and no conjugate
_PLAN = {
    "m0": lambda: (make_m0(), [m0_action()], 260, _KINDS),
    "so3": lambda: (make_so3(), [], 200, _KINDS),
    "solvable2": lambda: (make_solvable(2), [], 260, _KINDS),
    "solvable3": lambda: (make_solvable(3), [], 160, _KINDS),
    "solvable4": lambda: (make_solvable(4), [], 120, _KINDS),
    "octonions": lambda: (_octonions(), [], 16, _KINDS[1:] + _KINDS[2:3]),
}


def _outcome(fn, M, rho):
    try:
        return fn(M, rho)
    except VerificationError as error:
        return type(error), str(error), error.report


def _assert_agrees(M, rho) -> bool:
    """induce_from_maltsev against fraction_induce_from_maltsev (both forms of the
    condition, then the Fraction maps); True when the action is accepted."""
    got = _outcome(induce_from_maltsev, M, rho)
    expected = _outcome(fraction_induce_from_maltsev, M, rho)
    if type(expected) is tuple:  # refused by a reference form: refused by the null extension
        assert got == (VerificationError, _REFUSAL, verify_maltsev(fraction_null_extension(M, rho)))
        assert not got[2].passed
        return False
    assert got == expected
    assert_read_as_its_matrices(got)
    assert got.rho == tuple(rho)  # the action read back off the null extension
    return True


_REFUSAL = "action does not satisfy the Maltsev representation condition"


@pytest.mark.parametrize("M, rho", CORPUS)
def test_the_null_extension_equals_the_tabulated_reference(M, rho):
    N = _null_extension(M, rho)
    assert N == fraction_null_extension(M, rho) and N.n == M.n + rho[0].rows


@pytest.mark.parametrize("M, rho", CORPUS)
def test_an_action_is_accepted_as_by_both_reference_forms(M, rho):
    _assert_agrees(M, rho)


@pytest.mark.parametrize("name", _PLAN)
def test_random_and_perturbed_actions_are_accepted_as_by_both_reference_forms(name):
    M, known, count, kinds = _PLAN[name]()
    rng = random.Random(f"maltsev-action-{name}")
    actions = _random_actions(rng, M, [_adjoint_action(M), *known], count, kinds)
    accepted = [_assert_agrees(M, rho) for M, rho in actions]
    assert any(accepted) and not all(accepted)


def test_the_corpus_passes_and_fails_each_reference_form():
    reports = [(fraction_maltsev_action_report(M, rho),
                fraction_maltsev_action_jordan_report(M, rho)) for M, rho in CORPUS]
    for k in range(2):
        assert 0 < sum(r[k].passed for r in reports) < len(reports)
    accepted = [_assert_agrees(M, rho) for M, rho in CORPUS]
    assert sum(accepted) == 14
    assert accepted == [all(r.passed for r in pair) for pair in reports]


def test_an_action_failing_the_jordan_form_alone_is_refused_with_the_one_message(
        tmp_path, capsys):
    # e0*e1 = e1 with rho(e0) = diag(0, -2), rho(e1) = [[0, 0], [-1, 0]]
    M = make_solvable(2)
    rho = (Mat.from_rows([[0, 0], [0, -2]]), Mat.from_rows([[0, 0], [-1, 0]]))
    assert fraction_maltsev_action_report(M, rho).passed
    assert not fraction_maltsev_action_jordan_report(M, rho).passed
    with pytest.raises(VerificationError, match=_REFUSAL) as info:
        induce_from_maltsev(M, rho)
    assert info.value.report == verify_maltsev(fraction_null_extension(M, rho))
    algebra, action = tmp_path / "solvable2.alg", tmp_path / "action.rep"
    algebra.write_text(render_algebra(M))
    action.write_text(render_action(2, rho))
    assert main(["induce-rep", str(algebra), str(action)]) == 1
    assert f"FAIL: {_REFUSAL}" in capsys.readouterr().out


def test_a_witness_index_past_n_is_a_module_vector():
    # m0 (e0*e1 = -e1) with rho(e0) = E_00, rho(e1) = E_01: the identity fails at
    # x = e0, y = e1 and z = e3, the module vector u_1
    rho = (Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(VerificationError) as info:
        induce_from_maltsev(make_m0(), rho)
    report = info.value.report
    assert report["anticommutativity"].passed
    assert report["maltsev-identity"].witness == ((0,), 1, 3)
    assert report["maltsev-identity"].residual == (0, 0, -2, 0)


def test_the_algebra_is_checked_before_the_action():
    # not anticommutative: refused as an algebra whatever the action
    M = MaltsevAlgebra(2, (((0, 1), (0, 0)), ((0, 0), (1, 0))))
    with pytest.raises(VerificationError, match="input is not a Maltsev algebra"):
        induce_from_maltsev(M, (Mat.identity(1), Mat.identity(1)))


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
def test_a_malformed_action_is_refused(rho, message):
    for fn in (_null_extension, induce_from_maltsev, fraction_induce_from_maltsev):
        with pytest.raises(ValueError, match=message):
            fn(make_m0(), rho)
