"""The CC1-CC3 constraint rows against the unit-cochain probe they replaced.

``cohomology._constraint_rows`` writes the rows from the one integer
statement of the cocycle conditions at the orbit representatives of the
antisymmetries, and ``is_cocycle`` evaluates the same statement on
``c.coords()`` at every tuple.  The references below are the former
construction: a tensor evaluator of CC1-CC3 in Fractions (one residual
function per condition), run on every unit cochain through
``conftest.matrix_of`` for the rows, and scanned for the first failing tuple
for ``is_cocycle``.  The elimination reads the distinct rows in order of
first occurrence, so that is what the rows are compared on: each row is a
primitive int row with a positive lead, and scaled to a leading 1 it is
the probe's row.  Besides the corpus, a module and cochains with
distinct-prime denominators put each common denominator of the integer
statement over 60 bits, with defects planted in the last cochain
coordinates.
"""

import functools
import importlib
import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    _scan,
    bilinear_eval,
    maltsev_to_bol,
    trilinear_eval,
)
from bolalg.cohomology import (
    _constraint_rows,
    _coordinate_index,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    is_cocycle,
)
from bolalg.linalg import Mat, _common_denominator, vec_add, vec_sub
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    _antisymmetry_failure,
    adjoint_representation,
    coboundary_matrix,
    induce_from_maltsev,
    verify_representation,
)

from .conftest import (
    assert_primitive, conjugate_representation, dense, freeze, leading_one, make_b2, make_so3,
    make_solvable, matrix_of, rho_of, tuplewise_antisymmetry_failure,
)
from .test_coboundary_matrix import _corpus, _r1_violation, _random_pseudo, _symmetric_product
from .test_sparse_scans import MODULE_DEFECTS, PRIME_BASE, _moved_maltsev, _perturbed

COHOMOLOGY = importlib.import_module("bolalg.cohomology")


def _nu(c, x, y):
    return bilinear_eval(c.nu, x, y, c.n)


def _omega(c, x, y, z):
    return trilinear_eval(c.omega, x, y, z, c.n)


def _cc1_residual(c, x1, x2, x3):
    return vec_add(_omega(c, x1, x2, x3), _omega(c, x2, x3, x1), _omega(c, x3, x1, x2))


def _cc2_residual(R, c, x1, x2, y1, y2):
    B = R.base
    xx = B.basis_product(x1, x2)
    yy = B.basis_product(y1, y2)
    r = _omega(c, x1, x2, yy)
    r = vec_add(r, R.D[x1][x2].apply(_nu(c, y1, y2)))
    r = vec_sub(r, _omega(c, y1, y2, xx))
    r = vec_sub(r, R.D[y1][y2].apply(_nu(c, x1, x2)))
    r = vec_sub(r, _nu(c, B.basis_triple(x1, x2, y1), y2))
    r = vec_sub(r, _nu(c, y1, B.basis_triple(x1, x2, y2)))
    r = vec_sub(r, R.rho[y1].apply(_omega(c, x1, x2, y2)))
    r = vec_add(r, R.rho[y2].apply(_omega(c, x1, x2, y1)))
    r = vec_sub(r, rho_of(R, xx).apply(_nu(c, y1, y2)))
    r = vec_add(r, rho_of(R, yy).apply(_nu(c, x1, x2)))
    r = vec_add(r, _nu(c, yy, xx))
    return r


def _cc3_residual(R, c, x1, x2, y1, y2, y3):
    B = R.base
    r = _omega(c, x1, x2, B.basis_triple(y1, y2, y3))
    r = vec_add(r, R.D[x1][x2].apply(_omega(c, y1, y2, y3)))
    r = vec_sub(r, _omega(c, B.basis_triple(x1, x2, y1), y2, y3))
    r = vec_sub(r, _omega(c, y1, B.basis_triple(x1, x2, y2), y3))
    r = vec_sub(r, _omega(c, y1, y2, B.basis_triple(x1, x2, y3)))
    r = vec_sub(r, R.D[y1][y2].apply(_omega(c, x1, x2, y3)))
    r = vec_sub(r, R.theta[y2][y3].apply(_omega(c, x1, x2, y1)))
    r = vec_add(r, R.theta[y1][y3].apply(_omega(c, x1, x2, y2)))
    return r


def _reference_conditions(R, c):
    """(name, index tuples, residual) of CC1-CC3, evaluated on the tensors."""
    tuples = lambda arity: itertools.product(range(R.base.n), repeat=arity)
    return (("CC1", tuples(3), functools.partial(_cc1_residual, c)),
            ("CC2", tuples(4), functools.partial(_cc2_residual, R, c)),
            ("CC3", tuples(5), functools.partial(_cc3_residual, R, c)))


def _reference_scan(R, c):
    return CheckReport(tuple(_scan(*condition) for condition in _reference_conditions(R, c)))


@functools.cache
def _probe_rows(R):
    """The unit-cochain probe's nonzero rows, each scaled to a leading 1."""
    n, m = R.base.n, R.m

    def residuals(coords):
        c = coords_to_cochain(R.base, m, coords)
        return tuple(x for _, tuples, residual in _reference_conditions(R, c)
                     for idx in tuples for x in residual(*idx))
    matrix = matrix_of(residuals, cochain_dim(n, m), m * (n ** 3 + n ** 4 + n ** 5))
    rows = []
    for r in range(matrix.rows):
        row = [(k, x) for k, x in enumerate(matrix.row(r)) if x]
        if row:
            rows.append(tuple((k, x / row[0][1]) for k, x in row))
    return rows


@functools.cache
def _modules():
    # _corpus() holds the closure corpus, two zero modules and five random
    # members (trivial and conjugated, non-adjoint modules among them)
    return _corpus() + [adjoint_representation(maltsev_to_bol(make_so3()))]


def _distinct(rows):
    """The distinct rows in order of first occurrence, as the elimination reads them."""
    return list(dict.fromkeys(rows))


def _scaled_distinct(rows):
    """Every row checked primitive with a positive lead; the distinct rows, in
    order of first occurrence, each scaled to a leading 1."""
    for row in rows:
        assert_primitive(row)
    return [leading_one(row) for row in _distinct(rows)]


@pytest.mark.parametrize("index", range(11))
def test_rows_equal_the_probe_rows(index):
    R = _modules()[index]
    assert _scaled_distinct(list(_constraint_rows(R))) == _distinct(_probe_rows(R))


@pytest.mark.parametrize("index", range(11))
def test_representatives_give_the_rows_of_every_tuple(index, monkeypatch):
    R = _modules()[index]
    representatives = list(_constraint_rows(R))
    conditions = COHOMOLOGY._cocycle_conditions
    monkeypatch.setattr(COHOMOLOGY, "_cocycle_conditions", lambda R, representatives: conditions(R))
    every = list(_constraint_rows(R))
    assert _distinct(representatives) == _distinct(every)
    assert len(representatives) < len(every) or not every


def _symmetric_d():
    """D(e_i, e_j) = I on a 1-dim module over b2: D alone is not antisymmetric."""
    z, one = Mat.zeros(1, 1), Mat.identity(1)
    return Representation(make_b2(1), 1, (z, z), ((one, one), (one, one)),
                          ((z, z), (z, z)))


def test_rows_refuse_a_d_that_is_not_antisymmetric():
    with pytest.raises(ValueError) as info:
        list(_constraint_rows(_symmetric_d()))
    assert str(info.value) == "D is not antisymmetric in its first two slots at args (0,0)"
    # cohomology() builds the coboundary map first, which has the same gate
    with pytest.raises(ValueError) as info:
        cohomology(_symmetric_d())
    assert str(info.value) == "D is not antisymmetric in its first two slots at args (0,0)"


def test_cohomology_refuses_a_product_the_coboundary_map_cannot_see():
    # on the zero module V = 0 the coboundary map has no rows to check, so only
    # the check of _constraint_rows sees that e0*e0 = e1
    R = Representation.zero(_symmetric_product().base, 0)
    matrix = coboundary_matrix(R)
    assert (matrix.rows, matrix.cols) == (0, 0)
    with pytest.raises(ValueError) as info:
        cohomology(R)
    assert str(info.value) == "binary is not antisymmetric in its first two slots at args (0,0)"


def _with_symmetric_part(R, which, rng):
    """R with a random nonzero symmetric part added to its product, ternary product or D."""
    B, n, m = R.base, R.base.n, R.m
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if which == "D":
        a, b = rng.randrange(m), rng.randrange(m)
        extra = Mat.from_rows([[F(int((r, s) == (a, b))) for s in range(m)] for r in range(m)])
        D = tuple(tuple(R.D[x][y] + extra if {x, y} == {i, j} else R.D[x][y]
                        for y in range(n)) for x in range(n))
        return Representation(B, m, R.rho, D, R.theta)
    at = {(i, j), (j, i)} if which == "c" else {(i, j, k), (j, i, k)}
    l, s = rng.randrange(n), F(rng.choice((-2, -1, 1, 2)))
    c = [[[B.c[o][x][y] + s * (o == l and (x, y) in at) for y in range(n)] for x in range(n)]
         for o in range(n)] if which == "c" else B.c
    t = [[[[B.t[o][x][y][z] + s * (o == l and (x, y, z) in at) for z in range(n)]
           for y in range(n)] for x in range(n)] for o in range(n)] if which == "t" else B.t
    return Representation(BolAlgebra(n, freeze(c), freeze(t)), m, R.rho, R.D, R.theta)


@pytest.mark.parametrize("which", ["c", "t", "D"])
def test_the_coboundary_check_refuses_every_symmetric_part(which):
    # On a nonzero module the coboundary map is antisymmetric only if c, t and D
    # are (nu: chi reads Delta and f reads c; omega: f reads D and t), so
    # cohomology() never reaches the representatives with one that is not.
    rng = random.Random(7)
    for R in _modules():
        if R.m and R.base.n:
            with pytest.raises(ValueError, match="not antisymmetric"):
                cohomology(_with_symmetric_part(R, which, rng))


def test_the_antisymmetry_gate_equals_the_tuplewise_reference():
    # the gate's corpora: every module with a symmetric part added, the modules it
    # refuses by name, the module defects, and D failing only in a row past n
    rng = random.Random(7)
    past_n = _perturbed(Representation.zero(BolAlgebra.zero(1), 3), "D", 0, 0, 2, 0)
    modules = [_with_symmetric_part(R, which, rng) for which in ("c", "t", "D")
               for R in _modules() if R.m and R.base.n]
    modules += [*_modules(), _symmetric_d(), _symmetric_product(), _r1_violation(),
                *MODULE_DEFECTS, past_n]
    messages = [_antisymmetry_failure(R) for R in modules]
    assert messages == [tuplewise_antisymmetry_failure(R) for R in modules]
    assert any(messages) and not all(messages)
    assert messages[-1] == "D is not antisymmetric in its first two slots at args (0,0)"


@pytest.mark.parametrize("index", [0, 2, 7, 10])
def test_cohomology_eliminates_the_distinct_probe_rows(index, monkeypatch):
    R = _modules()[index]
    seen = []
    original = COHOMOLOGY.kernel_basis

    def capture(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr(COHOMOLOGY, "kernel_basis", capture)
    report = cohomology(R)
    distinct = list(dict.fromkeys(_probe_rows(R)))  # first of each repeat kept
    assert _scaled_distinct(seen[0].nonzero_rows) == distinct
    matrix = dense(seen[0])
    assert matrix.rows == len(distinct)
    for r, row in enumerate(distinct):
        lead = seen[0].nonzero_rows[r][0][1]
        assert tuple(F(x, lead) for x in matrix.row(r)) == tuple(
            dict(row).get(k, F(0)) for k in range(matrix.cols))
    assert report.dim_Z == len(original(matrix))


def _cochains(R, seed):
    """Cocycles (zero, coboundaries, Z-combinations) and non-cocycles (random
    coordinates, cocycles changed in one coordinate)."""
    n, m = R.base.n, R.m
    rng = random.Random(seed)
    dim = cochain_dim(n, m)
    z = cohomology(R).z_basis
    cocycles = [coords_to_cochain(R.base, m, (F(0),) * dim)]
    cocycles += [coboundary_of(R, _random_pseudo(rng, n, m)) for _ in range(2)]
    for _ in range(2):
        coeffs = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in z]
        coords = tuple(sum((a * v.coords()[i] for a, v in zip(coeffs, z)), F(0))
                       for i in range(dim))
        cocycles.append(coords_to_cochain(R.base, m, coords))
    others = [coords_to_cochain(R.base, m, tuple(F(rng.randint(-2, 2)) for _ in range(dim)))]
    for c in cocycles[1:]:
        coords = list(c.coords())
        coords[rng.randrange(dim)] += F(rng.choice((-1, 1)), rng.choice((1, 3)))
        others.append(coords_to_cochain(R.base, m, tuple(coords)))
    return cocycles, others


@pytest.mark.parametrize("index", range(11))
def test_is_cocycle_reports_equal_the_reference_scan(index):
    R = _modules()[index]
    cocycles, others = _cochains(R, 300 + index)
    for c in cocycles + others:
        got, want = is_cocycle(R, c), _reference_scan(R, c)
        assert len(got.checks) == len(want.checks) == 3
        for g, w in zip(got.checks, want.checks):
            assert (g.name, g.passed, g.witness, g.residual) == (
                w.name, w.passed, w.witness, w.residual)
            assert g.residual is None or all(type(x) is F for x in g.residual)
    assert all(is_cocycle(R, c).passed for c in cocycles)


def test_the_non_cocycles_fail_each_condition_somewhere():
    failing = set()
    for index, R in enumerate(_modules()):
        for c in _cochains(R, 300 + index)[1]:
            failing.update(check.name for check in _reference_scan(R, c).failures())
    assert failing == {"CC1", "CC2", "CC3"}


# ---------------------------------------------------------------------------
# distinct-prime denominators: the common denominators D_A (of B), D_R (of
# rho, D, theta) and D_C (of a cochain) of the integer statement each have
# over 60 bits


PRIMES = tuple(p for p in range(1009, 1500) if all(p % d for d in range(2, 39)))


def _prime_matrix(size, primes):
    """The identity plus 1/p off the diagonal, one prime p per entry."""
    return Mat.from_rows([[1 if i == j else F(1, next(primes)) for j in range(size)]
                          for i in range(size)])


@functools.cache
def _prime_module():
    """sol3 (e0*ek = k ek) acting on Q^2 by rho(e0) = diag(1, 0), rho(e1) = E_01,
    rho(e2) = 0, induced to its Bol algebra: B on a basis and V conjugated by
    matrices with distinct-prime denominators.  Not an adjoint module; rho,
    D and theta are all nonzero."""
    primes = iter(PRIMES)
    T = _prime_matrix(3, primes)
    M = _moved_maltsev(make_solvable(3), T)
    action = (Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]]), Mat.zeros(2, 2))
    rho = tuple(sum((s * action[k] for k, s in enumerate(T.col(i))), Mat.zeros(2, 2))
                for i in range(3))
    R = conjugate_representation(induce_from_maltsev(M, rho), _prime_matrix(2, primes))
    assert verify_representation(R).passed
    return R


def _prime_cochains():
    """A coboundary, the coboundary plus a combination of the Z basis, and two
    defects planted in the last coordinates: nu(e1, e2) (CC2 alone fails) and
    omega(e1, e2, e2) (the cyclic sums of CC1 still vanish)."""
    R = _prime_module()
    n, m = R.base.n, R.m
    primes = iter(PRIMES[8:])  # the module took the first 8
    f = Mat.from_rows([[F(1, next(primes)) for _ in range(n)] for _ in range(m)])
    coboundary = coboundary_of(R, PseudoderivationData(f, tuple(F(1, next(primes))
                                                                for _ in range(m))))
    z = cohomology(R).z_basis
    coords = list(coboundary.coords())
    for v, p in zip(z, primes):
        coords = [x + F(1, p) * y for x, y in zip(coords, v.coords())]
    cocycles = [coboundary, coords_to_cochain(R.base, m, tuple(coords))]
    planted = []
    for k in (3 * m - 1, cochain_dim(n, m) - 1):
        coords = list(coboundary.coords())
        coords[k] += F(1, next(primes))
        planted.append(coords_to_cochain(R.base, m, tuple(coords)))
    return R, cocycles, planted


def test_the_prime_module_rows_equal_the_probe_rows():
    R = _prime_module()
    assert R.base.form[0].bit_length() > 60
    assert R.form[0].bit_length() > 60
    assert _scaled_distinct(list(_constraint_rows(R))) == _distinct(_probe_rows(R))


def test_is_cocycle_on_the_prime_module_equals_the_reference_scan():
    R, cocycles, planted = _prime_cochains()
    failed = []
    for c in cocycles + planted:
        assert _common_denominator(c.coords()).bit_length() > 60
        got, want = is_cocycle(R, c), _reference_scan(R, c)
        for g, w in zip(got.checks, want.checks, strict=True):
            assert (g.name, g.passed, g.witness, g.residual) == (
                w.name, w.passed, w.witness, w.residual)
            assert g.residual is None or all(type(x) is F for x in g.residual)
        failed.append([check.name for check in got.failures()])
    assert failed[:2] == [[], []]
    assert failed[2] == ["CC2"]
    assert "CC1" not in failed[3] and "CC3" in failed[3]


def test_a_late_defect_behind_prime_denominators_is_found_as_by_the_reference_scan():
    # sol3 (+) so3 on a basis with distinct-prime denominators inside each block:
    # a defect in omega(e4, e5, e5) of a coboundary of the adjoint module is read
    # only by tuples that start in the second block
    B = maltsev_to_bol(PRIME_BASE)
    R = adjoint_representation(B)
    n = m = B.n
    primes = iter(PRIMES)
    f = Mat.from_rows([[F(1, next(primes)) for _ in range(n)] for _ in range(m)])
    coords = list(coboundary_of(R, PseudoderivationData(f, (F(0),) * m)).coords())
    coords[_coordinate_index(n, m)[(4, 5, 5)][0] + m - 1] += F(1, next(primes))
    c = coords_to_cochain(B, m, tuple(coords))
    assert min(B.form[0], R.form[0],
               _common_denominator(c.coords())).bit_length() > 60
    got = is_cocycle(R, c)
    assert got == _reference_scan(R, c)
    assert [check.name for check in got.failures()] == ["CC2", "CC3"]
    assert got["CC2"].witness[0] == got["CC3"].witness[0] == 3
    assert all(type(x) is F for check in got.failures() for x in check.residual)
