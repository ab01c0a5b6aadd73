"""The CC1-CC3 constraint rows against the unit-cochain probe they replaced.

``cohomology._constraint_rows`` writes the rows from the terms of the
cocycle conditions, and ``is_cocycle`` evaluates the same terms on
``c.coords()``.  The references below are the former construction: a
tensor evaluator of CC1-CC3 (one residual function per condition), run on
every unit cochain through ``linalg.matrix_of`` for the rows, and scanned
for the first failing tuple for ``is_cocycle``.
"""

import functools
import importlib
import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import (
    CheckReport,
    _scan,
    bilinear_eval,
    maltsev_to_bol,
    trilinear_eval,
)
from bolalg.cohomology import (
    _cc_conditions,
    _constraint_rows,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    is_cocycle,
)
from bolalg.linalg import matrix_of, vec_add, vec_sub
from bolalg.representation import adjoint_representation

from .conftest import make_so3
from .test_coboundary_matrix import _corpus, _random_pseudo

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
    r = vec_sub(r, R.rho_of(xx).apply(_nu(c, y1, y2)))
    r = vec_add(r, R.rho_of(yy).apply(_nu(c, x1, x2)))
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
    tuples = [tuples for _, tuples, _ in _cc_conditions(R)]
    return (("CC1", tuples[0], functools.partial(_cc1_residual, c)),
            ("CC2", tuples[1], functools.partial(_cc2_residual, R, c)),
            ("CC3", tuples[2], functools.partial(_cc3_residual, R, c)))


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


@pytest.mark.parametrize("index", range(11))
def test_rows_equal_the_probe_rows(index):
    R = _modules()[index]
    rows = list(_constraint_rows(R))
    assert rows == _probe_rows(R)
    assert all(type(x) is F for row in rows for _, x in row)  # exact, never int or float


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
    matrix = seen[0]
    assert matrix.rows == len(distinct)
    for r, row in enumerate(distinct):
        assert matrix.row(r) == tuple(dict(row).get(k, F(0)) for k in range(matrix.cols))
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
