"""The one (f, chi) coboundary matrix against independent reference systems.

``representation.coboundary_matrix`` is read in cochain coordinates (i<j
entries only).  The references below rebuild the two systems it replaced:
the pseudoderivation kernel probed over the full n x n and n x n x n
tensors, and the zero-companion solve that appends rows forcing chi = 0.
"""

import functools
import importlib
import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import BolAlgebra
from bolalg.cohomology import (
    CochainPair,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    solve_coboundary,
)
from bolalg.linalg import Mat, kernel_basis, matrix_of, solve
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    adjoint_representation,
    coboundary_matrix,
    coboundary_tensors,
    pseudoderivation_params,
    pseudoderivation_space,
    unpack_params,
)

from .conftest import make_b2, make_ex28_representation, random_representation_corpus
from .test_acceptance import _closure_corpus

REPRESENTATION = importlib.import_module("bolalg.representation")


@functools.cache
def _corpus():
    # the closure corpus holds the worked example (ex28) representation
    return ([R for _, R in _closure_corpus()]
            + [Representation.zero(make_b2(1), 2),
               Representation.zero(BolAlgebra.zero(2), 1)]
            + random_representation_corpus(count=5))


def _full_tensor_kernel(R):
    """The pseudoderivation kernel probed over every tensor entry."""
    n, m = R.base.n, R.m

    def flat(params):
        nu, omega = coboundary_tensors(R, unpack_params(n, m, params))
        return (tuple(x for plane in nu for row in plane for x in row)
                + tuple(x for cube in omega for plane in cube for row in plane for x in row))
    matrix = matrix_of(flat, pseudoderivation_params(n, m), m * n * n + m * n ** 3)
    return [unpack_params(n, m, v) for v in kernel_basis(matrix)]


def _identity_row_solve(R, c):
    """The zero-companion solve with rows [0 | I] appended to force chi = 0."""
    n, m = R.base.n, R.m
    M = coboundary_matrix(R)
    rows = [list(M.row(i)) for i in range(M.rows)]
    rows += [[F(0)] * (n * m) + list(Mat.identity(m).row(i)) for i in range(m)]
    sol = solve(Mat.from_rows(rows), c.coords() + (F(0),) * m)
    return None if sol is None else unpack_params(n, m, sol)


def _random_pseudo(rng, n, m, companion=True):
    f = Mat.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
    chi = tuple(F(rng.randint(-3, 3)) if companion else F(0) for _ in range(m))
    return PseudoderivationData(f, chi)


@pytest.mark.parametrize("index", range(10))
def test_kernel_matches_the_full_tensor_kernel(index):
    R = _corpus()[index]
    assert pseudoderivation_space(R) == _full_tensor_kernel(R)


@pytest.mark.parametrize("index", range(10))
def test_zero_companion_solve_matches_the_identity_row_system(index):
    R = _corpus()[index]
    n, m = R.base.n, R.m
    rng = random.Random(100 + index)
    targets = [coboundary_of(R, _random_pseudo(rng, n, m, companion=False)),
               coboundary_of(R, _random_pseudo(rng, n, m)),
               coords_to_cochain(R.base, m, tuple(
                   F(rng.randint(-2, 2)) for _ in range(cochain_dim(n, m))))]
    for c in targets:
        assert solve_coboundary(R, c, companion="none") == _identity_row_solve(R, c)
    assert solve_coboundary(R, targets[0], companion="none") is not None


def test_matrix_rows_are_the_cochain_coordinates():
    R = make_ex28_representation()
    n, m = R.base.n, R.m
    matrix = coboundary_matrix(R)
    rng = random.Random(5)
    for _ in range(5):
        p = _random_pseudo(rng, n, m)
        params = tuple(x for j in range(n) for x in p.f.col(j)) + p.chi
        assert matrix.apply(params) == coboundary_of(R, p).coords()


def _r1_violation():
    """D(e0, e1) = 1 with D(e1, e0) = 0 on a 1-dim module: R1 fails."""
    base = make_b2(1)
    z, one = Mat.zeros(1, 1), Mat.identity(1)
    D = ((z, one), (z, z))
    return Representation(base, 1, (z, z), D, ((z, z), (z, z)))


def test_non_antisymmetric_coboundary_raises_the_same_error_everywhere():
    R = _r1_violation()
    messages = []
    for call in (pseudoderivation_space, cohomology,
                 lambda R: solve_coboundary(R, CochainPair.zero(R.base, R.m))):
        with pytest.raises(ValueError, match="not antisymmetric") as info:
            call(R)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    # the first column, f(e_0), meets D(e_0, e_1) f(e_0) in omega(e_0, e_1, e_0)
    assert messages[0] == ("omega is not antisymmetric in its first two slots "
                           "at a=0, args (0,1,0)")


def test_pseudoderivations_then_cohomology_probe_each_parameter_once(monkeypatch):
    calls = []
    original = REPRESENTATION.coboundary_tensors

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(REPRESENTATION, "coboundary_tensors", counting)
    R = adjoint_representation(make_b2(1))
    basis = pseudoderivation_space(R)
    assert cohomology(R).dim_B + len(basis) == 2 * 2 + 2
    assert len(calls) == 2 * 2 + 2  # one column per parameter (f, chi)
