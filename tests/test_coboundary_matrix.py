"""The one (f, chi) coboundary map against independent reference systems.

``representation.coboundary_matrix`` is the ``Mat`` written from the sparse rows
``_coboundary_rows`` writes from the kept sparse forms of B and R, read in
cochain coordinates (i<j entries only); ``coboundary_of``,
``is_pseudoderivation`` and ``coboundary_tensors`` apply the same rows to
(f, chi).  The references below are the constructions they replaced: the
dense Fraction coboundary (``conftest.dense_coboundary_tensors``, every
tensor entry evaluated with ``Mat.apply``), read directly and through the
unit-parameter probe (``matrix_of`` over it and ``entry_coords``), which
fails on the same unverified R as the antisymmetry gate; the
pseudoderivation kernel probed over the full n x n and n x n x n tensors;
and the zero-companion solve that appends rows forcing chi = 0.  The kept
sparse Delta rows, and ``R.delta`` read off them, equal the dense Delta
matrices (``conftest.dense_delta``).
"""

import functools
import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import BolAlgebra, maltsev_to_bol
from bolalg.cohomology import (
    CochainPair,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    solve_coboundary,
)
from bolalg.linalg import Mat, kernel_basis, solve
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    _delta_rows,
    adjoint_representation,
    coboundary_matrix,
    coboundary_tensors,
    is_pseudoderivation,
    pseudoderivation_params,
    pseudoderivation_space,
    unpack_params,
)

from .conftest import (
    dense,
    dense_coboundary_tensors,
    dense_delta,
    entry_coords,
    freeze,
    make_b2,
    make_ex28_representation,
    make_so3,
    matrix_of,
    random_representation_corpus,
    unit_vec,
)
from .test_acceptance import _closure_corpus


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
        nu, omega = dense_coboundary_tensors(R, unpack_params(n, m, params))
        return (tuple(x for plane in nu for row in plane for x in row)
                + tuple(x for cube in omega for plane in cube for row in plane for x in row))
    matrix = matrix_of(flat, pseudoderivation_params(n, m), m * n * n + m * n ** 3)
    return [unpack_params(n, m, v) for v in kernel_basis(matrix)]


def _identity_row_solve(R, c):
    """The zero-companion solve with rows [0 | I] appended to force chi = 0."""
    n, m = R.base.n, R.m
    M = dense(coboundary_matrix(R))
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
    matrix = dense(coboundary_matrix(R))
    rng = random.Random(5)
    for _ in range(5):
        p = _random_pseudo(rng, n, m)
        params = tuple(x for j in range(n) for x in p.f.col(j)) + p.chi
        assert matrix.apply(params) == coboundary_of(R, p).coords()


def _probe_coords(R, params):
    """The cochain coordinates of the coboundary of one parameter vector."""
    n, m = R.base.n, R.m
    nu, omega = dense_coboundary_tensors(R, unpack_params(n, m, params))
    return entry_coords(n, ("nu", nu, 2), ("omega", omega, 3))


def _probe_matrix(R):
    """The former coboundary_matrix: the map probed one unit parameter at a time."""
    n, m = R.base.n, R.m
    return matrix_of(functools.partial(_probe_coords, R), pseudoderivation_params(n, m),
                     cochain_dim(n, m))


@functools.cache
def _probe_modules():
    # the prime-denominator module is not adjoint: rho, D and theta are all nonzero
    from .test_constraint_rows import _prime_module
    return (_corpus() + [adjoint_representation(maltsev_to_bol(make_so3())),
                         _prime_module()])


@pytest.mark.parametrize("index", range(12))
def test_matrix_equals_the_probe(index):
    R = _probe_modules()[index]
    matrix = coboundary_matrix(R)
    assert dense(matrix) == _probe_matrix(R)
    assert all(type(x) is F for x in matrix.entries)  # exact, never int or float


def _r1_violation():
    """D(e0, e1) = 1 with D(e1, e0) = 0 on a 1-dim module: R1 fails."""
    base = make_b2(1)
    z, one = Mat.zeros(1, 1), Mat.identity(1)
    D = ((z, one), (z, z))
    return Representation(base, 1, (z, z), D, ((z, z), (z, z)))


def _symmetric_d():
    """D(e_i, e_j) = I for all i, j on V = Q^2 over the base with c = 0 and
    the matching [e_i, e_j, e_k] = e_k: the symmetric parts of D and of the
    ternary product cancel in omega, and Delta = D is not antisymmetric."""
    n = 2
    t = [[[[F(int(l == k)) for k in range(n)] for j in range(n)] for i in range(n)]
         for l in range(n)]
    base = BolAlgebra(n, freeze([[[F(0)] * n for _ in range(n)] for _ in range(n)]),
                      freeze(t))
    z, one = Mat.zeros(n, n), Mat.identity(n)
    grid = lambda mat: tuple(tuple(mat for _ in range(n)) for _ in range(n))
    return Representation(base, n, (z, z), grid(one), grid(z))


def _symmetric_product():
    """e0*e0 = e1 (c not antisymmetric) with the zero 1-dim module."""
    c = [[[F(0), F(0)], [F(0), F(0)]], [[F(1), F(0)], [F(0), F(0)]]]
    return Representation.zero(BolAlgebra(2, freeze(c), BolAlgebra.zero(2).t), 1)


@pytest.mark.parametrize("make,probe_message,message", [
    # the first column, f(e_0), meets D(e_0, e_1) f(e_0) in omega(e_0, e_1, e_0)
    (_r1_violation, "omega is not antisymmetric in its first two slots at a=0, args (0,1,0)",
     "D is not antisymmetric in its first two slots at args (0,1)"),
    # omega holds; Delta(e_0, e_0) = I meets the first chi column in nu(e_0, e_0)
    (_symmetric_d, "nu is not antisymmetric in its first two slots at a=0, args (0,0)",
     "ternary is not antisymmetric in its first two slots at args (0,0,0)"),
    # f(e_1) meets e0*e0 = e1 in nu(e_0, e_0)
    (_symmetric_product, "nu is not antisymmetric in its first two slots at a=0, args (0,0)",
     "binary is not antisymmetric in its first two slots at args (0,0)"),
])
def test_non_antisymmetric_coboundary_raises_the_antisymmetry_gate_everywhere(
        make, probe_message, message):
    # the probe fails on the same modules as the gate (c, t or D not
    # antisymmetric on a nonzero module), with its own message
    R = make()
    with pytest.raises(ValueError) as info:
        _probe_matrix(R)
    assert str(info.value) == probe_message
    zero = lambda R: PseudoderivationData.zero(R.base.n, R.m)
    for call in (pseudoderivation_space, cohomology,
                 lambda R: solve_coboundary(R, CochainPair.zero(R.base, R.m)),
                 lambda R: coboundary_of(R, zero(R)), lambda R: is_pseudoderivation(R, zero(R)),
                 lambda R: coboundary_tensors(R, zero(R))):
        with pytest.raises(ValueError) as info:
            call(make())  # a new R: nothing kept from the calls before
        assert str(info.value) == message


def test_only_the_chi_columns_of_the_symmetric_d_fail():
    R = _symmetric_d()
    n, m = R.base.n, R.m
    failing = []
    for p in range(pseudoderivation_params(n, m)):
        try:
            _probe_coords(R, unit_vec(pseudoderivation_params(n, m), p))
        except ValueError:
            failing.append(p)
    assert failing == list(range(n * m, n * m + m))


def test_pseudoderivations_then_cohomology_build_the_rows_once(coboundary_row_builds):
    R = adjoint_representation(make_b2(1))
    basis = pseudoderivation_space(R)
    assert cohomology(R).dim_B + len(basis) == 2 * 2 + 2
    assert coboundary_row_builds == [R]


@pytest.mark.parametrize("index", range(15))
def test_the_delta_rows_are_the_rows_of_the_dense_delta(index):
    R = (_probe_modules() + [_r1_violation(), _symmetric_d(), _symmetric_product()])[index]
    rng = range(R.base.n)
    rows, DD = _delta_rows(R), R.base.form[0] * R.form[0]  # ints over D_A * D_R
    assert rows == tuple(tuple(tuple(tuple((k, x * DD) for k, x in row)
                                     for row in dense_delta(R, i, j).nonzero_rows)
                               for j in rng) for i in rng)
    assert all(R.delta(i, j) == dense_delta(R, i, j) for i in rng for j in rng)
    assert all(type(x) is int for grid in rows for delta in grid for row in delta for _, x in row)


@pytest.mark.parametrize("index", range(12))
def test_the_coboundary_equals_the_dense_reference(index):
    # four random (f, chi) per module, each with a nonzero companion
    R = _probe_modules()[index]
    n, m = R.base.n, R.m
    rng = random.Random(300 + index)
    for _ in range(4):
        p = _random_pseudo(rng, n, m)
        if m:
            p = PseudoderivationData(p.f, (F(rng.choice((-2, -1, 1, 2))),) + p.chi[1:])
        nu, omega = dense_coboundary_tensors(R, p)
        c = coboundary_of(R, p)
        assert c.coords() == entry_coords(n, ("nu", nu, 2), ("omega", omega, 3))
        assert all(type(x) is F for x in c.coords())
        assert coboundary_tensors(R, p) == (nu, omega) == (c.nu, c.omega)
        assert is_pseudoderivation(R, p) == (not any(c.coords()))
