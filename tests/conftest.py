"""Shared fixtures: the worked examples and a reproducible random corpus."""

import argparse
import functools
import importlib
import itertools
import json
import math
import random
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path

import pytest

from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    ConditionCheck,
    MaltsevAlgebra,
    _add_form,
    _add_terms,
    _antisymmetry_error,
    _bracket,
    _checked_entries,
    _dense,
    _entry_forms,
    _fill,
    _form_entries,
    _integer_sum,
    _nonzeros,
    _of_form,
    _once_per_object,
    _over,
    _require_passed,
    _scaled,
    _scan,
    _times,
    bilinear_eval,
    entry_args,
    maltsev_to_bol,
    slot_tuples,
    trilinear_eval,
    verify_bol,
)
from bolalg import cli
from bolalg.cohomology import CochainPair, is_cocycle
from bolalg.linalg import (
    _ONE, _ZERO, Mat, _common_denominator, _echelon, image_rank, inverse, vec_add, vec_scale,
    vec_sub, zero_vec,
)
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    _antisymmetry_failure,
    _cochain_entries,
    _delta_rows,
    adjoint_representation,
    induce_from_maltsev,
    verify_representation,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def make_b2(lam) -> BolAlgebra:
    """Two-dimensional algebra: e0*e1 = -e1, [e0,e1,e0] = lam*e1."""
    return BolAlgebra.from_entries(
        2,
        binary=[((0, 1), {1: F(-1)})],
        ternary=[((0, 1, 0), {1: F(lam)})],
    )


def make_maltsev_dim4() -> MaltsevAlgebra:
    """The 4-dim Maltsev algebra: e0e1=-e1, e0e2=-e2, e0e3=e3, e1e2=2e3."""
    return MaltsevAlgebra.from_entries(4, binary=[
        ((0, 1), {1: F(-1)}),
        ((0, 2), {2: F(-1)}),
        ((0, 3), {3: F(1)}),
        ((1, 2), {3: F(2)}),
    ])


def make_m0() -> MaltsevAlgebra:
    """The subalgebra spanned by the first two basis vectors above."""
    return MaltsevAlgebra.from_entries(2, binary=[((0, 1), {1: F(-1)})])


def make_so3() -> MaltsevAlgebra:
    """so(3)-type constants: e0e1=e2, e1e2=e0, e2e0=e1."""
    return MaltsevAlgebra.from_entries(3, binary=[
        ((0, 1), {2: F(1)}),
        ((1, 2), {0: F(1)}),
        ((0, 2), {1: F(-1)}),
    ])


def make_solvable(n: int) -> MaltsevAlgebra:
    """The solvable Lie algebra e0*ek = k ek (1 <= k < n)."""
    return MaltsevAlgebra.from_entries(n, binary=[((0, k), {k: F(k)}) for k in range(1, n)])


def m0_action() -> tuple[Mat, Mat]:
    """Action of the subalgebra on the complementary ideal V = span{e2,e3}."""
    M4 = make_maltsev_dim4()
    mats = []
    for i in range(2):
        cols = []
        for a in range(2, 4):
            prod = M4.product(i, a)
            assert prod[0] == 0 == prod[1]
            cols.append([prod[2], prod[3]])
        mats.append(Mat.from_cols(cols, rows=2))
    return tuple(mats)


def assert_read_as_its_matrices(R: Representation) -> None:
    """R's form is the one the public constructor reads from R's own matrices: D_R and
    every entry in lowest terms, so a module reader that skips the gcd fails here."""
    read = Representation(R.base, R.m, R.rho, R.D, R.theta)
    assert read.form == R.form and read == R and hash(read) == hash(R)


def fraction_adjoint_representation(B: BolAlgebra) -> Representation:
    """The former adjoint_representation: every matrix built column by column
    from basis_product and basis_triple, then read by the public constructor."""
    _require_passed(verify_bol(B), "adjoint representation needs a verified Bol algebra")
    rng = range(B.n)

    def matrix(image):  # column w is the image of e_w
        return Mat.from_cols([image(w) for w in rng], rows=B.n)
    rho = tuple(matrix(lambda w: B.basis_product(u, w)) for u in rng)
    D = tuple(tuple(matrix(lambda w: B.basis_triple(u, v, w)) for v in rng) for u in rng)
    theta = tuple(tuple(matrix(lambda w: B.basis_triple(w, u, v)) for v in rng) for u in rng)
    return Representation(B, B.n, rho, D, theta)


def make_ex28_representation() -> Representation:
    return induce_from_maltsev(make_m0(), m0_action())


@pytest.fixture(scope="session")
def b2_1():
    return make_b2(1)


@pytest.fixture(scope="session")
def b2_m1():
    return make_b2(-1)


@pytest.fixture(scope="session")
def adj_1(b2_1):
    return adjoint_representation(b2_1)


@pytest.fixture(scope="session")
def adj_m1(b2_m1):
    return adjoint_representation(b2_m1)


@pytest.fixture(scope="session")
def ex28_rep():
    return make_ex28_representation()


@pytest.fixture
def coboundary_row_builds(monkeypatch):
    """The representations whose coboundary rows are built, one entry per build.

    The kept row form ``representation._coboundary_rows`` is rebuilt around
    a counting copy of its builder; callers look it up in that module.
    """
    module = importlib.import_module("bolalg.representation")
    build = module._coboundary_rows.__wrapped__
    builds = []

    @functools.wraps(build)
    def counting(R):
        builds.append(R)
        return build(R)

    monkeypatch.setattr(module, "_coboundary_rows", _once_per_object(counting))
    return builds


def _map_rows(R: Representation) -> tuple:
    """(rho, D, theta) of R, each matrix as its nonzero_rows of Fractions."""
    grid = lambda g: tuple(tuple(mat.nonzero_rows for mat in row) for row in g)
    return tuple(mat.nonzero_rows for mat in R.rho), grid(R.D), grid(R.theta)


def leaves(x) -> list:
    """Every scalar of nested tuples of scalars and matrices."""
    if isinstance(x, Mat):
        return list(x.entries)
    return [y for part in x for y in leaves(part)] if isinstance(x, tuple) else [x]


def dense(matrix) -> Mat:
    """matrix written again from its row-major entries view, through the constructor: the
    same Mat, its entries checked exact and its nonzero_rows read back off them."""
    return Mat(matrix.rows, matrix.cols, matrix.entries)


# ---------------------------------------------------------------------------
# slow references: a linear map probed on the unit vectors, and [a | b]


def unit_vec(n: int, i: int) -> tuple:
    return tuple(F(int(j == i)) for j in range(n))


def matrix_of(fn, dim: int, rows: int) -> Mat:
    """The rows x dim matrix of a linear map: column i is fn(e_i), probed in order."""
    cols = [fn(unit_vec(dim, i)) for i in range(dim)]
    if any(len(col) != rows for col in cols):
        raise ValueError(f"matrix_of: a column is not of length {rows}")
    return Mat(rows, dim, tuple(x for row in zip(*cols) for x in row))


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("hstack: row count mismatch")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    return Mat.from_rows(rows) if rows else Mat.zeros(0, a.cols + b.cols)


# ---------------------------------------------------------------------------
# slow references: the Fraction rows of both cohomology maps, and the kernel
# read pair by pair


def fraction_constraint_rows(R: Representation):
    """The former cohomology._constraint_rows: each row's int sums divided
    into Fractions by its leading entry, so every row leads with 1."""
    COHOMOLOGY = importlib.import_module("bolalg.cohomology")
    failure = _antisymmetry_failure(R)
    if failure:
        raise ValueError(failure)
    m, index = R.m, COHOMOLOGY._coordinate_index(R.base.n, R.m)
    for _, _, tuples, reads in COHOMOLOGY._cocycle_conditions(R, representatives=True):
        for idx in tuples:
            rows = [{} for _ in range(m)]
            for coeff, map_rows, args in reads(*idx):
                start, sign = index.get(args, (0, 0))
                if sign:
                    s = sign * coeff
                    for a, map_row in enumerate(map_rows):
                        for b, x in map_row:
                            rows[a][start + b] = rows[a].get(start + b, 0) + s * x
            for row in rows:
                row = sorted((k, x) for k, x in row.items() if x)
                if row:
                    lead = row[0][1]
                    yield tuple((k, F(x, lead)) for k, x in row)


def pairwise_kernel_basis(m) -> list:
    """The former kernel_basis: the canonical RREF rows in Fractions, then
    minus row.get(fc) at every pivot, for every free column fc."""
    echelon = {pc: {k: F(x, row[pc]) for k, x in row.items()}
               for pc, row in _echelon(m.nonzero_rows).items()}
    basis = []
    for fc in (j for j in range(m.cols) if j not in echelon):
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for pc, row in echelon.items():
            v[pc] = -row.get(fc, F(0))
        basis.append(tuple(v))
    return basis


def leading_one(row):
    """The row divided by its leading entry, in Fractions."""
    lead = row[0][1]
    return tuple((k, F(x, lead)) for k, x in row)


def assert_primitive(row):
    """row is (col, int) pairs, col ascending, with a positive lead and gcd 1."""
    assert all(type(x) is int for _, x in row)  # exact, never a Fraction or a float
    assert row[0][1] > 0 and math.gcd(*(x for _, x in row)) == 1
    assert [k for k, _ in row] == sorted({k for k, _ in row})


def fraction_sparse_row(*parts) -> tuple:
    """The former representation._sparse_row: a part (s, start, step, terms)
    adds s * x at key start + step * k for each (k, x) in terms, one
    Fraction operation per term."""
    acc = {}
    for s, start, step, terms in parts:
        for k, x in terms:
            key = start + step * k
            acc[key] = acc.get(key, F(0)) + s * x
    return tuple(sorted((k, x) for k, x in acc.items() if x))


def fraction_delta_rows(R: Representation) -> tuple:
    """The former _delta_rows: D(e_i, e_j) - sum_k c_ij^k rho(e_k) by rows, in Fractions."""
    P = coordinate_product_terms(R.base)
    rho, D, _ = _map_rows(R)
    rng = range(R.base.n)
    return tuple(tuple(tuple(fraction_sparse_row((1, 0, 1, D[i][j][r]),
                                                 *((-c, 0, 1, rho[k][r]) for k, c in P[i][j]))
                             for r in range(R.m)) for j in rng) for i in rng)


def fraction_coboundary_rows(R: Representation) -> tuple:
    """The former _coboundary_rows (after its antisymmetry gate), in Fractions."""
    B = R.base
    n, m = B.n, R.m
    P, T = coordinate_product_terms(B), coordinate_triple_terms(B)
    rho, D, theta = _map_rows(R)
    delta = fraction_delta_rows(R)

    def nu(x1, x2, a):
        return fraction_sparse_row((1, x2 * m, 1, rho[x1][a]), (-1, x1 * m, 1, rho[x2][a]),
                                   (1, n * m, 1, delta[x1][x2][a]), (-1, a, m, P[x1][x2]))

    def omega(x1, x2, x3, a):
        return fraction_sparse_row((1, x1 * m, 1, theta[x2][x3][a]),
                                   (-1, x2 * m, 1, theta[x1][x3][a]),
                                   (1, x3 * m, 1, D[x1][x2][a]), (-1, a, m, T[x1][x2][x3]))

    return tuple(fn(*args, a) for arity, fn in ((2, nu), (3, omega))
                 for args in entry_args(n, arity) for a in range(m))


# ---------------------------------------------------------------------------
# slow references: the dense Fraction coboundary, every tensor entry evaluated
# with Mat.apply, and Delta from the dense matrices


def _lincomb(mats: tuple[Mat, ...], x, m: int) -> Mat:
    """The former representation._lincomb: sum_i x_i mats[i] for a Vec x; a basis
    index x picks mats[x]."""
    if isinstance(x, int):
        return mats[x]
    acc = Mat.zeros(m, m)
    for i, s in enumerate(x):
        if s:
            acc = acc + s * mats[i]
    return acc


def commutator(a: Mat, b: Mat) -> Mat:
    """The former linalg.commutator: [A, B] = AB - BA, dense."""
    return a @ b - b @ a


def rho_of(R: Representation, x) -> Mat:
    """The former Representation.rho_of: rho(x) for a basis index or a Vec x."""
    return _lincomb(R.rho, x, R.m)


def dense_delta(R: Representation, x: int, y: int) -> Mat:
    """The former Representation.delta: D(e_x, e_y) - rho(e_x * e_y), dense."""
    return R.D[x][y] - rho_of(R, R.base.basis_product(x, y))


# ---------------------------------------------------------------------------
# slow references: the Maltsev-action checks and the induced maps in dense
# Fraction matrix arithmetic


def fraction_maltsev_action_report(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> CheckReport:
    """The former representation.maltsev_action_report."""
    n = M.n
    m = rho[0].rows if rho else 0
    D, P, _ = M.form

    def residual(x, y, z):
        d1 = commutator(rho[x], rho[y]) + _lincomb(rho, M.basis_product(x, y), m)
        bracket1 = _over(_bracket(P, x, y, z, 1), D * D)
        return (commutator(d1, rho[z]) - _lincomb(rho, bracket1, m)).entries

    check = _scan("maltsev-representation",
                  itertools.product(range(n), repeat=3), residual)
    return CheckReport((check,))


def fraction_maltsev_action_jordan_report(M: MaltsevAlgebra,
                                          rho: tuple[Mat, ...]) -> CheckReport:
    """The former representation.maltsev_action_jordan_report."""
    n = M.n
    m = rho[0].rows if rho else 0

    def jordan(a: Mat, b: Mat) -> Mat:
        return a @ b + b @ a

    D, P, _ = M.form

    def residual(x, y, z):
        res = _lincomb(rho, _integer_sum(D * D, n, _times(P, ((x, 1),), P[y][z])), m)
        res = res - rho[z] @ jordan(rho[x], rho[y])
        res = res + rho[y] @ jordan(rho[x], rho[z])
        res = res - jordan(rho[x], _lincomb(rho, M.basis_product(y, z), m))
        res = res + rho[z] @ _lincomb(rho, M.basis_product(x, y), m)
        res = res - rho[y] @ _lincomb(rho, M.basis_product(x, z), m)
        return res.entries

    check = _scan("maltsev-representation-jordan",
                  itertools.product(range(n), repeat=3), residual)
    return CheckReport((check,))


def fraction_induce_from_maltsev(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> Representation:
    """The former representation.induce_from_maltsev, on the two reports above."""
    rho = tuple(rho)
    n = M.n
    if len(rho) != n:
        raise ValueError(f"expected {n} action matrices, got {len(rho)}")
    m = rho[0].rows if rho else 0
    for mat in rho:
        if mat.shape != (m, m):
            raise ValueError("action matrices must share one square shape")

    _require_passed(fraction_maltsev_action_report(M, rho),
                    "action does not satisfy the Maltsev representation condition")
    _require_passed(fraction_maltsev_action_jordan_report(M, rho), "action does not satisfy the "
                    "Jordan form of the Maltsev representation condition")

    def grid(fn):  # fn(rho(e_i), rho(e_j), rho(e_i * e_j))
        return tuple(tuple(F(1, 3) * fn(rho[i], rho[j], _lincomb(rho, M.basis_product(i, j), m))
                           for j in range(n)) for i in range(n))
    D = grid(lambda ri, rj, rp: commutator(ri, rj) + F(2) * rp)
    theta = grid(lambda ri, rj, rp: ri @ rj + F(2) * (rj @ ri) - rp)
    return Representation(maltsev_to_bol(M), m, rho, D, theta)


def fraction_null_extension(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> MaltsevAlgebra:
    """The split null extension M (+) V of an action, every product tabulated
    in Fractions: (a+u)(b+v) = ab + rho(a)v - rho(b)u, e_(n+a) the module
    vector u_a, built by the tensor constructor."""
    n, m = M.n, rho[0].rows if rho else 0

    def product(x, y):
        match x < n, y < n:
            case True, True:
                return M.basis_product(x, y) + zero_vec(m)
            case True, False:
                return zero_vec(n) + rho[x].col(y - n)
            case False, True:
                return zero_vec(n) + vec_scale(-1, rho[y].col(x - n))
        return zero_vec(n + m)
    return MaltsevAlgebra(n + m, tabulate(n + m, n + m, 2, product))


def tuplewise_antisymmetry_failure(R: Representation) -> str | None:
    """The former representation._antisymmetry_failure: the product, the ternary
    product and D (by rows, named by (i, j)) compared with their swapped twins
    negated, tuple by tuple with i<=j, on the kept integer forms."""
    B = R.base
    (_, P, T), D = B.form, R.form[2]
    negated = lambda terms: tuple((k, -x) for k, x in terms)
    forms = (("binary", 2, lambda i, j: (P[i][j],)),
             ("ternary", 3, lambda i, j, k: (T[i][j][k],)),
             ("D", 2, lambda i, j: D[i][j]))
    for name, arity, terms in forms:
        for i, j, *rest in itertools.product(range(B.n), repeat=arity):
            if i <= j and terms(i, j, *rest) != tuple(map(negated, terms(j, i, *rest))):
                return _antisymmetry_error(name, (i, j, *rest))
    return None


def dense_coboundary_tensors(R: Representation, p: PseudoderivationData):
    """The former representation.coboundary_tensors: every entry of nu and
    omega evaluated from the formulas there, then tabulated."""
    B = R.base
    n, m = B.n, R.m
    f, chi = p.f, p.chi
    if f.shape != (m, n):
        raise ValueError(f"pseudoderivation map must be {m}x{n}, got {f.shape}")
    if len(chi) != m:
        raise ValueError(f"companion must live in the {m}-dim module")
    fcols = [f.col(j) for j in range(n)]

    def nu(i, j):
        val = vec_sub(R.rho[i].apply(fcols[j]), R.rho[j].apply(fcols[i]))
        val = vec_add(val, dense_delta(R, i, j).apply(chi))
        return vec_sub(val, f.apply(B.basis_product(i, j)))

    def omega(i, j, k):
        val = vec_sub(R.theta[j][k].apply(fcols[i]), R.theta[i][k].apply(fcols[j]))
        val = vec_add(val, R.D[i][j].apply(fcols[k]))
        return vec_sub(val, f.apply(B.basis_triple(i, j, k)))
    return tabulate(m, n, 2, nu), tabulate(m, n, 3, omega)


# ---------------------------------------------------------------------------
# slow references: the Fraction scans and reads of the representation,
# deformation and extension layers, as they were before their integer forms:
# {coordinate: Fraction} dicts over the sparse Fraction forms, and the dense
# bilinear_eval/trilinear_eval of the structure tensors on Vec slots


def _add_mat(acc: dict, s, a: tuple, m: int) -> None:
    """acc += s * A for A by its nonzero rows; acc is {row * m + col: Fraction}."""
    for r, row in enumerate(a):
        for c, x in row:
            acc[r * m + c] = acc.get(r * m + c, F(0)) + s * x


def _add_matmul(acc: dict, s, a: tuple, b: tuple, m: int) -> None:
    """acc += s * A @ B for A, B by their nonzero rows."""
    for r, row in enumerate(a):
        for l, x in row:
            for c, y in b[l]:
                acc[r * m + c] = acc.get(r * m + c, F(0)) + s * x * y


def _add_commutator(acc: dict, a: tuple, b: tuple, m: int) -> None:
    _add_matmul(acc, F(1), a, b, m)
    _add_matmul(acc, F(-1), b, a, m)


def _vec_of(acc: dict, size: int) -> tuple:
    """The dense Vec of a {coordinate: Fraction} accumulator, every entry a Fraction."""
    if not any(acc.values()):
        return zero_vec(size)
    return tuple(F(acc.get(k, 0)) for k in range(size))


def fraction_verify_representation(R: Representation) -> CheckReport:
    """The former verify_representation: R1-R33 added up in Fraction dicts."""
    B = R.base
    n, m = B.n, R.m
    P, T = coordinate_product_terms(B), coordinate_triple_terms(B)
    rho, D, theta = _map_rows(R)

    def r1(i, j):
        acc = {}
        _add_mat(acc, F(1), D[i][j], m)
        _add_mat(acc, F(1), theta[i][j], m)
        _add_mat(acc, F(-1), theta[j][i], m)
        return _vec_of(acc, m * m)

    def r21(x1, x2, y1):
        acc = {}
        _add_commutator(acc, D[x1][x2], rho[y1], m)
        for k, c in T[x1][x2][y1]:
            _add_mat(acc, -c, rho[k], m)
        for k, c in P[x1][x2]:
            _add_mat(acc, c, theta[y1][k], m)
            _add_matmul(acc, -c, rho[k], rho[y1], m)
        return _vec_of(acc, m * m)

    def r22(x1, y1, y2):
        acc = {}
        for k, c in P[y1][y2]:
            _add_mat(acc, c, theta[x1][k], m)
            _add_matmul(acc, -c, rho[k], rho[x1], m)
        _add_matmul(acc, F(-1), rho[y1], theta[x1][y2], m)
        _add_matmul(acc, F(1), rho[y2], theta[x1][y1], m)
        _add_matmul(acc, F(1), D[y1][y2], rho[x1], m)
        return _vec_of(acc, m * m)

    def derivation(grid):
        def residual(x1, x2, y1, y2):
            acc = {}
            _add_commutator(acc, D[x1][x2], grid[y1][y2], m)
            for k, c in T[x1][x2][y1]:
                _add_mat(acc, -c, grid[k][y2], m)
            for k, c in T[x1][x2][y2]:
                _add_mat(acc, -c, grid[y1][k], m)
            return _vec_of(acc, m * m)
        return residual

    def r33(x1, y1, y2, y3):
        acc = {}
        for k, c in T[y1][y2][y3]:
            _add_mat(acc, c, theta[x1][k], m)
        _add_matmul(acc, F(-1), theta[y2][y3], theta[x1][y1], m)
        _add_matmul(acc, F(1), theta[y1][y3], theta[x1][y2], m)
        _add_matmul(acc, F(-1), D[y1][y2], theta[x1][y3], m)
        return _vec_of(acc, m * m)

    grouped = _antisymmetry_failure(R) is None
    return CheckReport(tuple(
        _scan(name, slot_tuples(n, sizes, grouped), fn) for name, sizes, fn in (
            ("R1", (2,), r1), ("R21", (2, 1), r21), ("R22", (1, 2), r22),
            ("R31", (2, 2), derivation(D)), ("R32", (2, 1, 1), derivation(theta)),
            ("R33", (1, 2, 1), r33))))


def fraction_check_delta_identity(R: Representation) -> CheckReport:
    """The former check_delta_identity: the Delta rows added up in a Fraction dict."""
    B, m = R.base, R.m
    P, T, delta = coordinate_product_terms(B), coordinate_triple_terms(B), fraction_delta_rows(R)

    def residual(x1, x2, y1, y2):
        acc = {}
        _add_commutator(acc, delta[x1][x2], delta[y1][y2], m)
        for k, c in T[x1][x2][y1]:
            _add_mat(acc, -c, delta[k][y2], m)
        for k, c in T[x1][x2][y2]:
            _add_mat(acc, -c, delta[y1][k], m)
        for a, c in P[y1][y2]:
            for b, d in P[x1][x2]:
                _add_mat(acc, c * d, delta[a][b], m)
        return _vec_of(acc, m * m)
    return CheckReport((_scan("delta-identity",
                              slot_tuples(B.n, (2, 2), _antisymmetry_failure(R) is None),
                              residual),))


def _matrix_sum(m: int, terms) -> list:
    """The former representation._matrix_sum: the row-major ints of the sum of s * A or
    s * A @ B over the terms (s, A) and (s, A, B); A and B are m x m by their rows of
    integer nonzeros, s an int."""
    acc = [0] * (m * m)
    for s, a, *b in terms:
        for r, row in enumerate(a):
            base = r * m
            for l, x in row:
                if b:
                    sx = s * x
                    for c, y in b[0][l]:
                        acc[base + c] += sx * y
                else:
                    acc[base + l] += s * x
    return acc


def matrix_sum_residuals(R: Representation) -> dict:
    """The former term-list statements of R1-R33 and the Delta identity, by condition name:
    (residual, denominator), residual(*idx) the row-major ints _matrix_sum adds up from
    the kept integer forms, LHS - RHS times denominator."""
    B = R.base
    m = R.m
    DA, P, T = B.form
    DR, rho, D, theta = R.form
    # a term of degree a in D_A and r in D_R is scaled by D_A**(1-a) * D_R**(2-r)

    def commutator_terms(a, b):  # [A, B], of degree 2 in D_R
        return (DA, a, b), (-DA, b, a)

    def r1(i, j):
        return (DA * DR, D[i][j]), (DA * DR, theta[i][j]), (-DA * DR, theta[j][i])

    def r21(x1, x2, y1):
        return (*commutator_terms(D[x1][x2], rho[y1]),
                *((-DR * c, rho[k]) for k, c in T[x1][x2][y1]),
                *((DR * c, theta[y1][k]) for k, c in P[x1][x2]),
                *((-c, rho[k], rho[y1]) for k, c in P[x1][x2]))

    def r22(x1, y1, y2):
        return (*((DR * c, theta[x1][k]) for k, c in P[y1][y2]),
                *((-c, rho[k], rho[x1]) for k, c in P[y1][y2]),
                (-DA, rho[y1], theta[x1][y2]), (DA, rho[y2], theta[x1][y1]),
                (DA, D[y1][y2], rho[x1]))

    def derivation(grid):
        return lambda x1, x2, y1, y2: (
            *commutator_terms(D[x1][x2], grid[y1][y2]),
            *((-DR * c, grid[k][y2]) for k, c in T[x1][x2][y1]),
            *((-DR * c, grid[y1][k]) for k, c in T[x1][x2][y2]))

    def r33(x1, y1, y2, y3):
        return (*((DR * c, theta[x1][k]) for k, c in T[y1][y2][y3]),
                (-DA, theta[y2][y3], theta[x1][y1]), (DA, theta[y1][y3], theta[x1][y2]),
                (-DA, D[y1][y2], theta[x1][y3]))

    # Delta times DD; a term of degree a in D_A and d in DD is scaled by D_A**(2-a) * DD**(2-d)
    DD, delta = DA * DR, _delta_rows(R)

    def delta_identity(x1, x2, y1, y2):
        return ((DA * DA, delta[x1][x2], delta[y1][y2]), (-DA * DA, delta[y1][y2], delta[x1][x2]),
                *((-DA * DD * c, delta[k][y2]) for k, c in T[x1][x2][y1]),
                *((-DA * DD * c, delta[y1][k]) for k, c in T[x1][x2][y2]),
                *((DD * c * d, delta[a][b]) for a, c in P[y1][y2] for b, d in P[x1][x2]))

    summed = lambda terms: lambda *idx: _matrix_sum(m, terms(*idx))
    return {name: (summed(terms), denominator) for name, terms, denominator in (
        ("R1", r1, DA * DR * DR), ("R21", r21, DA * DR * DR), ("R22", r22, DA * DR * DR),
        ("R31", derivation(D), DA * DR * DR), ("R32", derivation(theta), DA * DR * DR),
        ("R33", r33, DA * DR * DR), ("delta-identity", delta_identity, (DA * DD) ** 2))}


def dense_b2p_residual(d, x1, x2, y1, y2) -> tuple:
    """The former (B2') residual of a DeformationTypeCandidate, on Vec slots."""
    n = d.n
    mu = lambda a, b: bilinear_eval(d.mu, a, b, n)
    nu = lambda a, b: bilinear_eval(d.nu, a, b, n)
    om = lambda a, b, c: trilinear_eval(d.omega, a, b, c, n)
    nu_y, nu_x = nu(y1, y2), nu(x1, x2)
    r = om(x1, x2, nu_y)
    r = vec_sub(r, nu(om(x1, x2, y1), y2))
    r = vec_sub(r, nu(y1, om(x1, x2, y2)))
    r = vec_sub(r, om(y1, y2, nu_x))
    r = vec_add(r, nu(nu_y, mu(x1, x2)))
    r = vec_add(r, nu(mu(y1, y2), nu_x))
    return vec_add(r, mu(nu_y, nu_x))


def dense_o3_residual(datum, x1, x2, y1, y2) -> tuple:
    """The former o3 residual nu(nu(y1,y2), nu(x1,x2)) of a DeformationDatum."""
    nu = lambda a, b: bilinear_eval(datum.pair.nu, a, b, datum.base.n)
    return nu(nu(y1, y2), nu(x1, x2))


def _operate(A: BolAlgebra, args) -> tuple:
    return A.product(*args) if len(args) == 2 else A.triple(*args)


def _binary_then_ternary(dim: int, grouped: bool):
    return itertools.chain(
        (("binary",) + xy for xy in slot_tuples(dim, (2,), grouped)),
        (("ternary",) + xyz for xyz in slot_tuples(dim, (2, 1), grouped)))


def dense_validate_extension(E) -> CheckReport:
    """The former validate_extension: the homomorphism and ideal scans on Vec slots."""
    base, hat, m = E.base, E.hat, E.m
    n, N = base.n, hat.n
    checks = []
    for name, A in (("base-axioms", base), ("hat-axioms", hat)):
        f = verify_bol(A).first_failure()
        checks.append(ConditionCheck(name, f is None,
                                     None if f is None else (f.name,) + f.witness,
                                     None if f is None else f.residual))
    pi = E.p @ E.i
    exact = pi.is_zero() and image_rank(E.i) == m and image_rank(E.p) == n
    checks.append(ConditionCheck("exactness", exact, None, None if exact else pi.entries))
    section_res = E.p @ E.sigma - Mat.identity(n)
    checks.append(ConditionCheck("section", section_res.is_zero(), None,
                                 None if section_res.is_zero() else section_res.entries))
    grouped = checks[0].passed and checks[1].passed
    i_cols = [E.i.col(a) for a in range(m)]
    checks.append(_scan("i-homomorphism", _binary_then_ternary(m, grouped),
                        lambda kind, *args: _operate(hat, [i_cols[a] for a in args])))
    p_cols = [E.p.col(x) for x in range(N)]
    checks.append(_scan("p-homomorphism", _binary_then_ternary(N, grouped),
                        lambda kind, *args: vec_sub(
                            E.p.apply(_operate(hat, args)),
                            _operate(base, [p_cols[x] for x in args]))))
    placements = {"[i,i,.]": lambda u, v, w: (u, v, w),
                  "[i,.,i]": lambda u, v, w: (u, w, v),
                  "[.,i,i]": lambda u, v, w: (w, u, v)}
    checks.append(_scan(
        "abelian-ideal",
        ((name, a, b, w) for a, b in itertools.product(range(m), repeat=2)
         for w in range(N) for name in placements),
        lambda name, a, b, w: hat.triple(*placements[name](i_cols[a], i_cols[b], w))))
    return CheckReport(tuple(checks))


def dense_fiber_coords(Tinv: Mat, w: tuple, n: int, what: str) -> tuple:
    """The fiber part of w in the frame; a base part is a fault of the library once the
    bundle validates (AssertionError)."""
    coords = Tinv.apply(w)
    if any(coords[:n]):
        raise AssertionError(f"{what} does not land in the fiber; extension data is inconsistent")
    return coords[n:]


def dense_induced_representation(E) -> Representation:
    """The former induced_representation: each fiber map read off dense products."""
    EXTENSION = importlib.import_module("bolalg.extension")
    EXTENSION._require_valid(E)
    base, hat, m = E.base, E.hat, E.m
    n = base.n
    Tinv = EXTENSION._splitting(E)
    s_cols = [E.sigma.col(x) for x in range(n)]
    i_cols = [E.i.col(a) for a in range(m)]

    def fiber_map(what, image):
        cols = [dense_fiber_coords(Tinv, image(w), n, what) for w in i_cols]
        return Mat(m, m, tuple(x for row in zip(*cols) for x in row))

    rho = tuple(fiber_map("rho image", lambda w: hat.product(s_cols[x], w)) for x in range(n))
    D = tuple(tuple(fiber_map("D image", lambda w: hat.triple(s_cols[x], s_cols[y], w))
                    for y in range(n)) for x in range(n))
    theta = tuple(tuple(fiber_map("theta image", lambda w: hat.triple(w, s_cols[x], s_cols[y]))
                        for y in range(n)) for x in range(n))
    return Representation(base, m, rho, D, theta)


def dense_induced_cocycle(E) -> CochainPair:
    """The former induced_cocycle: every nu and omega value off dense products."""
    EXTENSION = importlib.import_module("bolalg.extension")
    EXTENSION._require_valid(E)
    base, hat, m = E.base, E.hat, E.m
    n = base.n
    Tinv = EXTENSION._splitting(E)
    s_cols = [E.sigma.col(x) for x in range(n)]

    def nu(x, y):
        w = vec_sub(hat.product(s_cols[x], s_cols[y]), E.sigma.apply(base.basis_product(x, y)))
        return dense_fiber_coords(Tinv, w, n, "nu value")

    def omega(x, y, z):
        w = vec_sub(hat.triple(s_cols[x], s_cols[y], s_cols[z]),
                    E.sigma.apply(base.basis_triple(x, y, z)))
        return dense_fiber_coords(Tinv, w, n, "omega value")
    return CochainPair.from_entries(
        base, m, [(args, dict(enumerate(nu(*args)))) for args in entry_args(n, 2)],
        [(args, dict(enumerate(omega(*args)))) for args in entry_args(n, 3)])


def dense_check_phi(E1, E2, phi: Mat) -> None:
    """The former _check_phi: both homomorphism laws on Vec slots."""
    cols = [phi.col(x) for x in range(E1.hat.n)]
    for kind, *args in _binary_then_ternary(E1.hat.n, True):
        if phi.apply(_operate(E1.hat, args)) != _operate(E2.hat, [cols[x] for x in args]):
            raise AssertionError(f"constructed phi fails the {kind} homomorphism law")
    if phi @ E1.i != E2.i:
        raise AssertionError("constructed phi does not commute with the injections")
    if E2.p @ phi != E1.p:
        raise AssertionError("constructed phi does not commute with the projections")


# ---------------------------------------------------------------------------
# slow references: Sagle's identity one (x, y, z) at a time, the sparse forms
# read one coordinate at a time, and the Fraction cyclic sum


def maltsev_residual(M: MaltsevAlgebra, x, y: int, z: int) -> tuple:
    """The former algebra._maltsev_residual: Sagle's identity
    (x*y)*(x*z) = ((x*y)*z)*x + ((y*z)*x)*x + ((z*x)*x)*y at one tuple, seven
    products of the integer form; x is given by its nonzeros (coefficients 1),
    y and z are basis indices, and every term has degree 3."""
    D, P, _ = M.form
    ey, ez = ((y, 1),), ((z, 1),)
    xy = _times(P, x, ey)
    acc = [0] * M.n
    _add_terms(acc, 1, _times(P, xy, _times(P, x, ez)))
    for rhs in (_times(P, _times(P, xy, ez), x),
                _times(P, _times(P, P[y][z], x), x),
                _times(P, _times(P, _times(P, ez, x), x), ey)):
        _add_terms(acc, -1, rhs)
    return _over(acc, D ** 3)


def tuplewise_verify_maltsev(M: MaltsevAlgebra) -> CheckReport:
    """The former verify_maltsev: maltsev_residual scanned over every (x, y, z),
    x over {e_i} and then {e_i + e_j : i < j}."""
    n, rng = M.n, range(M.n)
    anti = _scan("anticommutativity", itertools.product(rng, repeat=2),
                 lambda i, j: vec_add(M.basis_product(i, j), M.basis_product(j, i)))
    xs = {(i,): ((i, 1),) for i in rng}
    xs.update({(i, j): ((i, 1), (j, 1)) for i, j in itertools.combinations(rng, 2)})
    identity = _scan("maltsev-identity",
                     ((x, y, z) for x in xs for y, z in itertools.product(rng, repeat=2)),
                     lambda x, y, z: maltsev_residual(M, xs[x], y, z))
    return CheckReport((anti, identity))


def b2_residual(forms: tuple, x, y, u, v, cubic: tuple | None = None) -> tuple:
    """The former algebra._b2_residual, B2 at one tuple: [x,y,u*v] - [x,y,u]*v
    - u*[x,y,v] - [u,v,x*y] + (u*v)*(x*y) for the integer forms (D, P, T), the
    four terms of degree 2 times D, plus the one of degree 3, or in its place
    form(a, b) for each (form, a, b) in cubic."""
    D, P, T = forms
    Txy, Tuv = T[x][y], T[u][v]
    acc = [0] * len(P)
    for k, c in P[u][v]:
        _add_terms(acc, D * c, Txy[k])
    for k, c in Txy[u]:
        _add_terms(acc, -D * c, P[k][v])
    for k, c in Txy[v]:
        _add_terms(acc, -D * c, P[u][k])
    for k, c in P[x][y]:
        _add_terms(acc, -D * c, Tuv[k])
    for form, a, b in cubic or ((P, P[u][v], P[x][y]),):
        _add_form(acc, 1, form, a, b)
    return _over(acc, D ** 3)


def b3_residual(B: BolAlgebra, x, y, u, v, w) -> tuple:
    """The former algebra._b3_residual, B3 at one tuple:
    [x,y,[u,v,w]] - [[x,y,u],v,w] - [u,[x,y,v],w] - [u,v,[x,y,w]]."""
    D, _, T = B.form
    Txy, Tuv = T[x][y], T[u][v]
    acc = [0] * B.n
    for k, c in Tuv[w]:
        _add_terms(acc, c, Txy[k])
    for k, c in Txy[u]:
        _add_terms(acc, -c, T[k][v][w])
    for k, c in Txy[v]:
        _add_terms(acc, -c, T[u][k][w])
    for k, c in Txy[w]:
        _add_terms(acc, -c, Tuv[k])
    return _over(acc, D ** 2)


def tuplewise_verify_bol(B: BolAlgebra) -> CheckReport:
    """The former verify_bol: B01 and B02 added up at every tuple, B2 and B3 one
    tuple at a time through b2_residual and b3_residual."""
    n, forms = B.n, B.form
    D, P, T = forms
    total = lambda *terms: _integer_sum(D, n, *terms)
    b01 = _scan("B01", slot_tuples(n, (1, 1)), lambda i, j: total(P[i][j], P[j][i]))
    b02 = _scan("B02", slot_tuples(n, (1, 1, 1)),
                lambda i, j, k: total(T[i][j][k], T[j][i][k]))
    return CheckReport((
        b01, b02,
        _scan("B1", slot_tuples(n, (3,), b02.passed),
              lambda i, j, k: total(T[i][j][k], T[j][k][i], T[k][i][j])),
        _scan("B2", slot_tuples(n, (2, 2), b01.passed and b02.passed),
              lambda *args: b2_residual(forms, *args)),
        _scan("B3", slot_tuples(n, (2, 2, 1), b02.passed), lambda *args: b3_residual(B, *args)),
    ))


def tabulated_deformed_algebra(d, t) -> BolAlgebra:
    """The former deformation.deformed_algebra: every entry of c + t nu and
    t + t omega tabulated from the dense tensors."""
    base, pair, n = d.base, d.pair, d.base.n

    def deformed(tensor, first_order, arity):
        return tabulate(n, n, arity, lambda *args: vec_add(
            entry_values(tensor, args), vec_scale(F(t), entry_values(first_order, args))))
    return BolAlgebra(n, deformed(base.c, pair.nu, 2), deformed(base.t, pair.omega, 3),
                      base.basis_names)


def tabulated_hat(R: Representation, c: CochainPair | None = None) -> BolAlgebra:
    """hat(B) = B (+) V by the extension module docstring's formulas, every basis
    product tabulated from the dense base, cocycle and module-map entries, one
    case per argument pattern, and built by the tensor constructor: no check
    of R or c.  Without c the cocycle is zero, which gives the semidirect product."""
    B = R.base
    n, m = B.n, R.m
    N = n + m
    c = CochainPair.zero(B, m) if c is None else c

    def fiber(u: tuple) -> tuple:
        return zero_vec(n) + u

    def binary(x, y):
        match x < n, y < n:
            case True, True:
                return B.basis_product(x, y) + entry_values(c.nu, (x, y))
            case True, False:
                return fiber(R.rho[x].col(y - n))
            case False, True:
                return fiber(vec_scale(-1, R.rho[y].col(x - n)))
        return zero_vec(N)

    def ternary(x, y, z):
        match x < n, y < n, z < n:
            case True, True, True:
                return B.basis_triple(x, y, z) + entry_values(c.omega, (x, y, z))
            case True, True, False:
                return fiber(R.D[x][y].col(z - n))
            case True, False, True:
                return fiber(vec_scale(-1, R.theta[x][z].col(y - n)))
            case False, True, True:
                return fiber(R.theta[y][z].col(x - n))
        return zero_vec(N)

    return BolAlgebra(N, tabulate(N, N, 2, binary), tabulate(N, N, 3, ternary))


def tabulated_twisted_product(R: Representation, c: CochainPair):
    """The former extension.twisted_product: the gates, then tabulated_hat with its
    canonical maps."""
    assert verify_representation(R).passed and is_cocycle(R, c).passed
    n, m = R.base.n, R.m
    N = n + m

    def block(rows, cols, shift):
        return Mat(rows, cols, tuple(F(1) if r == col + shift else F(0)
                                     for r in range(rows) for col in range(cols)))

    return importlib.import_module("bolalg.extension").AbelianExtension(
        R.base, m, tabulated_hat(R, c), block(N, m, n), block(n, N, 0), block(N, n, 0))


def coordinate_product_terms(A) -> tuple:
    """The former algebra._product_terms: [i][j] = nonzeros of basis_product(i, j)."""
    rng = range(A.n)
    return tuple(tuple(_nonzeros(A.basis_product(i, j)) for j in rng) for i in rng)


def coordinate_triple_terms(B: BolAlgebra) -> tuple:
    """The former algebra._triple_terms: [i][j][k] = nonzeros of basis_triple(i, j, k)."""
    rng = range(B.n)
    return tuple(tuple(tuple(_nonzeros(B.basis_triple(i, j, k)) for k in rng)
                       for j in rng) for i in rng)


def scaled_forms(products: tuple, triples: tuple) -> tuple:
    """The former algebra._integer_forms: (D, *products, *triples) for sparse Fraction
    forms [i][j] and [i][j][k], every coefficient times D, their lcm denominator, as ints."""
    scale = lambda P: tuple(tuple(_scaled(terms, D) for terms in row) for row in P)
    planes = [P for T in triples for P in T]
    D = _common_denominator(c for P in products + tuple(planes) for row in P
                            for terms in row for _, c in terms)
    return (D, *map(scale, products), *(tuple(map(scale, T)) for T in triples))


def entry_values(t, args: tuple[int, ...]) -> tuple:
    """The former algebra.entry_values: t[v][args...] over the value index v (outermost)."""
    out = []
    for plane in t:
        for a in args:
            plane = plane[a]
        out.append(plane)
    return tuple(out)


def fraction_antisymmetry(name: str, t, n: int, arity: int) -> ConditionCheck:
    """The former Fraction antisymmetry scan: t(i,j,...) + t(j,i,...) added up in
    Fractions over all argument tuples."""
    return _scan(name, itertools.product(range(n), repeat=arity),
                 lambda *args: vec_add(entry_values(t, args),
                                       entry_values(t, (args[1], args[0]) + args[2:])))


def entry_coords(n: int, *tensors) -> tuple:
    """The former algebra.entry_coords: the coordinates t[v][args] over
    entry_args(n, arity), v innermost, of tensors (name, t, arity) antisymmetric in
    their first two slots; the first failing tuple raises ValueError naming it."""
    out = []
    for name, t, arity in tensors:
        check = fraction_antisymmetry(name, t, n, arity)
        if not check.passed:
            v = next(v for v, x in enumerate(check.residual) if x)
            raise ValueError(_antisymmetry_error(name, check.witness, v))
        for args in entry_args(n, arity):
            out.extend(entry_values(t, args))
    return tuple(out)


def fraction_cyclic(name: str, t, n: int, grouped: bool = False) -> ConditionCheck:
    """The former algebra._cyclic: the cyclic sum t(i,j,k) + t(j,k,i) + t(k,i,j)
    added up in Fractions over all triples, or with ``grouped`` over i<j<k."""
    return _scan(name, slot_tuples(n, (3,), grouped),
                 lambda i, j, k: vec_add(entry_values(t, (i, j, k)),
                                         entry_values(t, (j, k, i)),
                                         entry_values(t, (k, i, j))))


# ---------------------------------------------------------------------------
# slow references: nested tensors frozen one leaf at a time, and the dense
# fill through a dict of every argument tuple


def zeros(*shape) -> list:
    """Nested lists of zeros with the given shape, to be filled and frozen."""
    if len(shape) == 1:
        return [F(0)] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def freeze(x):
    """Nested lists to nested tuples, one call per leaf."""
    return tuple(freeze(y) for y in x) if isinstance(x, list) else x


def tabulate(value_dim: int, n: int, arity: int, fn) -> tuple:
    """The former algebra.tabulate: t[v][a1]...[ak] = fn(a1, ..., ak)[v], fn
    called once per argument tuple in lexicographic order, through ``_fill``."""
    rng = range(n)
    return _fill(value_dim, n, arity,
                 lambda prefix: tuple(zip(*[fn(*prefix, a) for a in rng])))


def tensor_from_entries(n: int, value_dim: int, arity: int, entries, what: str) -> tuple:
    """The former algebra.tensor_from_entries: t[v][i][j](...) of sparse i<j entries
    {args: {v: coeff}}, the (j,i,...) half filled by antisymmetry, a bad entry
    refused with the ValueError of ``_checked_entries`` naming it ``what``."""
    checked = _checked_entries(n, value_dim, arity, entries, what)
    D, form = _entry_forms(n, ((arity, checked, True),))
    return _dense(n, value_dim, arity, _form_entries(D, form, arity))


def tabulate_by_dict(value_dim: int, n: int, arity: int, fn) -> tuple:
    """t[v][a1]...[ak] = fn(a1, ..., ak)[v], every value held in a dict first."""
    rng = range(n)
    values = {args: fn(*args) for args in itertools.product(rng, repeat=arity)}

    def plane(v, prefix):
        if len(prefix) == arity:
            return values[prefix][v]
        return tuple(plane(v, prefix + (a,)) for a in rng)
    return tuple(plane(v, ()) for v in range(value_dim))


def tensor_by_leaves(n: int, value_dim: int, arity: int, entries) -> tuple:
    """The tensor of sparse i<j entries {args: {v: coeff}}: zeros, each entry
    and its swapped twin written leaf by leaf, then frozen per leaf."""
    t = zeros(value_dim, *([n] * arity))
    for args, coeffs in entries:
        for v, val in coeffs.items():
            for at, x in ((args, F(val)), ((args[1], args[0]) + args[2:], -F(val))):
                row = t[v]
                for a in at[:-1]:
                    row = row[a]
                row[at[-1]] = x
    return freeze(t)


# ---------------------------------------------------------------------------
# slow references: the former parse route of a well-formed file, one Fraction per
# scalar, fed to from_entries and to the public Representation constructor


def fraction_entries(block: list) -> list:
    """The entries of a file's block as from_entries takes them: (args, {k: Fraction})."""
    return [(tuple(e["args"]), {int(k): F(x) for k, x in e["value"].items()}) for e in block]


def fraction_parse_algebra(text: str) -> BolAlgebra | MaltsevAlgebra:
    """The former formats.parse_algebra of a well-formed file."""
    obj = json.loads(text)
    n, names = obj["dimension"], obj.get("basis_names")
    if obj["kind"] == "maltsev":
        return MaltsevAlgebra.from_entries(n, fraction_entries(obj["binary"]), names)
    return BolAlgebra.from_entries(n, fraction_entries(obj["binary"]),
                                   fraction_entries(obj["ternary"]), names)


def fraction_parse_representation(text: str, base: BolAlgebra) -> Representation:
    """The former formats.parse_representation of a well-formed file: its Fraction Mats
    read by the public constructor."""
    obj = json.loads(text)
    m = obj["module_dimension"]
    mat = lambda rows: Mat(m, m, tuple(F(x) for row in rows for x in row))
    grid = lambda key: tuple(tuple(map(mat, row)) for row in obj[key])
    return Representation(base, m, tuple(map(mat, obj["rho"])), grid("D"), grid("theta"))


def fraction_parse_cochain(text: str, base: BolAlgebra) -> CochainPair:
    """The former formats.parse_cochain of a well-formed file."""
    obj = json.loads(text)
    return CochainPair.from_entries(base, obj["module_dimension"], fraction_entries(obj["nu"]),
                                    fraction_entries(obj["omega"]))


# ---------------------------------------------------------------------------
# slow references: the former coefficient route, every derived algebra and form
# written from Fraction coefficients (args, k, x) over their lcm denominator


def coefficient_forms(n: int, parts) -> tuple:
    """The former algebra._integer_forms: (D, *forms) of parts (arity, coefficients), the
    coefficients (args, k, x) at every args, D their lcm denominator."""
    parts = [(arity, [(args, k, x) for args, k, x in coefficients if x])
             for arity, coefficients in parts]
    D = _common_denominator(x for _, coefficients in parts for _, _, x in coefficients)
    forms = []
    for arity, coefficients in parts:
        rows = {}
        for args, k, x in coefficients:
            rows.setdefault(args, []).append((k, x.numerator * (D // x.denominator)))
        at = lambda *args: tuple(sorted(rows.get(args, ())))
        rng = range(n)
        forms.append(tuple(tuple(at(i, j) if arity == 2 else tuple(at(i, j, k) for k in rng)
                                 for j in rng) for i in rng))
    return (D, *forms)


def tensor_coefficients(t, n: int, arity: int):
    """The former algebra._coefficients: (args, k, t[k][args]) at the nonzeros of t."""
    for args in itertools.product(range(n), repeat=arity):
        for k, plane in enumerate(t):
            x = functools.reduce(lambda row, a: row[a], args, plane)
            if x:
                yield args, k, x


def form_coefficients(D: int, form, arity: int, prefix: tuple = ()):
    """The former algebra._form_coefficients: (args, k, c / D) at the nonzeros of a form."""
    for a, sub in enumerate(form):
        if arity > 1:
            yield from form_coefficients(D, sub, arity - 1, prefix + (a,))
        else:
            yield from ((prefix + (a,), k, F(c, D)) for k, c in sub)


def swapped(coefficients):
    """The former algebra._swapped: each (args, k, x) at an i<j args, then its twin."""
    for args, k, x in coefficients:
        yield args, k, x
        yield (args[1], args[0]) + args[2:], k, -x


def pair_coefficients(c: CochainPair, arity: int, offset: int = 0):
    """The former CochainPair.coefficients: nu's (2) or omega's (3), both halves."""
    return swapped((args, offset + a, x) for args, values in c.entries(arity)
                   for a, x in enumerate(values) if x)


def coefficient_tensor_form(n: int, *tensors) -> tuple:
    """The form the tensor constructors wrote: coefficient_forms of tensors (t, arity)."""
    return coefficient_forms(n, [(arity, tensor_coefficients(t, n, arity))
                                 for t, arity in tensors])


def coefficient_maltsev_to_bol(M: MaltsevAlgebra) -> BolAlgebra:
    """The former maltsev_to_bol of a Maltsev algebra, written from coefficients."""
    D, P, _ = M.form
    ternary = ((args, l, F(a, 3 * D * D)) for args in entry_args(M.n, 3)
               for l, a in enumerate(_bracket(P, *args, 2)) if a)
    return _of_form(BolAlgebra, M.n, coefficient_forms(M.n, (
        (2, form_coefficients(D, P, 2)), (3, swapped(ternary)))), M.basis_names)


def coefficient_null_extension(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> MaltsevAlgebra:
    """The former representation._null_extension, written from coefficients."""
    n, m = M.n, rho[0].rows if rho else 0
    action = (((i, n + b), n + a, x)
              for i in range(n) for a, row in enumerate(rho[i].nonzero_rows) for b, x in row)
    return _of_form(MaltsevAlgebra, n + m, coefficient_forms(n + m, (
        (2, itertools.chain(form_coefficients(*M.form[:2], 2), swapped(action))), (3, ()))),
        None)


def coefficient_hat(R: Representation, c: CochainPair) -> BolAlgebra:
    """The hat(B) of the former twisted_product, written from coefficients."""
    B = R.base
    n, m = B.n, R.m
    D, P, T = B.form
    DR, rho, DV, theta = R.form
    binary = [*form_coefficients(D, P, 2), *pair_coefficients(c, 2, n)]
    ternary = [*form_coefficients(D, T, 3), *pair_coefficients(c, 3, n)]

    def fiber(rows):
        return [(n + a, n + b, F(v, DR)) for a, row in enumerate(rows) for b, v in row]

    for x, y in itertools.product(range(n), repeat=2):
        for a, b, v in fiber(DV[x][y]):
            ternary.append(((x, y, b), a, v))
        for a, b, v in fiber(theta[x][y]):
            ternary += ((x, b, y), a, -v), ((b, x, y), a, v)
    for x in range(n):
        for a, b, v in fiber(rho[x]):
            binary += ((x, b), a, v), ((b, x), a, -v)
    return _of_form(BolAlgebra, n + m, coefficient_forms(n + m, ((2, binary), (3, ternary))),
                    None)


def coefficient_datum_forms(d) -> tuple:
    """The former deformation._datum_forms, written from coefficients."""
    D, P, _ = d.base.form
    return coefficient_forms(d.base.n, ((2, form_coefficients(D, P, 2)),
                                        (2, pair_coefficients(d.pair, 2)),
                                        (3, pair_coefficients(d.pair, 3))))


def coefficient_deformed_algebra(d, t) -> BolAlgebra:
    """The former deformation.deformed_algebra, the sums built as Fractions."""
    D, P, T = d.base.form
    parts = []
    for arity, form in ((2, P), (3, T)):
        sums = {(args, k): x for args, k, x in form_coefficients(D, form, arity)}
        for args, k, x in pair_coefficients(d.pair, arity):
            sums[args, k] = sums.get((args, k), 0) + F(t) * x
        parts.append((arity, [(args, k, x) for (args, k), x in sums.items()]))
    return _of_form(BolAlgebra, d.base.n, coefficient_forms(d.base.n, parts),
                    d.base.basis_names)


def sum_slot_tuples(n: int, sizes: tuple[int, ...], grouped: bool = True):
    """The former algebra.slot_tuples: every tuple joined by sum() over its groups."""
    if not grouped:
        sizes = (1,) * sum(sizes)
    groups = (itertools.combinations(range(n), k) for k in sizes)
    return (sum(tup, ()) for tup in itertools.product(*groups))


# ---------------------------------------------------------------------------
# the former hand-written split algebras, which representation._split_form replaces


def former_hat(R: Representation, c: CochainPair) -> BolAlgebra:
    """The hat(B) of the former extension.twisted_product, assembled by hand: entries at
    every args, B's at k < n, the cocycle's and the module maps' after them, written by
    _entry_forms; no check of R or c."""
    B = R.base
    n, m = B.n, R.m
    N = n + m
    D, P, T = B.form
    DR, rho, DV, theta = R.form
    binary, ternary = defaultdict(list), defaultdict(list)
    for part, arity, form in ((binary, 2, P), (ternary, 3, T)):
        for args, terms in _form_entries(D, form, arity):
            part[args] += terms
        for args, terms in _cochain_entries(n, m, c.coords(), arity):
            part[args] += ((n + a, p, q) for a, p, q in terms)
    for x, y in itertools.product(range(n), repeat=2):
        for a, row in enumerate(DV[x][y]):  # D(x1,x2)u3
            for b, v in row:
                ternary[x, y, n + b].append((n + a, v, DR))
        for a, row in enumerate(theta[x][y]):  # -theta(x1,x3)u2 + theta(x2,x3)u1
            for b, v in row:
                ternary[x, n + b, y].append((n + a, -v, DR))
                ternary[n + b, x, y].append((n + a, v, DR))
    for x in range(n):
        for a, row in enumerate(rho[x]):  # rho(x1)u2 - rho(x2)u1
            for b, v in row:
                binary[x, n + b].append((n + a, v, DR))
                binary[n + b, x].append((n + a, -v, DR))
    return _of_form(BolAlgebra, N, _entry_forms(N, ((2, binary.items(), False),
                                                   (3, ternary.items(), False))), None)


def former_identity_block(rows: int, cols: int, shift: int) -> Mat:
    """The former block of extension.twisted_product: rows x cols of the N x N identity,
    1 where row = col + shift, every entry of the dense grid written."""
    return Mat(rows, cols, tuple(_ONE if r == c + shift else _ZERO
                                 for r in range(rows) for c in range(cols)))


def former_twisted_maps(n: int, m: int) -> tuple:
    """The former (i, p, sigma) of a twisted product of an n-dim base by an m-dim module."""
    N = n + m
    return (former_identity_block(N, m, n), former_identity_block(n, N, 0),
            former_identity_block(N, n, 0))


def former_frame(E) -> Mat:
    """The former extension._frame: [sigma | i] as the dense N x N grid of their rows."""
    return Mat(E.hat.n, E.hat.n,
               tuple(x for r in range(E.hat.n) for x in E.sigma.row(r) + E.i.row(r)))


def former_null_extension(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> MaltsevAlgebra:
    """The former representation._null_extension: its own placement of the action, each
    rho(e_i) u_b written at (i, n+b) and negated at (n+b, i), beside M's product at
    every args, by _entry_forms."""
    if len(rho) != M.n:
        raise ValueError(f"expected {M.n} action matrices, got {len(rho)}")
    n, m = M.n, rho[0].rows if rho else 0
    if any(mat.shape != (m, m) for mat in rho):
        raise ValueError("action matrices must share one square shape")
    action = defaultdict(list)  # rho(e_i) u_b = e_i u_b = -u_b e_i
    for i in range(n):
        for a, row in enumerate(rho[i].nonzero_rows):
            for b, x in row:
                action[i, n + b].append((n + a, x.numerator, x.denominator))
                action[n + b, i].append((n + a, -x.numerator, x.denominator))
    return _of_form(MaltsevAlgebra, n + m, _entry_forms(n + m, (
        (2, [*_form_entries(*M.form[:2], 2), *action.items()], False), (3, (), False))), None)


# ---------------------------------------------------------------------------
# the former eager parser, which cli.build_parser's per-subcommand parsers replace


def eager_build_parser() -> argparse.ArgumentParser:
    """The former body of cli.build_parser: every subcommand's parser built up front
    from its cli._COMMANDS row, whichever one the run parses."""
    parser = argparse.ArgumentParser(
        prog="bolalg",
        description="Exact computations with Bol algebras: verification, "
                    "representations, (2,3)-cohomology, deformations, and "
                    "abelian extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        for arg in command.positionals:
            arg_name, arg_help = (arg, None) if isinstance(arg, str) else arg
            p.add_argument(arg_name, help=arg_help)
        if command.rep_source:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--adjoint", action="store_true",
                               help="use the adjoint representation")
            group.add_argument("--rep", metavar="FILE",
                               help="representation file over the algebra")
        if command.output:
            p.add_argument("-o", "--output", help=command.output)
    return parser


# ---------------------------------------------------------------------------
# random corpus helpers


def random_fraction(rng: random.Random, span: int = 3) -> F:
    return F(rng.randint(-span, span), rng.choice([1, 1, 1, 2, 3]))


def random_invertible(rng: random.Random, m: int) -> Mat:
    while True:
        mat = Mat.from_rows([
            [random_fraction(rng) for _ in range(m)] for _ in range(m)
        ])
        try:
            inverse(mat)
            return mat
        except ValueError:
            continue


def conjugate_representation(R: Representation, T: Mat) -> Representation:
    """Change of basis on V: all three maps become T (.) T^{-1}."""
    Tinv = inverse(T)
    conj = lambda mat: T @ mat @ Tinv
    n = R.base.n
    return Representation(
        R.base, R.m,
        tuple(conj(R.rho[i]) for i in range(n)),
        tuple(tuple(conj(R.D[i][j]) for j in range(n)) for i in range(n)),
        tuple(tuple(conj(R.theta[i][j]) for j in range(n)) for i in range(n)),
    )


def direct_sum_representations(R1: Representation, R2: Representation
                               ) -> Representation:
    """Block-diagonal sum of two representations over the same base."""
    assert R1.base == R2.base
    m1, m2 = R1.m, R2.m
    m = m1 + m2

    def block(a: Mat, b: Mat) -> Mat:
        rows = []
        for r in range(m1):
            rows.append(list(a.row(r)) + [F(0)] * m2)
        for r in range(m2):
            rows.append([F(0)] * m1 + list(b.row(r)))
        return Mat.from_rows(rows)

    n = R1.base.n
    return Representation(
        R1.base, m,
        tuple(block(R1.rho[i], R2.rho[i]) for i in range(n)),
        tuple(tuple(block(R1.D[i][j], R2.D[i][j]) for j in range(n))
              for i in range(n)),
        tuple(tuple(block(R1.theta[i][j], R2.theta[i][j]) for j in range(n))
              for i in range(n)),
    )


def random_representation_corpus(seed: int = 20240817, count: int = 10
                                 ) -> list[Representation]:
    """Verified representations assembled from conjugates, sums, and zeros.

    Construction guarantees validity (conjugation and direct sums preserve
    every representation condition); each element is re-verified anyway.
    """
    rng = random.Random(seed)
    adj1 = adjoint_representation(make_b2(1))
    adj_m1 = adjoint_representation(make_b2(-1))
    ex28 = make_ex28_representation()
    # ternary-only (Lie-triple-system) base: vanishing binary product
    lts = BolAlgebra.from_entries(
        3, binary=[], ternary=[((0, 1, 0), {1: F(2)})])

    corpus = [
        conjugate_representation(adj1, random_invertible(rng, 2)),
        conjugate_representation(adj1, random_invertible(rng, 2)),
        conjugate_representation(ex28, random_invertible(rng, 2)),
        conjugate_representation(adj_m1, random_invertible(rng, 2)),
        Representation.zero(make_b2(F(5, 3)), rng.randint(1, 3)),
        Representation.zero(BolAlgebra.zero(3), 2),
        Representation.zero(lts, 1),
        direct_sum_representations(
            adj_m1, Representation.zero(make_b2(-1), 1)),
        direct_sum_representations(
            ex28, conjugate_representation(ex28, random_invertible(rng, 2))),
        conjugate_representation(
            direct_sum_representations(adj1, adj1), random_invertible(rng, 4)),
    ]
    corpus = corpus[:count]
    from bolalg.algebra import verify_bol

    for rep in corpus:
        assert verify_bol(rep.base).passed
        assert verify_representation(rep).passed
    return corpus
