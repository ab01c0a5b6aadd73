"""Representations (rho, D, theta) of a Bol algebra on a module V.

A representation is a linear map rho: B -> End(V) together with bilinear
maps D, theta: B x B -> End(V) satisfying six conditions:

  (R1)  D(x1,x2) + theta(x1,x2) - theta(x2,x1) = 0
  (R21) [D(x1,x2), rho(y1)] = rho([x1,x2,y1]) - theta(y1, x1*x2)
                              + rho(x1*x2) rho(y1)
  (R22) theta(x1, y1*y2) = rho(y1) theta(x1,y2) - rho(y2) theta(x1,y1)
                           - (D(y1,y2) - rho(y1*y2)) rho(x1)
  (R31) [D(x1,x2), D(y1,y2)] = D([x1,x2,y1], y2) + D(y1, [x1,x2,y2])
  (R32) [D(x1,x2), theta(y1,y2)] = theta([x1,x2,y1], y2)
                                   + theta(y1, [x1,x2,y2])
  (R33) theta(x1, [y1,y2,y3]) = theta(y2,y3) theta(x1,y1)
                                - theta(y1,y3) theta(x1,y2)
                                + D(y1,y2) theta(x1,y3)

All conditions are multilinear, so they are decided on basis tuples.  The
operator Delta(u,v) = D(u,v) - rho(u*v) satisfies the commutator identity
checked by check_delta_identity, and drives the companion term of
pseudoderivations: a linear map f: B -> V with companion chi in V is a
pseudoderivation when

  f(x1*x2)      = rho(x1) f(x2) - rho(x2) f(x1) + Delta(x1,x2)(chi)
  f([x1,x2,x3]) = theta(x2,x3) f(x1) - theta(x1,x3) f(x2) + D(x1,x2) f(x3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    _coeffs,
    _once_per_object,
    _require_passed,
    _scan,
    entry_coords,
    freeze,
    maltsev_to_bol,
    tabulate,
    verify_bol,
    zeros,
)
from .linalg import (
    Mat, Vec, commutator, kernel_basis, matrix_of, unit_vec, vec_add, vec_sub, zero_vec,
)

_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class Representation:
    """Matrices of (rho, D, theta) with respect to fixed bases of B and V."""

    base: BolAlgebra
    m: int
    rho: tuple[Mat, ...]                 # rho[i] = matrix of rho(e_i)
    D: tuple[tuple[Mat, ...], ...]       # D[i][j] = matrix of D(e_i, e_j)
    theta: tuple[tuple[Mat, ...], ...]   # theta[i][j] = matrix of theta(e_i, e_j)

    def __post_init__(self):
        n, m = self.base.n, self.m
        if len(self.rho) != n or len(self.D) != n or len(self.theta) != n:
            raise ValueError("representation grids must have one slot per basis element")
        for mat in self.rho:
            if mat.shape != (m, m):
                raise ValueError(f"rho matrix shape {mat.shape} != ({m},{m})")
        for grid in (self.D, self.theta):
            for row in grid:
                if len(row) != n:
                    raise ValueError("D/theta grids must be n x n")
                for mat in row:
                    if mat.shape != (m, m):
                        raise ValueError(f"grid matrix shape {mat.shape} != ({m},{m})")

    # -- linear/bilinear extensions; slots take a basis index or a Vec ----

    def rho_of(self, x) -> Mat:
        return _lincomb(self.rho, x, self.m)

    def _grid_of(self, grid, x, y) -> Mat:
        if isinstance(x, int) and isinstance(y, int):
            return grid[x][y]
        acc = Mat.zeros(self.m, self.m)
        n = self.base.n
        for i, a in _coeffs(x, n):
            for j, b in _coeffs(y, n):
                mat = grid[i][j]
                if not mat.is_zero():
                    acc = acc + (a * b) * mat
        return acc

    def D_of(self, x, y) -> Mat:
        return self._grid_of(self.D, x, y)

    def theta_of(self, x, y) -> Mat:
        return self._grid_of(self.theta, x, y)

    def delta(self, x, y) -> Mat:
        """Delta(x,y) = D(x,y) - rho(x*y), extended bilinearly."""
        B = self.base
        if isinstance(x, int) and isinstance(y, int):
            prod = B.basis_product(x, y)
        else:
            prod = B.product(x, y)
        return self.D_of(x, y) - self.rho_of(prod)

    @classmethod
    def zero(cls, base: BolAlgebra, m: int) -> "Representation":
        z = Mat.zeros(m, m)
        n = base.n
        return cls(base, m,
                   tuple(z for _ in range(n)),
                   tuple(tuple(z for _ in range(n)) for _ in range(n)),
                   tuple(tuple(z for _ in range(n)) for _ in range(n)))


def _lincomb(mats: tuple[Mat, ...], x, m: int) -> Mat:
    """sum_i x_i mats[i] for a Vec x; a basis index x picks mats[x]."""
    if isinstance(x, int):
        return mats[x]
    acc = Mat.zeros(m, m)
    for i, s in enumerate(x):
        if s:
            acc = acc + s * mats[i]
    return acc


@_once_per_object
def verify_representation(R: Representation) -> CheckReport:
    """Check (R1)-(R33) as exact matrix identities on basis tuples (once per R)."""
    B = R.base
    n = B.n
    rng = range(n)

    def r1(i, j):
        return (R.D[i][j] + R.theta[i][j] - R.theta[j][i]).entries

    def r21(x1, x2, y1):
        xx = B.basis_product(x1, x2)
        res = commutator(R.D[x1][x2], R.rho[y1])
        res = res - R.rho_of(B.basis_triple(x1, x2, y1))
        res = res + R.theta_of(y1, xx)
        res = res - R.rho_of(xx) @ R.rho[y1]
        return res.entries

    def r22(x1, y1, y2):
        yy = B.basis_product(y1, y2)
        res = R.theta_of(x1, yy)
        res = res - R.rho[y1] @ R.theta[x1][y2]
        res = res + R.rho[y2] @ R.theta[x1][y1]
        res = res + (R.D[y1][y2] - R.rho_of(yy)) @ R.rho[x1]
        return res.entries

    def r31(x1, x2, y1, y2):
        res = commutator(R.D[x1][x2], R.D[y1][y2])
        res = res - R.D_of(B.basis_triple(x1, x2, y1), y2)
        res = res - R.D_of(y1, B.basis_triple(x1, x2, y2))
        return res.entries

    def r32(x1, x2, y1, y2):
        res = commutator(R.D[x1][x2], R.theta[y1][y2])
        res = res - R.theta_of(B.basis_triple(x1, x2, y1), y2)
        res = res - R.theta_of(y1, B.basis_triple(x1, x2, y2))
        return res.entries

    def r33(x1, y1, y2, y3):
        res = R.theta_of(x1, B.basis_triple(y1, y2, y3))
        res = res - R.theta[y2][y3] @ R.theta[x1][y1]
        res = res + R.theta[y1][y3] @ R.theta[x1][y2]
        res = res - R.D[y1][y2] @ R.theta[x1][y3]
        return res.entries

    checks = (
        _scan("R1", itertools.product(rng, repeat=2), r1),
        _scan("R21", itertools.product(rng, repeat=3), r21),
        _scan("R22", itertools.product(rng, repeat=3), r22),
        _scan("R31", itertools.product(rng, repeat=4), r31),
        _scan("R32", itertools.product(rng, repeat=4), r32),
        _scan("R33", itertools.product(rng, repeat=4), r33),
    )
    return CheckReport(checks)


def adjoint_representation(B: BolAlgebra) -> Representation:
    """Adjoint module V = B: rho(u)v = u*v, D(u,v)w = [u,v,w], theta(u,v)w = [w,u,v]."""
    _require_passed(verify_bol(B), "adjoint representation needs a verified Bol algebra")
    rng = range(B.n)

    def matrix(image):  # column w is the image of e_w
        return Mat.from_cols([image(w) for w in rng], rows=B.n)
    rho = tuple(matrix(lambda w: B.basis_product(u, w)) for u in rng)
    D = tuple(tuple(matrix(lambda w: B.basis_triple(u, v, w)) for v in rng) for u in rng)
    theta = tuple(tuple(matrix(lambda w: B.basis_triple(w, u, v)) for v in rng) for u in rng)
    return Representation(B, B.n, rho, D, theta)


def maltsev_action_report(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> CheckReport:
    """Check the Maltsev-representation condition [D1(x,y), rho(z)] = rho([x,y,z]_1).

    Here D1(x,y) = [rho(x), rho(y)] + rho(x*y) and
    [x,y,z]_1 = x*(y*z) - y*(x*z) + (x*y)*z.
    """
    n = M.n
    m = rho[0].rows if rho else 0

    def residual(x, y, z):
        d1 = commutator(rho[x], rho[y]) + _lincomb(rho, M.basis_product(x, y), m)
        bracket1 = vec_add(vec_sub(M.product(x, M.basis_product(y, z)),
                                   M.product(y, M.basis_product(x, z))),
                           M.product(M.basis_product(x, y), z))
        return (commutator(d1, rho[z]) - _lincomb(rho, bracket1, m)).entries

    check = _scan("maltsev-representation",
                  itertools.product(range(n), repeat=3), residual)
    return CheckReport((check,))


def maltsev_action_jordan_report(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> CheckReport:
    """Equivalent Maltsev-representation condition in Jordan-product form:

    rho(x*(y*z)) - rho(z){rho(x),rho(y)} + rho(y){rho(x),rho(z)}
      = {rho(x), rho(y*z)} - rho(z) rho(x*y) + rho(y) rho(x*z),

    with {a,b} = ab + ba.  Provided as a cross-check of maltsev_action_report.
    """
    n = M.n
    m = rho[0].rows if rho else 0

    def jordan(a: Mat, b: Mat) -> Mat:
        return a @ b + b @ a

    def residual(x, y, z):
        res = _lincomb(rho, M.product(x, M.basis_product(y, z)), m)
        res = res - rho[z] @ jordan(rho[x], rho[y])
        res = res + rho[y] @ jordan(rho[x], rho[z])
        res = res - jordan(rho[x], _lincomb(rho, M.basis_product(y, z), m))
        res = res + rho[z] @ _lincomb(rho, M.basis_product(x, y), m)
        res = res - rho[y] @ _lincomb(rho, M.basis_product(x, z), m)
        return res.entries

    check = _scan("maltsev-representation-jordan",
                  itertools.product(range(n), repeat=3), residual)
    return CheckReport((check,))


def induce_from_maltsev(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> Representation:
    """Representation of the associated Bol algebra induced by a Maltsev action.

    With theta_2(x,y) = rho(x)rho(y) + 2 rho(y)rho(x) - rho(x*y) and
    D_2(x,y) = [rho(x), rho(y)] + 2 rho(x*y), the induced maps are
    theta = (1/3) theta_2 and D = (1/3) D_2 over maltsev_to_bol(M).

    The action must satisfy the Maltsev-representation condition; it is
    rejected with the witness triple otherwise, and the Jordan-form
    condition is checked as well, so the two forms cross-check each other.
    """
    rho = tuple(rho)
    n = M.n
    if len(rho) != n:
        raise ValueError(f"expected {n} action matrices, got {len(rho)}")
    m = rho[0].rows if rho else 0
    for mat in rho:
        if mat.shape != (m, m):
            raise ValueError("action matrices must share one square shape")

    _require_passed(maltsev_action_report(M, rho),
                    "action does not satisfy the Maltsev representation condition")
    _require_passed(maltsev_action_jordan_report(M, rho),
                    "Maltsev representation cross-check disagrees")

    def grid(fn):  # fn(rho(e_i), rho(e_j), rho(e_i * e_j))
        return tuple(tuple(_THIRD * fn(rho[i], rho[j], _lincomb(rho, M.basis_product(i, j), m))
                           for j in range(n)) for i in range(n))
    D = grid(lambda ri, rj, rp: commutator(ri, rj) + Fraction(2) * rp)
    theta = grid(lambda ri, rj, rp: ri @ rj + Fraction(2) * (rj @ ri) - rp)
    return Representation(maltsev_to_bol(M), m, rho, D, theta)


def check_delta_identity(R: Representation) -> CheckReport:
    """Verify the Delta commutator identity on all basis quadruples:

    [Delta(x1,x2), Delta(y1,y2)] = Delta([x1,x2,y1], y2)
                                   + Delta(y1, [x1,x2,y2])
                                   - Delta(y1*y2, x1*x2).
    """
    B = R.base
    rng = range(B.n)

    def residual(x1, x2, y1, y2):
        res = commutator(R.delta(x1, x2), R.delta(y1, y2))
        res = res - R.delta(B.basis_triple(x1, x2, y1), unit_vec(B.n, y2))
        res = res - R.delta(unit_vec(B.n, y1), B.basis_triple(x1, x2, y2))
        res = res + R.delta(B.basis_product(y1, y2), B.basis_product(x1, x2))
        return res.entries

    check = _scan("delta-identity", itertools.product(rng, repeat=4), residual)
    return CheckReport((check,))


@dataclass(frozen=True)
class PseudoderivationData:
    """A linear map f: B -> V (m x n matrix) with companion chi in V."""

    f: Mat
    chi: Vec

    @classmethod
    def zero(cls, n: int, m: int) -> "PseudoderivationData":
        return cls(Mat.zeros(m, n), zero_vec(m))


def coboundary_tensors(R: Representation, p: PseudoderivationData):
    """Raw (nu, omega) tensors of the coboundary generated by (f, chi):

    nu(x1,x2)       = rho(x1) f(x2) - rho(x2) f(x1)
                      + Delta(x1,x2)(chi) - f(x1*x2)
    omega(x1,x2,x3) = theta(x2,x3) f(x1) - theta(x1,x3) f(x2)
                      + D(x1,x2) f(x3) - f([x1,x2,x3])

    Returned as nu[a][i][j] and omega[a][i][j][k] nested tuples.
    """
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
        val = vec_add(val, R.delta(i, j).apply(chi))
        return vec_sub(val, f.apply(B.basis_product(i, j)))

    def omega(i, j, k):
        val = vec_sub(R.theta[j][k].apply(fcols[i]), R.theta[i][k].apply(fcols[j]))
        val = vec_add(val, R.D[i][j].apply(fcols[k]))
        return vec_sub(val, f.apply(B.basis_triple(i, j, k)))
    return tabulate(m, n, 2, nu), tabulate(m, n, 3, omega)


def is_pseudoderivation(R: Representation, p: PseudoderivationData) -> bool:
    """True iff every entry of the full coboundary tensors of (f, chi) vanishes."""
    n, m = R.base.n, R.m
    return coboundary_tensors(R, p) == (freeze(zeros(m, n, n)), freeze(zeros(m, n, n, n)))


def pseudoderivation_params(n: int, m: int) -> int:
    return n * m + m


def unpack_params(n: int, m: int, params: Vec) -> PseudoderivationData:
    if len(params) != n * m + m:
        raise ValueError("parameter vector has wrong length")
    cols = [params[j * m:(j + 1) * m] for j in range(n)]
    f = Mat.from_cols(cols, rows=m) if n else Mat.zeros(m, 0)
    chi = tuple(params[n * m:])
    return PseudoderivationData(f, chi)


def cochain_dim(n: int, m: int) -> int:
    """Dimension of the coupled cochain space: n(n-1)/2 * m * (1 + n)."""
    return n * (n - 1) // 2 * m * (1 + n)


@_once_per_object
def coboundary_matrix(R: Representation) -> Mat:
    """Matrix of (f, chi) -> (nu, omega) in cochain coordinates, one column
    per parameter; a coboundary that is not antisymmetric (R unverified)
    raises ValueError.  Kept on R for pseudoderivations, coboundary solves
    and cohomology()."""
    n, m = R.base.n, R.m

    def coords(params: Vec) -> Vec:
        nu, omega = coboundary_tensors(R, unpack_params(n, m, params))
        return entry_coords(n, ("nu", nu, 2), ("omega", omega, 3))
    return matrix_of(coords, pseudoderivation_params(n, m), cochain_dim(n, m))


def pseudoderivation_space(R: Representation) -> list[PseudoderivationData]:
    """Deterministic basis of all (f, chi) with vanishing coboundary.

    This is the kernel of ``coboundary_matrix``; the parameter order is
    f's columns (module coordinate innermost) followed by chi.
    """
    n, m = R.base.n, R.m
    return [unpack_params(n, m, v) for v in kernel_basis(coboundary_matrix(R))]
