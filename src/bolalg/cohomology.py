"""(2,3)-cochains, cocycles, companion-carrying coboundaries, cohomology.

A cochain pair is an antisymmetric bilinear map nu: B x B -> V together
with a trilinear map omega: B x B x B -> V antisymmetric in its first two
slots.  The pair is a cocycle when

  (CC1)  cyclic sum of omega(x1,x2,x3) over x1,x2,x3 vanishes
  (CC2)  omega(x1,x2,y1*y2) + D(x1,x2) nu(y1,y2)
           = omega(y1,y2,x1*x2) + D(y1,y2) nu(x1,x2)
           + nu([x1,x2,y1],y2) + nu(y1,[x1,x2,y2])
           + rho(y1) omega(x1,x2,y2) - rho(y2) omega(x1,x2,y1)
           + rho(x1*x2) nu(y1,y2) - rho(y1*y2) nu(x1,x2)
           - nu(y1*y2, x1*x2)
  (CC3)  omega(x1,x2,[y1,y2,y3]) + D(x1,x2) omega(y1,y2,y3)
           = omega([x1,x2,y1],y2,y3) + omega(y1,[x1,x2,y2],y3)
           + omega(y1,y2,[x1,x2,y3]) + D(y1,y2) omega(x1,x2,y3)
           + theta(y2,y3) omega(x1,x2,y1) - theta(y1,y3) omega(x1,x2,y2)

and a coboundary when it arises from a pair (f, chi) via the equations of
``representation.coboundary_tensors``.  CC2 couples nu and omega, so the
cocycle space Z and the coboundary space B live inside the single coupled
coefficient space C^2 (+) C^3; dimensions and bases below always refer to
that coupled space, with the nu/omega split kept only for display.

Coordinates on the cochain space are fixed once and for all: all
nu[a][i][j] with i<j in lexicographic (i,j) order, module coordinate a
innermost, then all omega[a][i][j][k] with i<j in lexicographic (i,j,k)
order, a innermost.  Every basis this module returns is expressed in those
coordinates through the canonical reduced-row-echelon parametrizations of
``linalg``, so identical inputs give identical bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .algebra import (
    BolAlgebra,
    CheckReport,
    _once_per_object,
    _scan,
    bilinear_eval,
    entry_args,
    entry_coords,
    freeze,
    tensor_from_entries,
    trilinear_eval,
    zeros,
)
from .linalg import (
    Mat, Vec, kernel_basis, matrix_of, rref, solve, vec_add, vec_scale, vec_sub, zero_vec,
)
from .representation import (
    PseudoderivationData,
    Representation,
    cochain_dim,
    coboundary_matrix,
    coboundary_tensors,
    pseudoderivation_params,
    pseudoderivation_space,
    unpack_params,
)


@dataclass(frozen=True)
class CochainPair:
    """Coefficient tensors nu[a][i][j], omega[a][i][j][k] of a (2,3)-cochain."""

    base: BolAlgebra
    m: int
    nu: tuple
    omega: tuple

    def __post_init__(self):
        n, m = self.base.n, self.m
        if len(self.nu) != m or len(self.omega) != m:
            raise ValueError("cochain tensors must have one plane per module coordinate")
        for plane in self.nu:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("nu tensor must be m x n x n")
        for cube in self.omega:
            if len(cube) != n or any(
                len(plane) != n or any(len(row) != n for row in plane)
                for plane in cube
            ):
                raise ValueError("omega tensor must be m x n x n x n")
        self.coords()  # raises on the first antisymmetry failure

    @property
    def n(self) -> int:
        return self.base.n

    @classmethod
    def zero(cls, base: BolAlgebra, m: int) -> "CochainPair":
        n = base.n
        return cls(base, m, freeze(zeros(m, n, n)), freeze(zeros(m, n, n, n)))

    @classmethod
    def from_entries(cls, base: BolAlgebra, m: int, nu_entries, omega_entries
                     ) -> "CochainPair":
        """Build from sparse i<j entries {(i,j): {a: coeff}} / {(i,j,k): {a: coeff}}."""
        n = base.n
        return cls(base, m, tensor_from_entries(n, m, 2, nu_entries, "nu"),
                   tensor_from_entries(n, m, 3, omega_entries, "omega"))

    # -- multilinear evaluation; slots take a basis index or a Vec over B --

    def nu_val(self, x, y) -> Vec:
        return bilinear_eval(self.nu, x, y, self.n)

    def omega_val(self, x, y, z) -> Vec:
        return trilinear_eval(self.omega, x, y, z, self.n)

    # Arithmetic goes through the coordinates, which determine an
    # antisymmetric pair.

    def __add__(self, other: "CochainPair") -> "CochainPair":
        self._check_compatible(other)
        return coords_to_cochain(self.base, self.m, vec_add(self.coords(), other.coords()))

    def __sub__(self, other: "CochainPair") -> "CochainPair":
        self._check_compatible(other)
        return coords_to_cochain(self.base, self.m, vec_sub(self.coords(), other.coords()))

    def __rmul__(self, s) -> "CochainPair":
        return coords_to_cochain(self.base, self.m, vec_scale(Fraction(s), self.coords()))

    def is_zero(self) -> bool:
        return not any(self.coords())

    def _check_compatible(self, other: "CochainPair"):
        if self.base != other.base or self.m != other.m:
            raise ValueError("cochains live over different data")

    @_once_per_object
    def coords(self) -> Vec:
        """Canonical coordinate vector (nu block then omega block), kept on the pair."""
        return entry_coords(self.n, ("nu", self.nu, 2), ("omega", self.omega, 3))


def coords_to_cochain(base: BolAlgebra, m: int, coords: Vec) -> CochainPair:
    n = base.n
    if len(coords) != cochain_dim(n, m):
        raise ValueError("coordinate vector has wrong length")
    blocks = []
    pos = 0
    for arity in (2, 3):
        entries = []
        for args in entry_args(n, arity):
            entries.append((args, {a: v for a, v in enumerate(coords[pos:pos + m]) if v}))
            pos += m
        blocks.append(tensor_from_entries(n, m, arity, entries, "coordinate"))
    return CochainPair(base, m, *blocks)


# ---------------------------------------------------------------------------
# cocycle conditions


def _cc1_residual(c: CochainPair, x1, x2, x3) -> Vec:
    return vec_add(c.omega_val(x1, x2, x3),
                   c.omega_val(x2, x3, x1),
                   c.omega_val(x3, x1, x2))


def _cc2_residual(R: Representation, c: CochainPair, x1, x2, y1, y2) -> Vec:
    B = R.base
    xx = B.basis_product(x1, x2)
    yy = B.basis_product(y1, y2)
    r = c.omega_val(x1, x2, yy)
    r = vec_add(r, R.D[x1][x2].apply(c.nu_val(y1, y2)))
    r = vec_sub(r, c.omega_val(y1, y2, xx))
    r = vec_sub(r, R.D[y1][y2].apply(c.nu_val(x1, x2)))
    r = vec_sub(r, c.nu_val(B.basis_triple(x1, x2, y1), y2))
    r = vec_sub(r, c.nu_val(y1, B.basis_triple(x1, x2, y2)))
    r = vec_sub(r, R.rho[y1].apply(c.omega_val(x1, x2, y2)))
    r = vec_add(r, R.rho[y2].apply(c.omega_val(x1, x2, y1)))
    r = vec_sub(r, R.rho_of(xx).apply(c.nu_val(y1, y2)))
    r = vec_add(r, R.rho_of(yy).apply(c.nu_val(x1, x2)))
    r = vec_add(r, c.nu_val(yy, xx))
    return r


def _cc3_residual(R: Representation, c: CochainPair, x1, x2, y1, y2, y3) -> Vec:
    B = R.base
    r = c.omega_val(x1, x2, B.basis_triple(y1, y2, y3))
    r = vec_add(r, R.D[x1][x2].apply(c.omega_val(y1, y2, y3)))
    r = vec_sub(r, c.omega_val(B.basis_triple(x1, x2, y1), y2, y3))
    r = vec_sub(r, c.omega_val(y1, B.basis_triple(x1, x2, y2), y3))
    r = vec_sub(r, c.omega_val(y1, y2, B.basis_triple(x1, x2, y3)))
    r = vec_sub(r, R.D[y1][y2].apply(c.omega_val(x1, x2, y3)))
    r = vec_sub(r, R.theta[y2][y3].apply(c.omega_val(x1, x2, y1)))
    r = vec_add(r, R.theta[y1][y3].apply(c.omega_val(x1, x2, y2)))
    return r


def _cc_conditions(R: Representation, c: CochainPair):
    """(name, index tuples in lexicographic order, residual) of CC1-CC3."""
    rng = range(R.base.n)
    return (("CC1", itertools.product(rng, repeat=3), partial(_cc1_residual, c)),
            ("CC2", itertools.product(rng, repeat=4), partial(_cc2_residual, R, c)),
            ("CC3", itertools.product(rng, repeat=5), partial(_cc3_residual, R, c)))


def is_cocycle(R: Representation, c: CochainPair) -> CheckReport:
    """Check CC1/CC2/CC3 on all basis tuples; first witness per condition."""
    if c.base != R.base or c.m != R.m:
        raise ValueError("cochain does not match the representation's data")
    return CheckReport(tuple(_scan(*condition) for condition in _cc_conditions(R, c)))


def _cocycle_residual_vector(R: Representation, c: CochainPair) -> Vec:
    """All CC residual components, rows in the fixed deterministic order."""
    return tuple(x for _, tuples, residual in _cc_conditions(R, c)
                 for idx in tuples for x in residual(*idx))


# ---------------------------------------------------------------------------
# coboundaries


def coboundary_of(R: Representation, p: PseudoderivationData) -> CochainPair:
    """Coboundary generated by (f, chi); chi enters only through Delta."""
    nu, omega = coboundary_tensors(R, p)
    return CochainPair(R.base, R.m, nu, omega)


def solve_coboundary(R: Representation, c: CochainPair, companion: str = "free"
                     ) -> PseudoderivationData | None:
    """Find (f, chi) with coboundary_of(R, (f, chi)) = c, or None.

    companion:
      "free"         -- chi unrestricted (the coboundary predicate)
      "none"         -- chi forced to 0 (solve in f alone)
      "delta-kernel" -- chi restricted to the joint kernel of all
                        Delta(e_i, e_j)
    """
    if c.base != R.base or c.m != R.m:
        raise ValueError("cochain does not match the representation's data")
    n, m = R.base.n, R.m
    matrix, target = coboundary_matrix(R), c.coords()
    fdim = n * m
    if companion == "none":
        # Solve in f's columns alone and pad chi with zeros: rows forcing
        # chi = 0 would make every chi column a pivot, same RREF solution.
        matrix = Mat(matrix.rows, fdim, tuple(
            x for r in range(matrix.rows) for x in matrix.row(r)[:fdim]))
    elif companion == "delta-kernel":
        deltas = (R.delta(i, j) for i in range(n) for j in range(n))
        delta_rows = tuple(x for d in deltas for r in range(m)
                           for x in zero_vec(fdim) + d.row(r))
        matrix = Mat(matrix.rows + n * n * m, matrix.cols, matrix.entries + delta_rows)
        target += zero_vec(n * n * m)
    elif companion != "free":
        raise ValueError(f"unknown companion mode {companion!r}")

    sol = solve(matrix, target)
    if sol is None:
        return None
    return unpack_params(n, m, sol + zero_vec(pseudoderivation_params(n, m) - matrix.cols))


def is_coboundary(R: Representation, c: CochainPair
                  ) -> tuple[bool, PseudoderivationData | None]:
    """Solve the inhomogeneous coboundary system; witness when solvable."""
    wit = solve_coboundary(R, c, companion="free")
    return (wit is not None), wit


# ---------------------------------------------------------------------------
# cohomology


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions and canonical bases of Z, B and H representatives."""

    n: int
    m: int
    dim_C: int
    dim_Z: int
    dim_B: int
    dim_H: int
    z_basis: tuple[CochainPair, ...]
    b_basis: tuple[CochainPair, ...]
    h_representatives: tuple[CochainPair, ...]


def cohomology(R: Representation) -> CohomologyReport:
    """Compute Z, B and H for the coupled (2,3)-cochain space.

    Z is the kernel of the assembled CC1-CC3 constraint matrix; B is the
    image of the coboundary map from (f, chi)-space; representatives of H
    are the Z-basis vectors that extend a basis of B inside Z, taken
    greedily in the canonical order (read off one RREF).
    """
    B = R.base
    n, m = B.n, R.m
    dim_c = cochain_dim(n, m)

    # Constraint matrix, one column per cochain coordinate.  Dropping
    # repeated/zero rows (the first of each kept, in order) changes neither
    # the row space nor the kernel.
    def residual(coords: Vec) -> Vec:
        return _cocycle_residual_vector(R, coords_to_cochain(B, m, coords))
    residuals = matrix_of(residual, dim_c, m * (n ** 3 + n ** 4 + n ** 5))
    rows = (residuals.row(r) for r in range(residuals.rows))
    kept = dict.fromkeys(row for row in rows if any(row))
    constraint = Mat(len(kept), dim_c, tuple(x for row in kept for x in row))
    z_coords = kernel_basis(constraint)
    dim_z = len(z_coords)

    bmat = coboundary_matrix(R)
    bres = rref(bmat.transpose())
    b_coords = [bres.reduced.row(r) for r in range(bres.rank)]
    dim_b = len(b_coords)

    # Companion parameters that change nothing are exactly the
    # pseudoderivations, so rank + kernel = parameter count.
    if dim_b + len(pseudoderivation_space(R)) != pseudoderivation_params(n, m):
        raise AssertionError("coboundary rank/nullity bookkeeping is wrong")

    # Extend B to a basis of Z in the canonical order: with the B basis
    # first, the pivot columns past dim_b are exactly the Z vectors that
    # are independent of B and of the Z vectors before them.
    pivots = rref(Mat.from_cols(b_coords + z_coords, rows=dim_c)).pivots
    reps = [z_coords[p - dim_b] for p in pivots if p >= dim_b]
    if len(reps) != dim_z - dim_b:
        raise AssertionError(
            "coboundaries do not sit inside the cocycle space; "
            "is the representation verified?")

    to_cochain = lambda v: coords_to_cochain(B, m, v)
    return CohomologyReport(
        n=n, m=m,
        dim_C=dim_c, dim_Z=dim_z, dim_B=dim_b, dim_H=dim_z - dim_b,
        z_basis=tuple(to_cochain(v) for v in z_coords),
        b_basis=tuple(to_cochain(v) for v in b_coords),
        h_representatives=tuple(to_cochain(v) for v in reps),
    )
