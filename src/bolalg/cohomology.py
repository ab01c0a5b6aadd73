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

and a coboundary when it is the image of a pair (f, chi) under the one
coboundary map, the kept rows ``representation._coboundary_rows``.  CC2
couples nu and omega, so the cocycle space Z and the coboundary space B
live inside the single coupled coefficient space C^2 (+) C^3; dimensions
and bases below always refer to that coupled space, with the nu/omega
split kept only for display.

CC1-CC3 are stated once, in integers (``_cocycle_conditions``), and read
by both ``is_cocycle`` and the constraint rows of ``cohomology``.  The
statement reads the nonzero structure constants times D_A, the lcm of
every denominator of B (its stored ``form``), and the module maps
by their nonzero rows times D_R, the lcm of every denominator of rho, D
and theta (``Representation.form``, the one state of a representation,
which every scan of it reads).  A term with a factors from B and r from
the module maps is then D_A**a * D_R**r times its true value, so each
condition scales its terms to one degree and carries that denominator: CC1
has no such factor (denominator 1); CC2 has degree 2 in D_A (the
nu(y1*y2, x1*x2) term) and 1 in D_R (denominator D_A**2 * D_R); CC3 has
degree 1 in each (denominator D_A * D_R).  is_cocycle also scales the
cochain by D_C, the lcm of the denominators of its coordinates, adds up
ints and divides once per residual; a constraint row is divided by the gcd
of its ints, where the common factor cancels.  The arithmetic is exact,
and residuals and rows equal those of the Fraction statement up to scale.

The constraint rows and is_cocycle visit one tuple per orbit of the
antisymmetries (``algebra.slot_tuples``): x1<x2<x3 for CC1, x1<x2 and
y1<y2 for CC2 and CC3.  CC1 is a cyclic sum of omega, so it changes sign
under any swap of x1, x2, x3.  CC2 and CC3 change sign when x1, x2 or y1,
y2 are swapped, provided the product c, the ternary product t (in its
first two slots) and D are antisymmetric.  A tuple with x1 = x2 or
y1 = y2 (for CC1, any repeated index) then has a zero row and residual,
and any other tuple has, up to sign, the row and residual of the smallest
tuple of its orbit, which is the representative.  A primitive row with a
positive lead forgets its sign, so the representatives give the distinct
rows of every tuple, in the same order of first occurrence, and the same
constraint matrix; the failing tuples are closed under the swaps, so the
first failing representative is is_cocycle's lexicographically first
failing tuple.  Whether c, t and D are antisymmetric is checked once per
R on the kept sparse forms (``representation._antisymmetry_failure``):
_constraint_rows refuses an R where they are not, and so does the
coboundary map on a nonzero module, where it is antisymmetric exactly when
c, t and D are; is_cocycle then scans every tuple.

Coordinates on the cochain space are fixed once and for all: all
nu[a][i][j] with i<j in lexicographic (i,j) order, module coordinate a
innermost, then all omega[a][i][j][k] with i<j in lexicographic (i,j,k)
order, a innermost.  Every basis this module returns is expressed in those
coordinates through the canonical reduced-row-echelon parametrizations of
``linalg``, so identical inputs give identical bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, partial

from .algebra import (
    BolAlgebra,
    CheckReport,
    _antisymmetry_error,
    _antisymmetry_scan,
    _checked_entries,
    _coefficients,
    _dense,
    _entry_forms,
    _form_entries,
    _nonzeros,
    _over,
    _require_passed,
    _scaled,
    _scan,
    entry_args,
    slot_tuples,
    verify_bol,
)
from .linalg import (
    Mat, Vec, _common_denominator, _exact, _primitive, kernel_basis, record, rref, solve,
    vec_add, vec_scale, vec_sub, zero_vec,
)
from .representation import (
    PseudoderivationData,
    Representation,
    _antisymmetry_failure,
    _coboundary_coords,
    _cochain_entries,
    _delta_rows,
    cochain_dim,
    coboundary_matrix,
    pseudoderivation_params,
    unpack_params,
    verify_representation,
)


@record
class CochainPair:
    """A (2,3)-cochain, held as its canonical coordinate vector.

    ``CochainPair(base, m, nu, omega)`` reads the tensors nu[a][i][j] and
    omega[a][i][j][k] into their integer form, as an algebra's are read,
    and raises ValueError on a bad shape, then TypeError on an entry that
    is not an int or a Fraction, then ValueError at the first tuple where
    they are not antisymmetric.  ``zero``, ``from_entries`` and
    ``coords_to_cochain`` write the coordinates directly.  The tensors are
    built from them on first access and kept on the pair (the library reads
    ``entries`` and ``representation._cochain_entries`` instead).  Two pairs
    are equal when their base, m and coordinates are.
    """

    base: BolAlgebra
    m: int
    _coords: Vec

    def __init__(self, base: BolAlgebra, m: int, nu: tuple, omega: tuple):
        n = base.n
        D, *forms = _entry_forms(n, ((2, _coefficients("nu", nu, m, n, 2), False),
                                     (3, _coefficients("omega", omega, m, n, 3), False)))
        for name, form, arity in zip(("nu", "omega"), forms, (2, 3)):
            check = _antisymmetry_scan(name, D, form, arity, m)
            if not check.passed:
                v = next(v for v, x in enumerate(check.residual) if x)
                raise ValueError(_antisymmetry_error(name, check.witness, v))
        self.__dict__.update(base=base, m=m, _coords=_entry_coords(n, m, [
            _form_entries(D, form, arity, True) for form, arity in zip(forms, (2, 3))]))

    @classmethod
    def _of_coords(cls, base: BolAlgebra, m: int, coords: Vec) -> "CochainPair":
        """The pair with canonical coordinates ``coords`` (Fractions, right length)."""
        pair = object.__new__(cls)
        pair.__dict__.update(base=base, m=m, _coords=coords)
        return pair

    @property
    def n(self) -> int:
        return self.base.n

    @classmethod
    def zero(cls, base: BolAlgebra, m: int) -> "CochainPair":
        return cls._of_coords(base, m, zero_vec(cochain_dim(base.n, m)))

    @classmethod
    def from_entries(cls, base: BolAlgebra, m: int, nu_entries, omega_entries
                     ) -> "CochainPair":
        """Build from sparse i<j entries {(i,j): {a: coeff}} / {(i,j,k): {a: coeff}}."""
        n = base.n
        return cls._of_coords(base, m, _entry_coords(n, m, (
            _checked_entries(n, m, 2, nu_entries, "nu"),
            _checked_entries(n, m, 3, omega_entries, "omega"))))

    def entries(self, arity: int) -> list:
        """[(args, values), ...] over entry_args(n, arity): the m module
        coordinates of nu (arity 2) or omega (arity 3) at each i<j tuple,
        read off the coordinates."""
        m = self.m
        return [(args, self._coords[p * m:p * m + m]) for p, args in
                enumerate(entry_args(self.n, 2) + entry_args(self.n, 3)) if len(args) == arity]

    @cached_property
    def nu(self) -> tuple:
        """The tensor nu[a][i][j], built from the coordinates once."""
        return _dense(self.n, self.m, 2, _cochain_entries(self.n, self.m, self._coords, 2))

    @cached_property
    def omega(self) -> tuple:
        """The tensor omega[a][i][j][k], built from the coordinates once."""
        return _dense(self.n, self.m, 3, _cochain_entries(self.n, self.m, self._coords, 3))

    # Arithmetic goes through the coordinates, which determine an
    # antisymmetric pair.

    def __add__(self, other: "CochainPair") -> "CochainPair":
        self._check_compatible(other)
        return coords_to_cochain(self.base, self.m, vec_add(self.coords(), other.coords()))

    def __sub__(self, other: "CochainPair") -> "CochainPair":
        self._check_compatible(other)
        return coords_to_cochain(self.base, self.m, vec_sub(self.coords(), other.coords()))

    def __rmul__(self, s) -> "CochainPair":
        return coords_to_cochain(self.base, self.m, vec_scale(_exact(s), self.coords()))

    def is_zero(self) -> bool:
        return not any(self.coords())

    def _check_compatible(self, other: "CochainPair"):
        if self.base != other.base or self.m != other.m:
            raise ValueError("cochains live over different data")

    def coords(self) -> Vec:
        """Canonical coordinate vector (nu block then omega block)."""
        return self._coords


def _coordinate_index(n: int, m: int) -> dict:
    """args -> (first cochain coordinate of its i<j entry, sign) for every
    nu (two args) and omega (three args) tuple with i != j."""
    index = {}
    for pos, args in enumerate(entry_args(n, 2) + entry_args(n, 3)):
        index[args] = (pos * m, 1)
        index[(args[1], args[0]) + args[2:]] = (pos * m, -1)
    return index


def _entry_coords(n: int, m: int, parts) -> Vec:
    """The canonical coordinates of nu, then omega, of i<j entries (args, ((a, p, q), ...))."""
    coords, index = list(zero_vec(cochain_dim(n, m))), _coordinate_index(n, m)
    for args, terms in itertools.chain(*parts):
        for a, p, q in terms:
            coords[index[args][0] + a] = Fraction(p, q)
    return tuple(coords)


def coords_to_cochain(base: BolAlgebra, m: int, coords: Vec) -> CochainPair:
    if len(coords) != cochain_dim(base.n, m):
        raise ValueError("coordinate vector has wrong length")
    if not all(type(x) is Fraction for x in coords):
        coords = map(_exact, coords)
    return CochainPair._of_coords(base, m, tuple(coords))


# ---------------------------------------------------------------------------
# cocycle conditions as constraint rows


def _cocycle_conditions(R: Representation, representatives: bool = False):
    """(name, denominator, index tuples in lexicographic order, reads) of CC1-CC3.

    The tuples are every tuple, or with ``representatives`` only the orbit
    representatives of the module docstring (valid when c, t and D are
    antisymmetric).  reads(*idx) lists the terms of LHS - RHS at one tuple
    in integer form, expanded to the cochain entries they read: (int
    coefficient, integer row form of a module map, the args of one nu
    (two) or omega (three) entry).  LHS - RHS is the sum of coefficient *
    map(entry) over the reads, divided by the denominator."""
    B = R.base
    DA, P, T = B.form
    DR, rho, D, theta = R.form
    I = tuple(((a, 1),) for a in range(R.m))  # no module map
    tuples = tuple(slot_tuples(B.n, sizes, representatives)
                   for sizes in ((3,), (2, 2), (2, 2, 1)))

    def cc1(x1, x2, x3):
        return ((1, I, (x1, x2, x3)), (1, I, (x2, x3, x1)), (1, I, (x3, x1, x2)))

    # a term of degree a in D_A and r in D_R is scaled by D_A**(2-a) * D_R**(1-r)
    aa, ar = DA * DA, DA * DR

    def cc2(x1, x2, y1, y2):
        xx, yy, Txy = P[x1][x2], P[y1][y2], T[x1][x2]
        reads = [(aa, D[x1][x2], (y1, y2)), (-aa, D[y1][y2], (x1, x2)),
                 (-aa, rho[y1], (x1, x2, y2)), (aa, rho[y2], (x1, x2, y1))]
        for k, c in yy:
            reads += ((ar * c, I, (x1, x2, k)), (DA * c, rho[k], (x1, x2)))
            reads += ((DR * c * d, I, (k, l)) for l, d in xx)
        for k, c in xx:
            reads += ((-ar * c, I, (y1, y2, k)), (-DA * c, rho[k], (y1, y2)))
        reads += ((-ar * c, I, (k, y2)) for k, c in Txy[y1])
        reads += ((-ar * c, I, (y1, k)) for k, c in Txy[y2])
        return reads

    # a term of degree a in D_A and r in D_R is scaled by D_A**(1-a) * D_R**(1-r)
    def cc3(x1, x2, y1, y2, y3):
        Txy = T[x1][x2]
        reads = [(DA, D[x1][x2], (y1, y2, y3)), (-DA, D[y1][y2], (x1, x2, y3)),
                 (-DA, theta[y2][y3], (x1, x2, y1)), (DA, theta[y1][y3], (x1, x2, y2))]
        reads += ((DR * c, I, (x1, x2, k)) for k, c in T[y1][y2][y3])
        reads += ((-DR * c, I, (k, y2, y3)) for k, c in Txy[y1])
        reads += ((-DR * c, I, (y1, k, y3)) for k, c in Txy[y2])
        reads += ((-DR * c, I, (y1, y2, k)) for k, c in Txy[y3])
        return reads
    return (("CC1", 1, tuples[0], cc1), ("CC2", aa * DR, tuples[1], cc2),
            ("CC3", ar, tuples[2], cc3))


def _constraint_rows(R: Representation):
    """Each nonzero CC1-CC3 row at the orbit representatives, in (condition,
    tuple, module coordinate) order, as its sorted (cochain coordinate,
    coefficient) pairs, a primitive int row with a positive lead (one to one
    with the row scaled to a leading 1).  Their distinct rows, in order of
    first occurrence, are those of every tuple (module docstring), so c, t
    and D are checked antisymmetric first.  The rows add up ints."""
    failure = _antisymmetry_failure(R)
    if failure:
        raise ValueError(failure)
    m, index = R.m, _coordinate_index(R.base.n, R.m)
    for _, _, tuples, reads in _cocycle_conditions(R, representatives=True):
        for idx in tuples:
            rows = [{} for _ in range(m)]
            for coeff, map_rows, args in reads(*idx):
                start, sign = index.get(args, (0, 0))
                if sign:
                    s = sign * coeff
                    for row, map_row in zip(rows, map_rows):
                        for b, x in map_row:
                            row[start + b] = row.get(start + b, 0) + s * x
            for row in rows:
                row = sorted((k, x) for k, x in _primitive(row).items() if x)
                if row:
                    yield tuple(row) if row[0][1] > 0 else tuple((k, -x) for k, x in row)


def is_cocycle(R: Representation, c: CochainPair) -> CheckReport:
    """Check CC1/CC2/CC3 on basis tuples; first witness per condition.

    The tuples are the orbit representatives of the module docstring when c,
    t and D are antisymmetric, and every tuple otherwise.  The residual at a
    tuple adds up, over its reads, coefficient * map(entry) for the nonzero
    entries of c times D_C, the lcm of the denominators of c.coords(), as
    ints, each entry held as {b: x}; entries that are zero in c are not in
    the lookup and cost no arithmetic."""
    if c.base != R.base or c.m != R.m:
        raise ValueError("cochain does not match the representation's data")
    m, coords = R.m, c.coords()
    DC = _common_denominator(coords)
    entries = {}
    for args, (start, sign) in _coordinate_index(R.base.n, m).items():
        v = dict(_scaled(_nonzeros(coords[start:start + m]), sign * DC))
        if v:
            entries[args] = v

    def residual(denominator, reads, *idx):
        acc = [0] * m
        for coeff, map_rows, args in reads(*idx):
            v = entries.get(args)
            if v:
                for a, map_row in enumerate(map_rows):
                    for b, y in map_row:
                        x = v.get(b)
                        if x:
                            acc[a] += coeff * x * y
        return _over(acc, denominator * DC)
    # c is antisymmetric by construction; with c, t and D antisymmetric too,
    # CC1 changes sign under any swap and CC2, CC3 when x1, x2 or y1, y2 are
    # swapped, so the first failing tuple is a representative.
    conditions = _cocycle_conditions(R, representatives=_antisymmetry_failure(R) is None)
    return CheckReport(tuple(_scan(name, tuples, partial(residual, denominator, reads))
                             for name, denominator, tuples, reads in conditions))


# ---------------------------------------------------------------------------
# coboundaries


def coboundary_of(R: Representation, p: PseudoderivationData) -> CochainPair:
    """Coboundary generated by (f, chi), chi entering only through Delta; it
    raises as ``representation._coboundary_coords`` does."""
    return coords_to_cochain(R.base, R.m, _coboundary_coords(R, p))


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
        matrix = Mat._of_rows(fdim, tuple(tuple((k, x) for k, x in row if k < fdim)
                                          for row in matrix.nonzero_rows))
    elif companion == "delta-kernel":
        delta_rows = tuple(tuple((fdim + k, x) for k, x in row)
                           for grid in _delta_rows(R) for delta in grid for row in delta)
        matrix = Mat._of_rows(matrix.cols, matrix.nonzero_rows + delta_rows)
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


@record
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
    greedily in the canonical order (read off one RREF).  When B does not sit
    inside Z, which an R failing verification can cause, verify_bol(R.base) and
    then verify_representation(R) are required to pass (VerificationError).
    """
    B = R.base
    n, m = B.n, R.m
    dim_c = cochain_dim(n, m)

    # The coboundary map first: on a nonzero module, c, t or D that is not
    # antisymmetric fails here with the message of _constraint_rows.
    bmat = coboundary_matrix(R)

    # Constraint matrix, one column per cochain coordinate.  Dropping
    # repeated rows (the first of each kept) keeps the row space and kernel.
    z_coords = kernel_basis(Mat._of_rows(dim_c, tuple(dict.fromkeys(_constraint_rows(R)))))
    dim_z = len(z_coords)

    bres = rref(bmat.transpose())
    b_coords = [bres.reduced.row(r) for r in range(bres.rank)]
    dim_b = len(b_coords)

    # Extend B to a basis of Z in the canonical order: with the B basis
    # first, the pivot columns past dim_b are exactly the Z vectors that
    # are independent of B and of the Z vectors before them.
    vectors = Mat._of_rows(dim_c, tuple(map(_nonzeros, b_coords + z_coords)))
    pivots = rref(vectors.transpose()).pivots
    reps = [z_coords[p - dim_b] for p in pivots if p >= dim_b]
    if len(reps) != dim_z - dim_b:  # B not inside Z: the input's fault, unless it verifies
        _require_passed(verify_bol(B), "algebra fails Bol verification")
        _require_passed(verify_representation(R), "representation fails verification")
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
