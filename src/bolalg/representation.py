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
scans read integer forms: the nonzeros of each product and bracket of B
times D_A, stored on B (``form``), of each rho, D and theta matrix by row
times D_R, the one state of a representation (``form``), and of each Delta
matrix by row times D_A * D_R, kept once per object (``_delta_rows``).  Every
matrix identity (R1-R33, the Delta identity) is one packed int of signed slots
per tuple (``_packed_map``), tested against 0 and read as ints over one common
denominator only at a failure.  Each module the library makes is the part V of
a split algebra B (+) V, written by ``_split_form`` and read by ``_module_of``.

An action rho of a Maltsev algebra M on V is a Maltsev representation when
the split null extension M (+) V, with the product

  (a+u)(b+v) = ab + rho(a)v - rho(b)u,

is a Maltsev algebra (Eilenberg's definition of a module over a variety;
Carlsson for Maltsev algebras).  induce_from_maltsev decides it by
verify_maltsev on that one algebra, whose basis vectors e_k with k >= n are
the module vectors u_(k-n): a witness index >= n names one.
The operator Delta(u,v) = D(u,v) - rho(u*v) satisfies the commutator
identity checked by check_delta_identity, and drives the companion term
of pseudoderivations: a linear map f: B -> V with companion chi in V is
a pseudoderivation when

  f(x1*x2)      = rho(x1) f(x2) - rho(x2) f(x1) + Delta(x1,x2)(chi)
  f([x1,x2,x3]) = theta(x2,x3) f(x1) - theta(x1,x3) f(x2) + D(x1,x2) f(x3).

The coboundary (f, chi) -> (nu, omega) is stated once, as the kept ``_coboundary_rows``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cached_property, partial

from .algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    _antisymmetry,
    _antisymmetry_error,
    _antisymmetry_scan,
    _dense,
    _entry_forms,
    _form_entries,
    _integer_terms,
    _of_form,
    _once_per_object,
    _over,
    _require_passed,
    _scan,
    entry_args,
    maltsev_to_bol,
    slot_tuples,
    verify_bol,
    verify_maltsev,
)
from .linalg import (
    Mat, Vec, _exact, _transposed_rows, kernel_basis, record, zero_vec,
)


@record
class Representation:
    """(rho, D, theta) on fixed bases of B and V, held as its integer form: each matrix by
    its nonzero rows times D_R, the lcm of every denominator, as ints.  Canonical, it is what
    equality, hashing and every scan read; the matrices are built from it on first access."""

    base: BolAlgebra
    m: int
    form: tuple  # (D_R, rho, D, theta): rho[i] of e_i, D[i][j] and theta[i][j] of e_i, e_j

    def __init__(self, base: BolAlgebra, m: int, rho, D, theta):
        n = base.n
        if len(rho) != n or len(D) != n or len(theta) != n:
            raise ValueError("representation grids must have one slot per basis element")
        for what, row in (("rho", rho), *(("grid", row) for row in (*D, *theta))):
            if len(row) != n:
                raise ValueError("D/theta grids must be n x n")
            for mat in row:
                if mat.shape != (m, m):
                    raise ValueError(f"{what} matrix shape {mat.shape} != ({m},{m})")
        self.__dict__.update(base=base, m=m, form=_rows_form(n, m, _mat_rows(
            (*rho, *itertools.chain(*D, *theta)))))

    @classmethod
    def _of_form(cls, base: BolAlgebra, m: int, form: tuple) -> "Representation":
        R = object.__new__(cls)
        R.__dict__.update(base=base, m=m, form=form)
        return R

    def _mat(self, rows: tuple, denominator: int) -> Mat:  # a map by its integer rows
        return Mat._of_rows(self.m, tuple(tuple((k, Fraction(c, denominator)) for k, c in row)
                                          for row in rows))

    @cached_property
    def rho(self) -> tuple[Mat, ...]:
        return tuple(self._mat(rows, self.form[0]) for rows in self.form[1])

    @cached_property
    def D(self) -> tuple[tuple[Mat, ...], ...]:
        return tuple(tuple(self._mat(rows, self.form[0]) for rows in row) for row in self.form[2])

    @cached_property
    def theta(self) -> tuple[tuple[Mat, ...], ...]:
        return tuple(tuple(self._mat(rows, self.form[0]) for rows in row) for row in self.form[3])

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(base={self.base!r}, m={self.m!r}, "
                f"rho={self.rho!r}, D={self.D!r}, theta={self.theta!r})")

    def delta(self, x: int, y: int) -> Mat:
        """Delta(e_x, e_y) = D(e_x, e_y) - rho(e_x * e_y), read off the kept _delta_rows."""
        return self._mat(_delta_rows(self)[x][y], self.base.form[0] * self.form[0])

    @classmethod
    def zero(cls, base: BolAlgebra, m: int) -> "Representation":
        return cls._of_form(base, m, _rows_form(base.n, m, [()] * m * (base.n + 2 * base.n ** 2)))


@_once_per_object
def _antisymmetry_failure(R: Representation) -> str | None:
    """None when the product of B, its ternary product and D are antisymmetric
    in their first two slots, else the error message of the first failing
    tuple (_antisymmetry_scan's, D's named by its (i, j)), checked in that order:
    B's two read off its kept ``algebra._antisymmetry``, D scanned by its rows.
    Kept on R, and written as None by adjoint_representation; the R, Delta-identity
    and cocycle scans and the constraint rows visit orbit representatives only
    when it is None."""
    for name, check in zip(("binary", "ternary"), _antisymmetry(R.base)):
        if not check.passed:
            return _antisymmetry_error(name, check.witness)
    check = _antisymmetry_scan("D", R.form[0], R.form[2], 3, R.m)
    return None if check.passed else _antisymmetry_error("D", check.witness[:2])


def _mat_rows(mats) -> list:
    """The nonzero rows ((k, p, q), ...) of each Mat of mats in turn, as _rows_form reads them."""
    return [tuple((k, x.numerator, x.denominator) for k, x in row)
            for mat in mats for row in mat.nonzero_rows]


def _rows_form(n: int, m: int, rows: list) -> tuple:
    """The form (D_R, rho, D, theta) of the maps with the rows of nonzeros ((k, p, q), ...)
    given (_integer_terms), m a map: rho's n maps, then D's and theta's, row by row."""
    D, rows = _integer_terms(rows)
    maps = tuple(tuple(rows[k * m:k * m + m]) for k in range(n + 2 * n * n))
    grid = lambda start: tuple(maps[start + i * n:start + i * n + n] for i in range(n))
    return D, maps[:n], grid(n), grid(n + n * n)


def _sparse_row(value, *parts) -> tuple:
    """The pairs (key, value(x)) at the nonzeros x of an int sum, key ascending; a
    part (s, start, step, terms) adds s * x at key start + step * k for each (k, x)
    in terms (all ints)."""
    acc = {}
    for s, start, step, terms in parts:
        for k, x in terms:
            key = start + step * k
            acc[key] = acc.get(key, 0) + s * x
    return tuple((k, value(x)) for k, x in sorted(acc.items()) if x)


@_once_per_object
def _delta_rows(R: Representation) -> tuple:
    """The kept integer form of Delta: [i][j] the rows of D(e_i, e_j) - sum_k c_ij^k
    rho(e_k) by their nonzeros times D_A * D_R, added up as ints."""
    DA, P, _ = R.base.form
    DR, rho, D, _ = R.form
    rng = range(R.base.n)

    def delta(i, j):
        return tuple(_sparse_row(int, (DA, 0, 1, D[i][j][r]),
                                 *((-c, 0, 1, rho[k][r]) for k, c in P[i][j]))
                     for r in range(R.m))
    return tuple(tuple(delta(i, j) for j in rng) for i in rng)


def _largest(rows) -> int:
    """The largest |x| over the pairs (k, x) of the term tuples in rows, 0 for none."""
    return max((abs(x) for row in rows for terms in row for _, x in terms), default=0)


def _slot_width(terms: int, scale: int, m: int, entry: int) -> int:
    """The least w with 2**(w-1) above terms * scale * m * entry**2, which bounds every entry
    of a sum of terms s * A or s * A @ B, |s| <= scale, of m x m matrices of ints <= entry."""
    return (terms * scale * m * entry * entry).bit_length() + 1


def _packed_map(rows: tuple, m: int, w: int) -> tuple:
    """An m x m int matrix (rows of nonzeros (l, x)) in signed w-bit slots: (A, cols, rows), A
    with (r, c) at slot r*m + c, cols its nonzero columns (l, column l at slots r*m), rows[l]
    at slots c, so A @ B is the sum of column l of A times row l of B (``_product``)."""
    A, cols, packed = 0, [0] * m, [0] * m
    for r, row in enumerate(rows):
        for l, x in row:
            packed[r] += x << (w * l)
            cols[l] += x << (w * m * r)
        A += packed[r] << (w * m * r)
    return A, tuple((l, col) for l, col in enumerate(cols) if col), tuple(packed)


def _unpack_signed(packed: int, w: int, size: int) -> list:
    """The size signed w-bit slots of packed, lowest first, if 2**(w-1) exceeds each |slot|."""
    half = 1 << (w - 1)
    packed += half * ((1 << (w * size)) - 1) // ((1 << w) - 1)  # slot + half: a w-bit digit
    return [(packed >> (w * k) & ((1 << w) - 1)) - half for k in range(size)]


def _product(a: tuple, b: tuple) -> int:
    """The packed A @ B of packed maps: column l of A times row l of B, summed over l."""
    rows, acc = b[2], 0
    for l, col in a[1]:
        acc += col * rows[l]
    return acc


def _derivation(left, grid, T, s: int, t: int):
    """The packed residual (x1, x2, y1, y2) -> s [left(x1,x2), grid(y1,y2)] - t (grid([x1,x2,y1],
    y2) + grid(y1, [x1,x2,y2])) of two grids of packed maps, [.,.,.] read off the form T."""
    def residual(x1, x2, y1, y2):
        a, b = left[x1][x2], grid[y1][y2]
        acc = s * (_product(a, b) - _product(b, a))
        for k, c in T[x1][x2][y1]:
            acc -= t * c * grid[k][y2][0]
        for k, c in T[x1][x2][y2]:
            acc -= t * c * grid[y1][k][0]
        return acc
    return residual


def _packed_scan(name: str, tuples, residual, w: int, m: int, denominator: int):
    """_scan of residual(*idx), an int of m * m signed w-bit slots that is 0 exactly when
    every slot is, read at a failure as row-major ints over denominator."""
    return _scan(name, tuples, lambda *idx, zero=zero_vec(m * m): _over(
        _unpack_signed(acc, w, m * m), denominator) if (acc := residual(*idx)) else zero)


@_once_per_object
def verify_representation(R: Representation) -> CheckReport:
    """Check (R1)-(R33) as exact matrix identities on basis tuples (once per R).

    The tuples are the orbit representatives of the antisymmetries when c,
    t and D are antisymmetric, and every tuple otherwise.

    Each residual, LHS - RHS times D_A * D_R**2, is one packed int: at most 3n + 3 terms
    (R21's), each |s| <= D_R * max(D_A, |c|) over the c of P and T, of maps whose entries
    are at most E, so every entry is at most (3n + 3) D_R max(D_A, |c|) m E**2 (``_slot_width``).
    """
    (DA, P, T), (DR, rho, D, theta), n, m = R.base.form, R.form, R.base.n, R.m
    w = _slot_width(3 * n + 3, DR * max(DA, _largest((*P, *itertools.chain(*T)))), m,
                    _largest((*rho, *itertools.chain(*D, *theta))))
    pack = lambda maps: tuple(_packed_map(rows, m, w) for rows in maps)
    rho, D, theta = pack(rho), tuple(map(pack, D)), tuple(map(pack, theta))

    def r21(x1, x2, y1):
        # [D(x1,x2), rho(y1)] - rho([x1,x2,y1]) + theta(y1, x1*x2) - rho(x1*x2) rho(y1)
        a, b = D[x1][x2], rho[y1]
        acc = DA * (_product(a, b) - _product(b, a))
        for k, c in T[x1][x2][y1]:
            acc -= DR * c * rho[k][0]
        for k, c in P[x1][x2]:
            acc += c * (DR * theta[y1][k][0] - _product(rho[k], b))
        return acc

    def r22(x1, y1, y2):
        # theta(x1, y1*y2) - rho(y1) theta(x1,y2) + rho(y2) theta(x1,y1)
        #   + (D(y1,y2) - rho(y1*y2)) rho(x1)
        acc = DA * (_product(rho[y2], theta[x1][y1]) - _product(rho[y1], theta[x1][y2])
                    + _product(D[y1][y2], rho[x1]))
        for k, c in P[y1][y2]:
            acc += c * (DR * theta[x1][k][0] - _product(rho[k], rho[x1]))
        return acc

    def r33(x1, y1, y2, y3):
        # theta(x1, [y1,y2,y3]) - theta(y2,y3) theta(x1,y1)
        #   + theta(y1,y3) theta(x1,y2) - D(y1,y2) theta(x1,y3)
        row = theta[x1]
        acc = DA * (_product(theta[y1][y3], row[y2]) - _product(theta[y2][y3], row[y1])
                    - _product(D[y1][y2], row[y3]))
        for k, c in T[y1][y2][y3]:
            acc += DR * c * row[k][0]
        return acc

    # With c, t and D antisymmetric, a residual changes sign when a grouped
    # pair is swapped: x1, x2 in R1, R21, R31 and R32, y1, y2 in R22, R31 and
    # R33.  theta has no symmetry, so R32 keeps y1, y2 free.
    grouped = _antisymmetry_failure(R) is None
    return CheckReport(tuple(
        _packed_scan(name, slot_tuples(n, sizes, grouped), residual, w, m, DA * DR * DR)
        for name, sizes, residual in (
            ("R1", (2,), lambda i, j: DA * DR * (D[i][j][0] + theta[i][j][0] - theta[j][i][0])),
            ("R21", (2, 1), r21), ("R22", (1, 2), r22),
            ("R31", (2, 2), _derivation(D, D, T, DA, DR)),
            ("R32", (2, 1, 1), _derivation(D, theta, T, DA, DR)), ("R33", (1, 2, 1), r33))))


def _module_of(base: BolAlgebra, m: int, form: tuple, at: int) -> Representation:
    """The module V of a split algebra B (+) V, read off its integer form (D, P, T): B = base
    at indices 0..n-1, u_b at at + b.  rho(x)u = x*u, D(x,y)u = [x,y,u] and theta(x,y)u =
    [u,x,y], each map rows at..at+m-1 of its images transposed, over the lowest denominator
    (``_integer_terms``), as the constructor would read the same matrices."""
    D, P, T = form
    rng, fiber = range(base.n), range(at, at + m)

    def rows(images):  # rows at..at+m-1 of the matrix whose column b is images[b]
        return _transposed_rows(len(P), images)[at:at + m]
    maps = [*(rows(P[x][at:at + m]) for x in rng),
            *(rows(T[x][y][at:at + m]) for x in rng for y in rng),
            *(rows([T[u][x][y] for u in fiber]) for x in rng for y in rng)]
    flat = [tuple((k, c, D) for k, c in row) for mat in maps for row in mat]
    return Representation._of_form(base, m, _rows_form(base.n, m, flat))


def _split_form(base_form: tuple, module_form: tuple, n: int, m: int, coords: Vec) -> tuple:
    """The form (D, P, T) of B (+)_(nu,omega) V by the product formulas of the ``extension``
    docstring: B of base_form at 0..n-1, u_b at n + b, (rho, D, theta) of module_form and
    (nu, omega) of the cochain coordinates coords.  B's entries are written at every args (B
    need not be antisymmetric), the cochain's (``_cochain_entries``) and the maps' after them
    with their twins, by ``algebra._entry_forms``; ``_module_of`` reads the module back."""
    (D, P, T), (DR, rho, DV, theta) = base_form, module_form
    binary, ternary = defaultdict(list), defaultdict(list)
    for part, arity, form in ((binary, 2, P), (ternary, 3, T)):
        for args, terms in _form_entries(D, form, arity):
            part[args] += terms
        for args, terms in _cochain_entries(n, m, coords, arity):
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
    return _entry_forms(n + m, ((2, binary.items(), False), (3, ternary.items(), False)))


def adjoint_representation(B: BolAlgebra) -> Representation:
    """Adjoint module V = B: rho(u)v = u*v, D(u,v)w = [u,v,w], theta(u,v)w = [w,u,v], the
    module of B's own form (D_R = D_A: every coefficient of B is in some map).  B passed
    B01 and B02, and D(x, y) is [x, y, .] by transposition, so it keeps a passing
    ``_antisymmetry_failure``."""
    _require_passed(verify_bol(B), "adjoint representation needs a verified Bol algebra")
    R = _module_of(B, B.n, B.form, 0)
    _antisymmetry_failure.keep(R, None)
    return R


def _null_extension(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> MaltsevAlgebra:
    """The split null extension M (+) V of an action rho, one m x m matrix per basis
    element, (a+u)(b+v) = ab + rho(a)v - rho(b)u: ``_split_form`` of M (at every args, as M
    is not yet verified), the module (rho, 0, 0) and the zero cochain.  The action is read
    once, by its nonzero rows, as the public constructor reads a module (``_mat_rows``)."""
    if len(rho) != M.n:
        raise ValueError(f"expected {M.n} action matrices, got {len(rho)}")
    n, m = M.n, rho[0].rows if rho else 0
    if any(mat.shape != (m, m) for mat in rho):
        raise ValueError("action matrices must share one square shape")
    module = _rows_form(n, m, _mat_rows(rho) + [()] * (2 * n * n * m))  # D = theta = 0
    return _of_form(MaltsevAlgebra, n + m,
                    _split_form(M.form, module, n, m, zero_vec(cochain_dim(n, m))), None)


def induce_from_maltsev(M: MaltsevAlgebra, rho: tuple[Mat, ...]) -> Representation:
    """Representation of the associated Bol algebra induced by a Maltsev action.

    M must be a Maltsev algebra and rho a Maltsev representation: its split
    null extension N (``_null_extension``) must pass verify_maltsev, else that
    report is raised.  The representation is the module of maltsev_to_bol(N), its
    D = (1/3)([rho(x), rho(y)] + 2 rho(x*y)) and theta = (1/3)(rho(x)rho(y)
    + 2 rho(y)rho(x) - rho(x*y)).
    """
    N = _null_extension(M, tuple(rho))
    B = maltsev_to_bol(M)
    _require_passed(verify_maltsev(N),
                    "action does not satisfy the Maltsev representation condition")
    return _module_of(B, N.n - M.n, maltsev_to_bol(N).form, M.n)


def check_delta_identity(R: Representation) -> CheckReport:
    """Verify the Delta commutator identity on basis quadruples (the orbit
    representatives when c, t and D are antisymmetric):

    [Delta(x1,x2), Delta(y1,y2)] = Delta([x1,x2,y1], y2)
                                   + Delta(y1, [x1,x2,y2])
                                   - Delta(y1*y2, x1*x2).
    """
    (DA, P, T), n, m = R.base.form, R.base.n, R.m
    DD, delta = DA * R.form[0], _delta_rows(R)  # Delta times DD, as ints
    # times (D_A * DD)**2: 2 + 2n + n**2 terms, |s| <= D_A**2, D_A DD |c| or DD |c|**2,
    # each at most max(D_A, DD |c|)**2 over the c of P and T
    w = _slot_width(2 + 2 * n + n * n, max(DA, DD * _largest((*P, *itertools.chain(*T)))) ** 2,
                    m, _largest(itertools.chain(*delta)))
    delta = tuple(tuple(_packed_map(rows, m, w) for rows in row) for row in delta)
    derivation = _derivation(delta, delta, T, DA * DA, DA * DD)

    def residual(x1, x2, y1, y2):  # the derivation terms, then Delta(y1*y2, x1*x2)
        acc = derivation(x1, x2, y1, y2)
        for i, c in P[y1][y2]:
            for j, d in P[x1][x2]:
                acc += DD * c * d * delta[i][j][0]
        return acc

    # With c, t and D antisymmetric so is Delta, and the residual changes sign
    # when x1, x2 or y1, y2 are swapped.
    return CheckReport((_packed_scan(
        "delta-identity", slot_tuples(n, (2, 2), _antisymmetry_failure(R) is None),
        residual, w, m, (DA * DD) ** 2),))


@record
class PseudoderivationData:
    """A linear map f: B -> V (m x n matrix) with companion chi in V."""

    f: Mat
    chi: Vec

    @classmethod
    def zero(cls, n: int, m: int) -> "PseudoderivationData":
        return cls(Mat.zeros(m, n), zero_vec(m))


def _coboundary_coords(R: Representation, p: PseudoderivationData) -> Vec:
    """The coboundary of (f, chi) in cochain coordinates: the kept _coboundary_rows applied
    to f's columns, then chi.  A float in f or chi raises TypeError; a nonzero module whose
    c, t or D is not antisymmetric raises the ValueError of _coboundary_rows."""
    n, m = R.base.n, R.m
    if p.f.shape != (m, n):
        raise ValueError(f"pseudoderivation map must be {m}x{n}, got {p.f.shape}")
    if len(p.chi) != m:
        raise ValueError(f"companion must live in the {m}-dim module")
    params = [_exact(x) for j in range(n) for x in p.f.col(j)] + [_exact(x) for x in p.chi]
    return tuple(sum((x * params[k] for k, x in row), Fraction(0)) for row in _coboundary_rows(R))


def coboundary_tensors(R: Representation, p: PseudoderivationData):
    """Raw (nu, omega) tensors of the coboundary generated by (f, chi):

    nu(x1,x2)       = rho(x1) f(x2) - rho(x2) f(x1)
                      + Delta(x1,x2)(chi) - f(x1*x2)
    omega(x1,x2,x3) = theta(x2,x3) f(x1) - theta(x1,x3) f(x2)
                      + D(x1,x2) f(x3) - f([x1,x2,x3])

    Returned as nu[a][i][j] and omega[a][i][j][k] nested tuples; raises as _coboundary_coords.
    """
    coords, n, m = _coboundary_coords(R, p), R.base.n, R.m
    return tuple(_dense(n, m, arity, _cochain_entries(n, m, coords, arity)) for arity in (2, 3))


def _cochain_entries(n: int, m: int, coords: Vec, arity: int) -> list:
    """The entries (args, ((a, p, q), ...)) of nu (arity 2) or omega (3) at the nonzero
    canonical cochain coordinates (Fractions; the m of args[k] start at k m): each i<j
    one, then its (j, i, ...) twin, every p negated."""
    out = []
    for k, args in enumerate(entry_args(n, 2) + entry_args(n, 3)):
        terms = tuple((a, x.numerator, x.denominator)
                      for a, x in enumerate(coords[k * m:k * m + m]) if x)
        if terms and len(args) == arity:
            out += (args, terms), ((args[1], args[0]) + args[2:],
                                   tuple((a, -p, q) for a, p, q in terms))
    return out


def is_pseudoderivation(R: Representation, p: PseudoderivationData) -> bool:
    """True iff the coboundary of (f, chi) is zero; raises as _coboundary_coords does."""
    return not any(_coboundary_coords(R, p))


def pseudoderivation_params(n: int, m: int) -> int:
    return n * m + m


def unpack_params(n: int, m: int, params: Vec) -> PseudoderivationData:
    if len(params) != pseudoderivation_params(n, m):
        raise ValueError("parameter vector has wrong length")
    f = Mat.from_cols([params[j * m:(j + 1) * m] for j in range(n)], rows=m)
    return PseudoderivationData(f, tuple(params[n * m:]))


def cochain_dim(n: int, m: int) -> int:
    """Dimension of the coupled cochain space: n(n-1)/2 * m * (1 + n)."""
    return n * (n - 1) // 2 * m * (1 + n)


@_once_per_object
def _coboundary_rows(R: Representation) -> tuple:
    """The kept sparse rows of (f, chi) -> (nu, omega), one per cochain coordinate.

    A row holds the nonzero (parameter, coefficient) pairs of one module
    coordinate a of nu(args) or omega(args), parameter ascending, added up in
    ints over D_A * D_R from the formulas of coboundary_tensors: parameter j*m
    + b is entry b of f(e_j), and n*m + b is entry b of chi.  The rows are
    those of the i<j tuples, in the canonical cochain order.  On a nonzero
    module the map is antisymmetric exactly when c, t and D are (then so is
    Delta = D - rho(x*y)); otherwise ValueError gives the first failure of
    ``_antisymmetry_failure``, as _constraint_rows does.  The zero module has
    no rows to check.
    """
    B = R.base
    n, m = B.n, R.m
    failure = _antisymmetry_failure(R)
    if failure and m:
        raise ValueError(failure)
    DA, P, T = B.form
    DR, rho, D, theta = R.form
    over = partial(Fraction, denominator=DA * DR)

    def nu(x1, x2, a):
        # rho(x1) f(x2) - rho(x2) f(x1) + (D(x1,x2) - rho(x1*x2))(chi) - f(x1*x2)
        return _sparse_row(over, (DA, x2 * m, 1, rho[x1][a]), (-DA, x1 * m, 1, rho[x2][a]),
                           (DA, n * m, 1, D[x1][x2][a]), (-DR, a, m, P[x1][x2]),
                           *((-c, n * m, 1, rho[k][a]) for k, c in P[x1][x2]))

    def omega(x1, x2, x3, a):
        # theta(x2,x3) f(x1) - theta(x1,x3) f(x2) + D(x1,x2) f(x3) - f([x1,x2,x3])
        return _sparse_row(over, (DA, x1 * m, 1, theta[x2][x3][a]), (-DR, a, m, T[x1][x2][x3]),
                           (-DA, x2 * m, 1, theta[x1][x3][a]), (DA, x3 * m, 1, D[x1][x2][a]))

    return tuple(fn(*args, a) for arity, fn in ((2, nu), (3, omega))
                 for args in entry_args(n, arity) for a in range(m))


def coboundary_matrix(R: Representation) -> Mat:
    """Matrix of (f, chi) -> (nu, omega) in cochain coordinates, one column
    per parameter: the kept _coboundary_rows, so a nonzero module whose c,
    t or D is not antisymmetric raises ValueError."""
    return Mat._of_rows(pseudoderivation_params(R.base.n, R.m), _coboundary_rows(R))


def pseudoderivation_space(R: Representation) -> list[PseudoderivationData]:
    """Deterministic basis of all (f, chi) with vanishing coboundary.

    This is the kernel of ``coboundary_matrix``; the parameter order is
    f's columns (module coordinate innermost) followed by chi.
    """
    n, m = R.base.n, R.m
    return [unpack_params(n, m, v) for v in kernel_basis(coboundary_matrix(R))]
