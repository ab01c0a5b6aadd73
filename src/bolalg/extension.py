"""Abelian split extensions of a Bol algebra by a module.

An extension bundle consists of a Bol algebra hat(B) of dimension n+m,
the base algebra B of dimension n, an injection i: V -> hat(B), a
projection p: hat(B) -> B with p o i = 0, and a section sigma with
p o sigma = id.  V sits inside hat(B) as an abelian ideal: products of
two i-images vanish, and so does every ternary product with at least two
arguments from i(V).

A verified representation (rho, D, theta) and a (2,3)-cocycle (nu, omega)
produce the twisted product hat(B) = B (+) V with

  (x1+u1) * (x2+u2)        = x1*x2 + nu(x1,x2) + rho(x1)u2 - rho(x2)u1
  [x1+u1, x2+u2, x3+u3]    = [x1,x2,x3] + omega(x1,x2,x3) + D(x1,x2)u3
                             - theta(x1,x3)u2 + theta(x2,x3)u1

which is again a Bol algebra; with nu = omega = 0 this is the semidirect
product.  Conversely every extension induces, through its section,

  rho(x)u        = sigma(x) * i(u)          (pulled back along i)
  D(x1,x2)u      = [sigma x1, sigma x2, i u]
  theta(x1,x2)u  = [i u, sigma x1, sigma x2]
  nu(x1,x2)      = sigma(x1)*sigma(x2) - sigma(x1*x2)
  omega(x1,x2,x3)= [sigma x1, sigma x2, sigma x3] - sigma([x1,x2,x3])

The representation does not depend on the section; the cocycle moves by a
zero-companion coboundary when the section moves.

hat(B) is written by the one split-algebra writer ``representation._split_form``,
by the formulas above, and its i, p and sigma by rows; both induced objects are
read off its form in the frame [sigma | i] (``_in_frame``), written from the rows
of sigma and i.  Every scan and read here adds up
ints: the integer forms of hat(B) and B on the integer columns of i, p, sigma,
the frame, the splitting and phi, over one common denominator per residual or
value (``algebra._over``).

Two extensions over identical induced representations are equivalent --
there is a homomorphism phi with phi o i1 = i2 and p2 o phi = p1 -- iff
the difference of their induced cocycles admits a coboundary witness with
companion zero; any such phi is forced to be (x+u) -> x + f(x) + u in
section coordinates.  When the difference is a coboundary only with a
nonzero companion that no pseudoderivation realizes, the extensions are
reported as cohomologous but without a certified equivalence map.
"""

from __future__ import annotations

import itertools

from .algebra import (
    BolAlgebra,
    CheckReport,
    ConditionCheck,
    _add_form,
    _add_terms,
    _integer_cols,
    _of_form,
    _once_per_object,
    _over,
    _require_passed,
    _scan,
    entry_args,
    slot_tuples,
    verify_bol,
)
from .cohomology import CochainPair, _entry_coords, is_cocycle, solve_coboundary
from .linalg import _ONE, Mat, image_rank, inverse, record, replace
from .representation import Representation, _module_of, _split_form, verify_representation


class InvalidExtensionError(ValueError):
    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


@record
class AbelianExtension:
    base: BolAlgebra
    m: int
    hat: BolAlgebra
    i: Mat      # (n+m) x m
    p: Mat      # n x (n+m)
    sigma: Mat  # (n+m) x n

    def __post_init__(self):
        n, m, N = self.base.n, self.m, self.hat.n
        if N != n + m:
            raise InvalidExtensionError(
                f"hat dimension {N} != base {n} + fiber {m}")
        if self.i.shape != (N, m):
            raise InvalidExtensionError(f"injection must be {N}x{m}, got {self.i.shape}")
        if self.p.shape != (n, N):
            raise InvalidExtensionError(f"projection must be {n}x{N}, got {self.p.shape}")
        if self.sigma.shape != (N, n):
            raise InvalidExtensionError(f"section must be {N}x{n}, got {self.sigma.shape}")


@_once_per_object
def validate_extension(E: AbelianExtension) -> CheckReport:
    """Check all extension invariants; failure is data with a witness.

    The report is kept on E, so each bundle is validated once."""
    base, hat, m = E.base, E.hat, E.m
    n, N = base.n, hat.n
    checks: list[ConditionCheck] = []
    for name, A in (("base-axioms", base), ("hat-axioms", hat)):
        f = verify_bol(A).first_failure()
        checks.append(ConditionCheck(name, f is None, None if f is None else (f.name,) + f.witness,
                                     None if f is None else f.residual))

    pi = E.p @ E.i
    exact = pi.is_zero() and image_rank(E.i) == m and image_rank(E.p) == n
    checks.append(ConditionCheck("exactness", exact,
                                 None, None if exact else pi.entries))

    section_res = E.p @ E.sigma - Mat.identity(n)
    checks.append(ConditionCheck("section", section_res.is_zero(),
                                 None,
                                 None if section_res.is_zero() else section_res.entries))

    # When both algebras pass their axioms, each residual below changes sign
    # when its first two arguments are swapped, so the representatives find
    # the first failure.
    grouped = checks[0].passed and checks[1].passed
    hat_form, base_form, p_form = hat.form, base.form, _integer_cols(E.p)
    (Dh, Ph, Th), (Di, i_cols) = hat_form, _integer_cols(E.i)

    def image(form, slots, degree):  # form(slots) in hat(B), of degree ``degree`` in i
        return _over(_add_form([0] * N, 1, form, *slots), Dh * Di ** degree)

    # i is a homomorphism from V with trivial operations: all products of
    # i-images must vanish in hat(B).
    checks.append(_scan("i-homomorphism", _binary_then_ternary(m, grouped),
                        lambda kind, *args: image(Ph if kind == "binary" else Th,
                                                  [i_cols[a] for a in args], len(args))))
    checks.append(_scan("p-homomorphism", _binary_then_ternary(N, grouped),
                        lambda kind, *args: _over(*_morphism_defect(
                            hat_form, base_form, p_form, args))))

    # abelian ideal: ternary products with two i-arguments vanish for any
    # third hat argument (the pure binary case sits in i-homomorphism).
    placements = {"[i,i,.]": lambda u, v, w: (u, v, w),
                  "[i,.,i]": lambda u, v, w: (u, w, v),
                  "[.,i,i]": lambda u, v, w: (w, u, v)}
    checks.append(_scan(
        "abelian-ideal",
        ((name, a, b, w) for a, b in itertools.product(range(m), repeat=2)
         for w in range(N) for name in placements),
        lambda name, a, b, w: image(Th, placements[name](i_cols[a], i_cols[b], ((w, 1),)), 2)))

    return CheckReport(tuple(checks))


def _binary_then_ternary(dim: int, grouped: bool):
    """Tagged argument tuples ("binary", x, y), then ("ternary", x, y, z);
    with ``grouped`` only those with x<y."""
    return itertools.chain(
        (("binary",) + xy for xy in slot_tuples(dim, (2,), grouped)),
        (("ternary",) + xyz for xyz in slot_tuples(dim, (2, 1), grouped)))


def _morphism_defect(source: tuple, target: tuple, f: tuple, args: tuple) -> tuple:
    """(acc, denominator), acc a list of ints, with acc / denominator = f(op(e_args))
    - op(f e_args): op the product (two args) or triple (three) of the algebras
    given by their stored forms, f by its _integer_cols."""
    (DA, PA, TA), (DB, PB, TB), (Df, cols) = source, target, f
    k = len(args)
    image = PA[args[0]][args[1]] if k == 2 else TA[args[0]][args[1]][args[2]]
    acc = [0] * len(PB)
    for a, c in image:
        _add_terms(acc, DB * Df ** (k - 1) * c, cols[a])
    _add_form(acc, -DA, PB if k == 2 else TB, *(cols[x] for x in args))
    return acc, DA * DB * Df ** k


@_once_per_object
def _require_valid(E: AbelianExtension) -> None:
    """Raise InvalidExtensionError unless E validates.

    Kept on E like the report, so a valid bundle reads it once; a raising
    call keeps nothing, so an invalid bundle raises on every call."""
    report = validate_extension(E)
    if not report.passed:
        raise InvalidExtensionError(
            f"invalid extension: {report.first_failure().name} fails", report)


def twisted_product(R: Representation, c: CochainPair) -> AbelianExtension:
    """The extension B (+)_(nu,omega) V with its canonical maps.

    Preconditions enforced: the representation verifies and the pair is a
    cocycle (rejected with the failing condition's witness otherwise).
    """
    _require_passed(verify_representation(R),
                    "twisted product needs a verified representation")
    _require_passed(is_cocycle(R, c), "twisted product needs a cocycle")
    B, m = R.base, R.m
    n, N = B.n, B.n + m

    def block(rows, cols, shift):
        """rows x cols block of the N x N identity, by rows: 1 where row = col + shift."""
        return Mat._of_rows(cols, tuple(((r - shift, _ONE),) if 0 <= r - shift < cols else ()
                                        for r in range(rows)))

    hat = _of_form(BolAlgebra, N, _split_form(B.form, R.form, n, m, c.coords()), None)
    return AbelianExtension(B, m, hat, block(N, m, n), block(n, N, 0), block(N, n, 0))


@_once_per_object
def _frame(E: AbelianExtension) -> Mat:
    """[sigma | i], kept on E and written by rows: sigma's row r, then i's shifted by n."""
    shifted = (tuple((E.base.n + a, x) for a, x in row) for row in E.i.nonzero_rows)
    return Mat._of_rows(E.hat.n, tuple(s + u for s, u in zip(E.sigma.nonzero_rows, shifted)))


@_once_per_object
def _splitting(E: AbelianExtension) -> Mat:
    """Inverse of the frame [sigma | i]: rows give (base, fiber) coordinates in hat(B).

    Kept on E, so each bundle is inverted once.  Callers validate E first, and then
    sigma x + i u = 0 gives x = p(sigma x + i u) = 0 and u = 0 (rank i = m): a singular
    frame is a library fault, an AssertionError on every call."""
    try:
        return inverse(_frame(E))
    except ValueError as exc:
        raise AssertionError("section and injection do not split hat(B)") from exc


@_once_per_object
def _in_frame(E: AbelianExtension) -> tuple:
    """The kept integer form (D, P, T) of hat(B) in the basis [sigma | i] (``_frame``),
    read through ``_splitting``: only the i<j entries with at most one fiber argument and
    their swaps (hat(B) passes its axioms); the others vanish in a valid bundle."""
    n, N = E.base.n, E.hat.n
    (Dh, Ph, Th), (Df, f), (Ds, s) = (E.hat.form, _integer_cols(_frame(E)),
                                      _integer_cols(_splitting(E)))
    P, T = [[()] * N for _ in range(N)], [[[()] * N for _ in range(N)] for _ in range(N)]

    def read(form, *args):  # the entry at args, times Dh Df**3 Ds, and the one at its swap
        acc, out = _add_form([0] * N, Df ** (3 - len(args)), form, *(f[a] for a in args)), [0] * N
        for k, x in enumerate(acc):
            if x:
                _add_terms(out, x, s[k])
        return (tuple((k, x) for k, x in enumerate(out) if x),
                tuple((k, -x) for k, x in enumerate(out) if x))
    for x in range(n):  # x < y, so only y or z can be a fiber index
        for y in range(x + 1, N):
            P[x][y], P[y][x] = read(Ph, x, y)
            for z in range(n if y >= n else N):
                T[x][y][z], T[y][x][z] = read(Th, x, y, z)
    return Dh * Df ** 3 * Ds, P, T


def induced_representation(E: AbelianExtension) -> Representation:
    """(rho, D, theta) read off hat(B) through the section: the module at indices n.. of
    ``_in_frame(E)``; in a valid bundle each image lands in the fiber (else AssertionError)."""
    _require_valid(E)
    n, (_, P, T) = E.base.n, _in_frame(E)
    fiber, pairs = range(n, E.hat.n), list(itertools.product(range(n), repeat=2))
    for what, images in (("rho image", (P[x][u] for x in range(n) for u in fiber)),
                         ("D image", (T[x][y][u] for x, y in pairs for u in fiber)),
                         ("theta image", (T[u][x][y] for x, y in pairs for u in fiber))):
        if any(image[:1] and image[0][0] < n for image in images):  # k ascending
            raise AssertionError(
                f"{what} does not land in the fiber; extension data is inconsistent")
    return _module_of(E.base, E.m, _in_frame(E), n)


def induced_cocycle(E: AbelianExtension) -> CochainPair:
    """(nu, omega) read off hat(B) through the section, at the i<j tuples: the fiber
    parts of the entries of ``_in_frame(E)`` at base arguments (``_entry_coords``).

    In a valid bundle each base part is B's, else AssertionError.  Both algebras are
    verified, so each value changes sign when x, y are swapped and vanishes at x = y:
    the first failure in lexicographic order has x < y, and nu is read before omega."""
    _require_valid(E)
    (D, P, T), (DB, PB, TB), n = _in_frame(E), E.base.form, E.base.n

    def value(what, framed, own):  # the fiber part of framed, whose base part must be own
        if tuple((k, x * DB) for k, x in framed if k < n) != tuple((k, c * D) for k, c in own):
            raise AssertionError(
                f"{what} does not land in the fiber; extension data is inconsistent")
        return tuple((k - n, x, D) for k, x in framed if k >= n)
    return CochainPair._of_coords(E.base, E.m, _entry_coords(n, E.m, (
        (((x, y), value("nu value", P[x][y], PB[x][y])) for x, y in entry_args(n, 2)),
        (((x, y, z), value("omega value", T[x][y][z], TB[x][y][z]))
         for x, y, z in entry_args(n, 3)))))


@record
class ExtensionEquivalence:
    """Result of the equivalence test.

    status is one of:
      "equivalent"               -- phi constructed and verified
      "different-representation" -- induced representations disagree
      "not-cohomologous"         -- cocycle difference is no coboundary
      "cohomologous-uncertified" -- coboundary only with a companion that
                                    no pseudoderivation can absorb, so no
                                    equivalence map of the required shape
                                    exists
    """

    status: str
    cohomologous: bool
    phi: Mat | None

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


def _check_phi(E1: AbelianExtension, E2: AbelianExtension, phi: Mat) -> None:
    """phi must be a hat homomorphism commuting with both short sequences."""
    forms = E1.hat.form, E2.hat.form, _integer_cols(phi)
    # both hats are verified, so each law changes sign when x, y are swapped
    for kind, *args in _binary_then_ternary(E1.hat.n, True):
        if any(_morphism_defect(*forms, args)[0]):
            raise AssertionError(f"constructed phi fails the {kind} homomorphism law")
    if phi @ E1.i != E2.i:
        raise AssertionError("constructed phi does not commute with the injections")
    if E2.p @ phi != E1.p:
        raise AssertionError("constructed phi does not commute with the projections")


def extensions_equivalent(E1: AbelianExtension, E2: AbelianExtension
                          ) -> ExtensionEquivalence:
    """Decide equivalence of two extensions of the same B by the same V.

    Both are normalized to twisted-product form through their sections;
    unequal induced representations settle the question immediately.
    Otherwise the difference of induced cocycles is tested: a witness with
    zero companion yields phi(x+u) = x + f(x) + u transported back to the
    original bases and verified on the nose.
    """
    if E1.base != E2.base:
        raise ValueError("extensions have different base algebras")
    if E1.m != E2.m:
        raise ValueError("extensions have different fiber dimensions")
    _require_valid(E1)
    _require_valid(E2)

    R1 = induced_representation(E1)
    R2 = induced_representation(E2)
    if R1 != R2:
        return ExtensionEquivalence("different-representation", False, None)

    c1 = induced_cocycle(E1)
    c2 = induced_cocycle(E2)
    diff = c1 - c2

    free_wit = solve_coboundary(R1, diff, companion="free")
    if free_wit is None:
        return ExtensionEquivalence("not-cohomologous", False, None)

    zero_wit = solve_coboundary(R1, diff, companion="none")
    if zero_wit is None:
        return ExtensionEquivalence("cohomologous-uncertified", True, None)

    # x + u -> x + f(x) + u in section coordinates: the frame of E2 with
    # section sigma2 + i2 f, after the splitting of E1
    phi = _frame(perturb_section(E2, zero_wit.f)) @ _splitting(E1)
    _check_phi(E1, E2, phi)
    return ExtensionEquivalence("equivalent", True, phi)


def perturb_section(E: AbelianExtension, g: Mat) -> AbelianExtension:
    """Replace sigma by sigma + i o g for a linear map g: B -> V (m x n)."""
    if g.shape != (E.m, E.base.n):
        raise ValueError(f"section perturbation must be {E.m}x{E.base.n}")
    return replace(E, sigma=E.sigma + E.i @ g)


def semidirect_product(R: Representation) -> AbelianExtension:
    """Twisted product along the zero cocycle."""
    return twisted_product(R, CochainPair.zero(R.base, R.m))
