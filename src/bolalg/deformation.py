"""Infinitesimal and first-order deformations of a Bol algebra.

A pair (nu, omega) of binary/ternary maps on B deforms the operations to

    x *_t y       = x*y + t nu(x,y)
    [x, y, z]_t   = [x,y,z] + t omega(x,y,z)

and generates a t-parameter infinitesimal deformation exactly when

  (i)  (*, nu, omega) defines a Bol algebra of deformation type, and
  (ii) (nu, omega) is a (2,3)-cocycle for the adjoint representation.

"Deformation type" means: nu and mu antisymmetric, omega antisymmetric in
slots 1 and 2, the cyclic sum of omega vanishing, and

  (B2') omega(x1,x2,nu(y1,y2)) = nu(omega(x1,x2,y1),y2)
          + nu(y1,omega(x1,x2,y2)) + omega(y1,y2,nu(x1,x2))
          - nu(nu(y1,y2),mu(x1,x2)) - nu(mu(y1,y2),nu(x1,x2))
          - mu(nu(y1,y2),nu(x1,x2))
  (B3') omega(x1,x2,omega(y1,y2,y3)) = omega(omega(x1,x2,y1),y2,y3)
          + omega(y1,omega(x1,x2,y2),y3) + omega(y1,y2,omega(x1,x2,y3)).

Each deformed axiom is polynomial in t of degree at most 3, so the
predicate route can be cross-checked by substituting the four sample
values t in {1, 2, 3, 5} and running the full axiom verifier: vanishing
at four points forces a cubic to vanish identically.

A first-order formal deformation additionally satisfies the degree-2
closure equations -- which are (B2') and (B3') with mu = * -- and the
degree-3 condition o3: nu(nu(y1,y2), nu(x1,x2)) = 0.

Two first-order data are equivalent when a linear map phi: B -> B solves

  (F1' - F1)(x1,x2)    = x1*phi(x2) - x2*phi(x1) - phi(x1*x2)
  (G1' - G1)(x1,x2,x3) = [x1,x2,phi(x3)] + [phi(x1),x2,x3]
                         - [phi(x2),x1,x3] - phi([x1,x2,x3])

i.e. exactly when their difference is an adjoint coboundary with zero
companion.  The cochain route (coboundary with companion restricted to
the joint kernel of Delta) is computed alongside and must agree.

The scans add up ints through ``algebra``'s, on one integer form of (mu,
nu, omega) over one lcm D: a datum's, kept on it, is written from the integer
entries of the base's stored form and of the pair (``_datum_forms``), and only
a raw candidate's is read off its tensors, once per check.  (B01')-(B3') are the Bol axioms
B01-B3 of (nu, omega), with mu's antisymmetry besides and mu entering B2's
cubic term: ``_primed_axioms`` scans the three antisymmetries and hands them,
with the forms, to the one assembly behind verify_bol, ``algebra._bol_scans``;
check_first_order_formal takes (B2') and (B3') from it without the
antisymmetry scans, which its datum passes by construction.  o3 reads nu
from the datum's form.  B_t is written from the base's form and the datum's,
added up in ints, so a datum's checks build no tensor.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .algebra import (
    AxiomReport,
    BolAlgebra,
    CheckReport,
    _add_form,
    _antisymmetry_scan,
    _bol_scans,
    _coefficients,
    _entry_forms,
    _form_entries,
    _of_form,
    _once_per_object,
    _over,
    _require_passed,
    _scan,
    bilinear_eval,
    slot_tuples,
    trilinear_eval,
    verify_bol,
)
from .cohomology import CochainPair, is_cocycle, solve_coboundary
from .linalg import Mat, _exact, record
from .representation import PseudoderivationData, _cochain_entries, adjoint_representation

# bilinear_eval and trilinear_eval (nu and omega on Vec slots) are re-exported: no
# scan calls them, and the benchmark's tracer (perfbench/spans.py) rebinds them here.
__all__ = ["DeformationTypeCandidate", "DeformationDatum", "is_deformation_type",
           "deformed_algebra", "InfinitesimalDeformationReport", "FirstOrderEquivalence",
           "generates_infinitesimal_deformation", "check_first_order_formal",
           "first_order_equivalent", "bilinear_eval", "trilinear_eval"]

_SAMPLE_VALUES = (Fraction(1), Fraction(2), Fraction(3), Fraction(5))


@record
class DeformationTypeCandidate:
    """Raw (mu, nu, omega) tensors; is_deformation_type decides everything."""

    n: int
    mu: tuple     # mu[k][i][j]
    nu: tuple     # nu[k][i][j]
    omega: tuple  # omega[l][i][j][k]


@record
class DeformationDatum:
    """First-order data (F1, G1): a cochain pair with adjoint coefficients."""

    base: BolAlgebra
    pair: CochainPair

    def __post_init__(self):
        if self.pair.base != self.base:
            raise ValueError("deformation pair must live over its base algebra")
        if self.pair.m != self.base.n:
            raise ValueError("deformation coefficients must be adjoint (V = B)")


def _candidate_forms(d: DeformationTypeCandidate) -> tuple:
    """The integer form (D, mu, nu, omega) of d, over one lcm D of their denominators."""
    n = d.n
    return _entry_forms(n, ((2, _coefficients("mu", d.mu, n, n, 2), False),
                            (2, _coefficients("nu", d.nu, n, n, 2), False),
                            (3, _coefficients("omega", d.omega, n, n, 3), False)))


@_once_per_object
def _datum_forms(d: DeformationDatum) -> tuple:
    """The kept integer form (D, mu, nu, omega) of (*, nu, omega), as _candidate_forms
    of the tensors, written from the entries of the base's stored form and of the pair,
    each at every args."""
    (D, P, _), n, coords = d.base.form, d.base.n, d.pair.coords()
    return _entry_forms(n, ((2, _form_entries(D, P, 2), False), *(
        (arity, _cochain_entries(n, n, coords, arity), False) for arity in (2, 3))))


def _primed_axioms(forms: tuple, antisymmetry: bool) -> tuple:
    """(B01')-(B03') if ``antisymmetry``, then (B1')-(B3'), of an integer form (D, mu,
    nu, omega): the Bol-axiom scans of (nu, omega), B2's term of degree 3,
    nu(nu(y1,y2), nu(x1,x2)), replaced by nu(nu_y, mu(x1,x2)) + nu(mu(y1,y2), nu_x)
    + mu(nu_y, nu_x).  Without the antisymmetry scans the forms must be antisymmetric:
    (B1')-(B3') visit the orbit representatives."""
    D, MU, NU, OM = forms
    checks = tuple(_antisymmetry_scan(name, D, form, arity) for name, form, arity in (
        ("B01'", NU, 2), ("B02'", MU, 2), ("B03'", OM, 3))) if antisymmetry else ()
    return _bol_scans(("B1'", "B2'", "B3'"), D, checks, NU, OM,
                      ((NU, NU, MU), (MU, NU, NU), (NU, MU, NU)))


def is_deformation_type(d: DeformationTypeCandidate) -> CheckReport:
    """Check (B01')-(B03') tensor-wise and (B1'), (B2'), (B3') on basis tuples."""
    return CheckReport(_primed_axioms(_candidate_forms(d), True))


def deformed_algebra(d: DeformationDatum, t: Fraction) -> BolAlgebra:
    """The algebra B_t with operations *_t and [ , , ]_t at a sample t.

    Its integer form is written from the nonzeros of the base's integer form and
    of the datum's nu and omega (``_datum_forms``), added up in ints at every args,
    since the base need not be antisymmetric; no dense tensor is read or built."""
    t, (D, _, T), (E, MU, NU, OM) = _exact(t), d.base.form, _datum_forms(d)
    a, b, e = t.numerator, t.denominator, E * t.denominator
    parts = []  # *_t = (b mu + a nu) / e and [,,]_t = (e T + D a omega) / (D e)
    for arity, q, *scaled in ((2, e, (b, MU), (a, NU)), (3, D * e, (e, T), (D * a, OM))):
        sums = defaultdict(dict)  # args -> {k: numerator over q}
        for s, form in scaled:
            for args, terms in _form_entries(q, form, arity):
                row = sums[args]
                for k, c, _ in terms:
                    row[k] = row.get(k, 0) + s * c
        parts.append((arity, [(args, tuple((k, c, q) for k, c in sorted(row.items()) if c))
                              for args, row in sums.items()], False))
    return _of_form(BolAlgebra, d.base.n, _entry_forms(d.base.n, parts), d.base.basis_names)


@record
class InfinitesimalDeformationReport:
    """Predicate route, t-sampling route, and their agreement."""

    deformation_type: CheckReport
    cocycle: CheckReport
    sampling: tuple[tuple[Fraction, AxiomReport], ...]

    @property
    def passed(self) -> bool:
        return self.deformation_type.passed and self.cocycle.passed

    @property
    def sampling_passed(self) -> bool:
        return all(rep.passed for _, rep in self.sampling)

    @property
    def routes_agree(self) -> bool:
        return self.passed == self.sampling_passed


def generates_infinitesimal_deformation(d: DeformationDatum
                                        ) -> InfinitesimalDeformationReport:
    """Decide whether (nu, omega) generates a t-parameter deformation.

    Predicate route: deformation type with mu = * plus the adjoint cocycle
    conditions.  Sampling route: verify B_t for t in {1,2,3,5}; every
    deformed axiom has degree <= 3 in t, so the two routes must agree,
    and the report exposes both.
    """
    base, pair = d.base, d.pair
    _require_passed(verify_bol(base), "deformation base must be a Bol algebra")
    type_report = CheckReport(_primed_axioms(_datum_forms(d), True))
    cocycle_report = is_cocycle(adjoint_representation(base), pair)
    sampling = tuple((t, verify_bol(deformed_algebra(d, t))) for t in _SAMPLE_VALUES)
    return InfinitesimalDeformationReport(type_report, cocycle_report, sampling)


def check_first_order_formal(d: DeformationDatum) -> CheckReport:
    """Closure equations for (f_t, g_t) = (* + F1 t, [,,] + G1 t).

    Degree 1 gives the adjoint cocycle conditions CC1-CC3, degree 2 gives
    (B2') and (B3') with mu = *, and degree 3 gives o3 = 0 with
    o3 = F1(F1(y1,y2), F1(x1,x2)).  Passing everything here implies
    generates_infinitesimal_deformation; the converse can fail.
    """
    base = d.base
    _require_passed(verify_bol(base), "deformation base must be a Bol algebra")
    cocycle_report = is_cocycle(adjoint_representation(base), d.pair)
    D, _, NU, _ = forms = _datum_forms(d)
    # The verified base makes mu = * antisymmetric and a CochainPair is
    # antisymmetric by construction, so (B2'), (B3') and o3 change sign when
    # x1, x2 or y1, y2 are swapped: the representatives find the first failure.
    # (B1'), which the assembly runs first, is no closure equation and is left
    # out.  o3 has degree 3 in the integer form.
    return CheckReport(cocycle_report.checks + _primed_axioms(forms, False)[1:] + (
        _scan("o3", slot_tuples(base.n, (2, 2)), lambda x1, x2, y1, y2: _over(
            _add_form([0] * base.n, 1, NU, NU[y1][y2], NU[x1][x2]), D ** 3)),))


@record
class FirstOrderEquivalence:
    """Outcome of the first-order equivalence test with both routes."""

    equivalent: bool
    phi: Mat | None
    cochain_route: bool
    cochain_witness: PseudoderivationData | None

    @property
    def routes_agree(self) -> bool:
        return self.equivalent == self.cochain_route


def first_order_equivalent(base: BolAlgebra, d1: DeformationDatum,
                           d2: DeformationDatum) -> FirstOrderEquivalence:
    """Solve the linear system for phi; cross-check via the cochain route.

    The direct route solves the two displayed equations for the n^2
    entries of phi, which is the zero-companion coboundary system for the
    difference (F1'-F1, G1'-G1) over the adjoint representation.  The
    cochain route solves the same difference as a coboundary with
    companion constrained to the joint kernel of Delta; the two always
    agree mathematically, and any disagreement is surfaced rather than
    hidden.
    """
    if d1.base != base or d2.base != base:
        raise ValueError("both deformation data must live over the given base")
    _require_passed(verify_bol(base), "equivalence base must be a Bol algebra")
    R = adjoint_representation(base)
    diff = d2.pair - d1.pair
    direct = solve_coboundary(R, diff, companion="none")
    constrained = solve_coboundary(R, diff, companion="delta-kernel")
    phi = direct.f if direct is not None else None
    return FirstOrderEquivalence(
        equivalent=direct is not None,
        phi=phi,
        cochain_route=constrained is not None,
        cochain_witness=constrained,
    )
