"""Cohomology dimensions, axiom verdicts and equivalence statuses do not
depend on the basis.

Each algebra is transported to the basis given by the columns of a seeded
random unitriangular T: c'(x, y) = T^-1 c(Tx, Ty), and the same for the
ternary product.  The new structure constants are dense, so the constraint
rows are dense too, unlike those of the sparse canonical bases.

The equivalence tests move everything the extension and deformation layers
read -- the base, its adjoint module, the cocycles and coboundary shifts,
the bundles and the deformation data -- to a dense rational basis, through
Mat products and the public Fraction evaluators ``bilinear_eval`` and
``trilinear_eval`` only, so the check shares no code with the integer
scans it checks.  Every status, cohomology flag and route verdict must be
the one of the canonical basis.
"""

import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import (
    BolAlgebra,
    bilinear_eval,
    maltsev_to_bol,
    trilinear_eval,
    verify_bol,
)
from bolalg.cohomology import (
    CochainPair,
    _constraint_rows,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
)
from bolalg.deformation import (
    DeformationDatum,
    first_order_equivalent,
    generates_infinitesimal_deformation,
)
from bolalg.extension import extensions_equivalent, perturb_section, twisted_product
from bolalg.formats import parse_algebra
from bolalg.linalg import Mat, inverse
from bolalg.representation import PseudoderivationData, Representation, adjoint_representation

from .conftest import DATA, make_b2, make_so3, make_solvable, tabulate

CASES = {
    "so3": (lambda: maltsev_to_bol(make_so3()), (36, 6, 6, 0)),
    "solvable3": (lambda: maltsev_to_bol(make_solvable(3)), (36, 13, 5, 8)),
    "b2_lambda1": (lambda: make_b2(1), (6, 5, 3, 2)),
}


def _unitriangular(rng: random.Random, n: int) -> Mat:
    return Mat.from_rows([[1 if i == j else rng.choice((-2, -1, 1, 2)) if i < j else 0
                           for j in range(n)] for i in range(n)])


def dense_basis(rng: random.Random, n: int) -> Mat:
    """T = L U, L and U unitriangular with nonzero rational entries off the
    diagonal: invertible, and dense unless two products happen to cancel."""
    nonzero = lambda: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))
    L = Mat.from_rows([[1 if i == j else nonzero() if i > j else 0 for j in range(n)]
                       for i in range(n)])
    U = Mat.from_rows([[1 if i == j else nonzero() if i < j else 0 for j in range(n)]
                       for i in range(n)])
    return L @ U


def transport(B: BolAlgebra, T: Mat) -> BolAlgebra:
    n, Tinv = B.n, inverse(T)
    cols = [T.col(i) for i in range(n)]
    return BolAlgebra(
        n,
        tabulate(n, n, 2, lambda i, j: Tinv.apply(B.product(cols[i], cols[j]))),
        tabulate(n, n, 3, lambda i, j, k: Tinv.apply(B.triple(cols[i], cols[j], cols[k]))))


def _dims(B: BolAlgebra):
    rep = cohomology(adjoint_representation(B))
    return rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H


def _mean_row_size(B: BolAlgebra) -> F:
    rows = list(_constraint_rows(adjoint_representation(B)))
    return F(sum(map(len, rows)), len(rows))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_cohomology_dimensions_are_basis_free(name, seed):
    make, dims = CASES[name]
    B = make()
    moved = transport(B, _unitriangular(random.Random(seed), B.n))
    assert moved != B
    assert verify_bol(B).passed and verify_bol(moved).passed
    assert _dims(B) == _dims(moved) == dims
    if B.n > 2:  # at n = 2 every row already has its two or so entries
        assert _mean_row_size(moved) > _mean_row_size(B)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_failing_axioms_are_basis_free(seed):
    B = parse_algebra((DATA / "broken_b2.alg").read_text())
    moved = transport(B, _unitriangular(random.Random(seed), B.n))
    failing = lambda A: {check.name for check in verify_bol(A).failures()}
    assert failing(B) == failing(moved) != set()


# ---------------------------------------------------------------------------
# equivalence statuses in a dense rational basis


def transport_cochain(c: CochainPair, moved: BolAlgebra, T: Mat) -> CochainPair:
    """An adjoint cochain in the basis of T's columns: T^-1 nu(Tx, Ty), and omega alike."""
    n, Tinv = c.n, inverse(T)
    cols = [T.col(i) for i in range(n)]
    return CochainPair(
        moved, n,
        tabulate(n, n, 2, lambda i, j: Tinv.apply(bilinear_eval(c.nu, cols[i], cols[j], n))),
        tabulate(n, n, 3, lambda i, j, k: Tinv.apply(
            trilinear_eval(c.omega, cols[i], cols[j], cols[k], n))))


def _bundle_pairs(B: BolAlgebra, T: Mat):
    """(label, (R, c1, c2, g), (R', c1', c2', g')): the bundles twisted_product(R, c1)
    and perturb_section(twisted_product(R, c2), g), in the canonical and the moved basis.

    Each pair is built for one status: a moved section and a zero-companion
    coboundary shift are equivalent, a companion shift that no pseudoderivation
    realizes is cohomologous but uncertified, an H representative is not
    cohomologous, and the zero module differs in its representation."""
    moved = transport(B, T)
    R, R_moved = adjoint_representation(B), adjoint_representation(moved)
    n, Tinv = B.n, inverse(T)
    report = cohomology(R)
    z = report.z_basis[0]
    g = Mat.from_rows([[(i + 2 * j) % 3 - 1 for j in range(n)] for i in range(n)])
    f = Mat.from_rows([[(2 * i + j) % 5 - 2 for j in range(n)] for i in range(n)])
    shift = coboundary_of(R, PseudoderivationData(f, (0,) * n))
    companion = coboundary_of(R, PseudoderivationData(Mat.zeros(n, n), (1,) + (0,) * (n - 1)))
    cases = {
        "section": (R, z, z, g),
        "coboundary": (R, z, z + shift, Mat.zeros(n, n)),
        "companion": (R, z, z + companion, Mat.zeros(n, n)),
        "class": (R, z, z + report.h_representatives[0], g),
    }
    for label, (rep, c1, c2, h) in cases.items():
        yield label, (rep, c1, c2, h), (R_moved, transport_cochain(c1, moved, T),
                                        transport_cochain(c2, moved, T), Tinv @ h @ T)
    zero = CochainPair.zero(B, n)
    yield "representation", (Representation.zero(B, n), zero, zero, g), (
        Representation.zero(moved, n), CochainPair.zero(moved, n),
        CochainPair.zero(moved, n), Tinv @ g @ T)


def _status(R, c1, c2, g):
    E1 = twisted_product(adjoint_representation(R.base), c1)
    E2 = perturb_section(twisted_product(R, c2), g)
    result = extensions_equivalent(E1, E2)
    return result.status, result.cohomologous


@pytest.mark.parametrize("seed", [1, 2])
def test_extension_equivalence_statuses_are_basis_free(seed):
    B = make_b2(1)
    T = dense_basis(random.Random(seed), B.n)
    statuses = {}
    for label, canonical, moved in _bundle_pairs(B, T):
        statuses[label] = _status(*canonical)
        assert _status(*moved) == statuses[label], label
    assert statuses == {"section": ("equivalent", True), "coboundary": ("equivalent", True),
                        "companion": ("cohomologous-uncertified", True),
                        "class": ("not-cohomologous", False),
                        "representation": ("different-representation", False)}


def _deformation_data(B: BolAlgebra):
    """Pairs (c1, c2) of adjoint cochains: the rescaling pair and its shifts by a
    coboundary and by an H representative, two pairs of cocycles, and a cochain
    that is no cocycle."""
    R = adjoint_representation(B)
    n = B.n
    scale = CochainPair(B, n, B.c, B.t)
    f = Mat.from_rows([[(i + j) % 3 - 1 for j in range(n)] for i in range(n)])
    shift = coboundary_of(R, PseudoderivationData(f, (0,) * n))
    h = cohomology(R).h_representatives[0]
    z = cohomology(R).z_basis
    other = coords_to_cochain(B, n, tuple(F(k % 3 - 1) for k in range(cochain_dim(n, n))))
    return [(scale, scale + shift), (scale, scale + h), (z[0], z[0] + shift),
            (z[-1], F(1, 2) * z[0] + h), (other, other + shift)]


@pytest.mark.parametrize("name, make", [
    ("b2_lambda1", lambda: make_b2(1)),
    ("solvable3", lambda: maltsev_to_bol(make_solvable(3))),
])
def test_deformation_verdicts_are_basis_free(name, make):
    B = make()
    T = dense_basis(random.Random(5), B.n)
    moved = transport(B, T)
    verdicts = []
    for c1, c2 in _deformation_data(B):
        m1, m2 = transport_cochain(c1, moved, T), transport_cochain(c2, moved, T)
        for data, base in (((c1, c2), B), ((m1, m2), moved)):
            d1, d2 = (DeformationDatum(base, c) for c in data)
            equivalence = first_order_equivalent(base, d1, d2)
            verdicts.append((equivalence.equivalent, equivalence.routes_agree) + tuple(
                (report.passed, report.routes_agree)
                for report in map(generates_infinitesimal_deformation, (d1, d2))))
    assert verdicts[0::2] == verdicts[1::2]
    assert {v[0] for v in verdicts} == {True, False}  # equivalent and inequivalent pairs
    assert {passed for v in verdicts for passed, _ in v[2:]} == {True, False}
    assert all(v[1] and all(agree for _, agree in v[2:]) for v in verdicts)
