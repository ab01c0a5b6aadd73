"""Cohomology dimensions and axiom verdicts do not depend on the basis.

Each algebra is transported to the basis given by the columns of a seeded
random unitriangular T: c'(x, y) = T^-1 c(Tx, Ty), and the same for the
ternary product.  The new structure constants are dense, so the constraint
rows are dense too, unlike those of the sparse canonical bases.
"""

import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import BolAlgebra, maltsev_to_bol, tabulate, verify_bol
from bolalg.cohomology import _constraint_rows, cohomology
from bolalg.formats import parse_algebra
from bolalg.linalg import Mat, inverse
from bolalg.representation import adjoint_representation

from .conftest import DATA, make_b2, make_so3, make_solvable

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
