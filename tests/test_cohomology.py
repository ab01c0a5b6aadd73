import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg.algebra import BolAlgebra, bilinear_eval, maltsev_to_bol, trilinear_eval
from bolalg.cohomology import (
    CochainPair,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    is_coboundary,
    is_cocycle,
    solve_coboundary,
)
from bolalg.linalg import Mat, kernel_basis
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    adjoint_representation,
    coboundary_matrix,
    pseudoderivation_params,
    pseudoderivation_space,
)

from .conftest import dense, make_b2, make_solvable, random_representation_corpus
from .test_constraint_rows import _modules
from .test_linalg import _fraction_echelon

# Frozen dimensions, confirmed against tools/cohomology_oracle.py.
ORACLE_DIMS = {
    F(-1): (6, 5, 2, 3),
    F(0): (6, 5, 2, 3),
    F(1): (6, 5, 3, 2),
}


def random_pseudo(rng, n, m):
    f = Mat.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)]
                       for _ in range(m)])
    chi = tuple(F(rng.randint(-3, 3)) for _ in range(m))
    return PseudoderivationData(f, chi)


def _sparse_rows(matrix):
    return [{k: x for k, x in enumerate(matrix.row(r)) if x} for r in range(matrix.rows)]


def random_cochain(rng, base, m):
    dim = cochain_dim(base.n, m)
    coords = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
    return coords_to_cochain(base, m, coords)


class TestCochainPair:
    def test_antisymmetry_enforced(self, b2_1):
        nu = (((F(0), F(1)), (F(1), F(0))),) * 2
        omega = CochainPair.zero(b2_1, 2).omega
        with pytest.raises(ValueError, match="antisym"):
            CochainPair(b2_1, 2, nu, omega)

    def test_coords_round_trip(self, b2_1):
        rng = random.Random(42)
        for _ in range(10):
            c = random_cochain(rng, b2_1, 2)
            assert coords_to_cochain(b2_1, 2, c.coords()) == c

    def test_arithmetic(self, b2_1):
        rng = random.Random(43)
        a = random_cochain(rng, b2_1, 2)
        b = random_cochain(rng, b2_1, 2)
        assert (a + b) - b == a
        assert (F(2) * a).coords() == tuple(2 * x for x in a.coords())

    def test_arithmetic_is_entrywise(self, b2_1):
        rng = random.Random(44)
        a = random_cochain(rng, b2_1, 2)
        b = random_cochain(rng, b2_1, 2)
        s, d, h = a + b, a - b, F(-3, 2) * a
        for k, i, j in itertools.product(range(2), repeat=3):
            assert s.nu[k][i][j] == a.nu[k][i][j] + b.nu[k][i][j]
            assert d.nu[k][i][j] == a.nu[k][i][j] - b.nu[k][i][j]
            assert h.nu[k][i][j] == F(-3, 2) * a.nu[k][i][j]
        for k, i, j, l in itertools.product(range(2), repeat=4):
            assert s.omega[k][i][j][l] == a.omega[k][i][j][l] + b.omega[k][i][j][l]
            assert d.omega[k][i][j][l] == a.omega[k][i][j][l] - b.omega[k][i][j][l]
            assert h.omega[k][i][j][l] == F(-3, 2) * a.omega[k][i][j][l]

    def test_from_entries_validation(self, b2_1):
        with pytest.raises(ValueError, match="i<j"):
            CochainPair.from_entries(b2_1, 2, [((1, 0), {0: F(1)})], [])
        with pytest.raises(ValueError, match="diagonal"):
            CochainPair.from_entries(b2_1, 2, [], [((0, 0, 1), {0: F(1)})])


class TestIsCocycle:
    def test_zero_pair(self, adj_1, b2_1):
        assert is_cocycle(adj_1, CochainPair.zero(b2_1, 2)).passed

    def test_companion_coboundary_is_cocycle(self, adj_1):
        cb = coboundary_of(adj_1, PseudoderivationData(
            Mat.zeros(2, 2), (F(1), F(0))))
        assert bilinear_eval(cb.nu, 0, 1, 2) == (F(0), F(2))   # (lam+1) e1 at lam=1
        assert is_cocycle(adj_1, cb).passed

    def test_non_cocycle_with_frozen_witness(self, adj_1, b2_1):
        c = CochainPair.from_entries(b2_1, 2, [], [((0, 1, 0), {0: F(1)})])
        report = is_cocycle(adj_1, c)
        assert not report.passed
        assert report["CC2"].witness == (0, 1, 0, 1)
        assert report["CC2"].residual == (F(0), F(1))

    def test_cocycle_verdict_invariant_under_coboundary_shift(self, adj_1, b2_1):
        rng = random.Random(7)
        for _ in range(8):
            c = random_cochain(rng, b2_1, 2)
            shift = coboundary_of(adj_1, random_pseudo(rng, 2, 2))
            assert (is_cocycle(adj_1, c).passed
                    == is_cocycle(adj_1, c + shift).passed)


class TestCoboundaries:
    def test_zero_witness_gives_zero_pair(self, adj_1, b2_1):
        cb = coboundary_of(adj_1, PseudoderivationData.zero(2, 2))
        assert cb == CochainPair.zero(b2_1, 2)

    def test_companion_annihilated_at_lambda_minus_one(self, adj_m1, b2_m1):
        cb = coboundary_of(adj_m1, PseudoderivationData(
            Mat.zeros(2, 2), (F(1), F(0))))
        assert cb == CochainPair.zero(b2_m1, 2)

    def test_constructed_coboundaries_are_recognized(self, adj_1):
        rng = random.Random(8)
        for _ in range(10):
            p = random_pseudo(rng, 2, 2)
            cb = coboundary_of(adj_1, p)
            ok, wit = is_coboundary(adj_1, cb)
            assert ok
            assert coboundary_of(adj_1, wit) == cb

    def test_zero_pair_is_coboundary_with_zero_witness(self, adj_1, b2_1):
        ok, wit = is_coboundary(adj_1, CochainPair.zero(b2_1, 2))
        assert ok
        # particular solution sets free parameters to zero
        assert wit.f.is_zero() and not any(wit.chi)

    def test_h_representative_is_not_a_coboundary(self, adj_1):
        rep = cohomology(adj_1)
        assert rep.dim_H > 0
        for h in rep.h_representatives:
            assert is_coboundary(adj_1, h)[0] is False

    def test_companion_modes(self, adj_1):
        # the pure-companion coboundary at lam=1 has no zero-companion witness
        cb = coboundary_of(adj_1, PseudoderivationData(
            Mat.zeros(2, 2), (F(1), F(0))))
        assert solve_coboundary(adj_1, cb, companion="free") is not None
        assert solve_coboundary(adj_1, cb, companion="none") is None
        assert solve_coboundary(adj_1, cb, companion="delta-kernel") is None
        with pytest.raises(ValueError, match="companion mode"):
            solve_coboundary(adj_1, cb, companion="bogus")


class TestCohomology:
    def test_all_maps_vanish_case(self):
        base = BolAlgebra.zero(2)
        rep = cohomology(Representation.zero(base, 1))
        assert (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H) == (3, 3, 0, 3)

    @pytest.mark.parametrize("lam", sorted(ORACLE_DIMS))
    def test_dimensions_match_oracle(self, lam):
        rep = cohomology(adjoint_representation(make_b2(lam)))
        assert (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H) == ORACLE_DIMS[lam]

    def test_bases_live_where_they_should(self, adj_1):
        rep = cohomology(adj_1)
        for z in rep.z_basis:
            assert is_cocycle(adj_1, z).passed
        for b in rep.b_basis:
            assert is_cocycle(adj_1, b).passed
            assert is_coboundary(adj_1, b)[0]
        assert rep.dim_B <= rep.dim_Z
        assert rep.dim_H == rep.dim_Z - rep.dim_B == len(rep.h_representatives)

    def test_dim_b_complements_pseudoderivations(self, adj_1, adj_m1, ex28_rep):
        for R in (adj_1, adj_m1, ex28_rep):
            rep = cohomology(R)
            n, m = R.base.n, R.m
            assert rep.dim_B + len(pseudoderivation_space(R)) == n * m + m

    @pytest.mark.parametrize("index", range(11))
    def test_rank_and_nullity_of_the_coboundary_map_from_the_reference_elimination(
            self, index):
        # dim B is the rank of the coboundary map and the pseudoderivations its
        # kernel, so the two add up to the parameter count; both are counted
        # here with the Fraction elimination, on the matrix and its transpose
        R = _modules()[index]
        matrix = coboundary_matrix(R)
        rank = len(_fraction_echelon(_sparse_rows(dense(matrix))))
        assert len(_fraction_echelon(_sparse_rows(dense(matrix.transpose())))) == rank
        assert cohomology(R).dim_B == rank
        assert len(pseudoderivation_space(R)) == pseudoderivation_params(R.base.n, R.m) - rank

    def test_deterministic(self, adj_1):
        assert cohomology(adj_1) == cohomology(adj_1)

    def test_lie_triple_reduction_against_hand_oracle(self):
        """With zero binary product and rho = 0, the conditions reduce to the
        Lie-triple-system ones; assemble those directly and compare kernels."""
        base = BolAlgebra.from_entries(
            3, binary=[], ternary=[((0, 1, 0), {1: F(2)})])
        R = adjoint_representation(base)
        assert all(mat.is_zero() for mat in R.rho)
        got = cohomology(R)

        n = m = 3
        dim = cochain_dim(n, m)
        rows = []
        for idx in range(dim):
            unit = coords_to_cochain(base, m, tuple(
                F(1) if i == idx else F(0) for i in range(dim)))
            nu = lambda x, y: bilinear_eval(unit.nu, x, y, n)
            omega = lambda x, y, z: trilinear_eval(unit.omega, x, y, z, n)
            col = []
            rng = range(n)
            # cyclic omega sum
            for x1, x2, x3 in itertools.product(rng, repeat=3):
                col.extend(a + b + c for a, b, c in zip(
                    omega(x1, x2, x3),
                    omega(x2, x3, x1),
                    omega(x3, x1, x2)))
            # reduced middle condition:
            # D(x1,x2) nu(y1,y2) = D(y1,y2) nu(x1,x2)
            #   + nu([x1,x2,y1],y2) + nu(y1,[x1,x2,y2])
            for x1, x2, y1, y2 in itertools.product(rng, repeat=4):
                val = R.D[x1][x2].apply(nu(y1, y2))
                val = tuple(a - b for a, b in zip(
                    val, R.D[y1][y2].apply(nu(x1, x2))))
                val = tuple(a - b for a, b in zip(
                    val, nu(base.basis_triple(x1, x2, y1), y2)))
                val = tuple(a - b for a, b in zip(
                    val, nu(y1, base.basis_triple(x1, x2, y2))))
                col.extend(val)
            # ternary condition with theta(u,v)w = [w,u,v], D(u,v)w = [u,v,w]
            for x1, x2, y1, y2, y3 in itertools.product(rng, repeat=5):
                val = omega(x1, x2, base.basis_triple(y1, y2, y3))
                val = tuple(a + b for a, b in zip(
                    val, R.D[x1][x2].apply(omega(y1, y2, y3))))
                for sub in (
                    omega(base.basis_triple(x1, x2, y1), y2, y3),
                    omega(y1, base.basis_triple(x1, x2, y2), y3),
                    omega(y1, y2, base.basis_triple(x1, x2, y3)),
                    R.D[y1][y2].apply(omega(x1, x2, y3)),
                    R.theta[y2][y3].apply(omega(x1, x2, y1)),
                    tuple(-q for q in R.theta[y1][y3].apply(
                        omega(x1, x2, y2))),
                ):
                    val = tuple(a - b for a, b in zip(val, sub))
                col.extend(val)
            rows.append(col)
        matrix = Mat.from_cols(rows, rows=len(rows[0]))
        assert got.dim_Z == len(kernel_basis(matrix))

    def test_cohomology_on_random_corpus_member(self):
        R = random_representation_corpus(count=5)[4]  # zero rep, m small
        rep = cohomology(R)
        assert rep.dim_H == rep.dim_Z - rep.dim_B


def test_cohomology_builds_no_dense_grid(monkeypatch):
    """The constraint rows (490 distinct for the solvable n=5 adjoint module), the
    coboundary map and both rref results are written as nonzero rows: an untraced
    cohomology() builds no Mat from entries and reads no entries view."""
    R = adjoint_representation(maltsev_to_bol(make_solvable(5)))
    shapes = []
    check = Mat.__post_init__
    entries = Mat.__dict__["entries"].func
    view = functools.cached_property(lambda self: shapes.append(self.shape) or entries(self))
    view.__set_name__(Mat, "entries")

    def recording(self):
        shapes.append(self.shape)
        check(self)

    monkeypatch.setattr(Mat, "__post_init__", recording)
    monkeypatch.setattr(Mat, "entries", view)
    report = cohomology(R)
    monkeypatch.undo()
    assert (report.dim_C, report.dim_Z, report.dim_B, report.dim_H) == (300, 48, 17, 31)
    assert shapes == []
