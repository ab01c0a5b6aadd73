import random
from fractions import Fraction as F

import pytest

import bolalg.algebra as algebra
from bolalg.algebra import verify_bol
from bolalg.cohomology import (
    CochainPair,
    cochain_dim,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    is_coboundary,
)
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    deformed_algebra,
    first_order_equivalent,
    generates_infinitesimal_deformation,
    is_deformation_type,
)
from bolalg.linalg import Mat
from bolalg.representation import PseudoderivationData

from .conftest import make_b2


def scale_pair(B):
    """(nu, omega) = (*, [ , , ]): deforms to the (1+t)-rescaled algebra."""
    return CochainPair(B, B.n, B.c, B.t)


def random_datum(rng, B):
    coords = tuple(F(rng.randint(-2, 2)) for _ in range(cochain_dim(B.n, B.n)))
    return DeformationDatum(B, coords_to_cochain(B, B.n, coords))


class TestDeformationType:
    def test_zero_triple(self, b2_1):
        cand = DeformationTypeCandidate(
            2, CochainPair.zero(b2_1, 2).nu, CochainPair.zero(b2_1, 2).nu,
            CochainPair.zero(b2_1, 2).omega)
        assert is_deformation_type(cand).passed

    def test_structure_triple_on_b2(self, b2_1):
        # every double binary product vanishes in this algebra, so
        # (mu, nu, omega) = (*, *, [ , , ]) satisfies the closure conditions
        cand = DeformationTypeCandidate(2, b2_1.c, b2_1.c, b2_1.t)
        assert is_deformation_type(cand).passed

    def test_symmetric_nu_fails_with_witness(self, b2_1):
        nu = (((F(0), F(1)), (F(1), F(0))), ((F(0), F(0)), (F(0), F(0))))
        cand = DeformationTypeCandidate(2, b2_1.c, nu, b2_1.t)
        report = is_deformation_type(cand)
        assert not report.passed
        assert report["B01'"].witness == (0, 1)

    def test_non_lts_omega_fails(self, b2_1):
        # breaking the cyclic sum: omega(e0,e1,e1) = e0 has cyclic sum zero,
        # so use a tensor violating slot-1,2 antisymmetry instead
        omega = [[[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
        omega[0][0][1][0] = F(1)  # no mirrored negative
        cand = DeformationTypeCandidate(
            2, b2_1.c, CochainPair.zero(b2_1, 2).nu,
            tuple(tuple(tuple(tuple(r) for r in p) for p in c) for c in omega))
        report = is_deformation_type(cand)
        assert not report["B03'"].passed


class TestInfinitesimal:
    def test_null_deformation(self, b2_1):
        d = DeformationDatum(b2_1, CochainPair.zero(b2_1, 2))
        rep = generates_infinitesimal_deformation(d)
        assert rep.passed and rep.routes_agree

    def test_rescaling_deformation(self, b2_1):
        d = DeformationDatum(b2_1, scale_pair(b2_1))
        rep = generates_infinitesimal_deformation(d)
        assert rep.passed
        assert rep.sampling_passed
        assert rep.routes_agree
        # the sampled algebra at t is the (1+t)-rescaled one
        B2 = deformed_algebra(d, F(2))
        assert B2.basis_product(0, 1) == (F(0), F(-3))
        assert verify_bol(B2).passed

    def test_single_omega_entry_datum(self, b2_1):
        # frozen outcome: omega(e0,e1,e1) = e0 alone still deforms
        pair = CochainPair.from_entries(b2_1, 2, [], [((0, 1, 1), {0: F(1)})])
        rep = generates_infinitesimal_deformation(DeformationDatum(b2_1, pair))
        assert rep.passed and rep.routes_agree

    def test_routes_agree_on_random_pairs(self, b2_1):
        rng = random.Random(99)
        seen_pass = seen_fail = 0
        for _ in range(25):
            rep = generates_infinitesimal_deformation(random_datum(rng, b2_1))
            assert rep.routes_agree
            if rep.passed:
                seen_pass += 1
            else:
                seen_fail += 1
        assert seen_pass and seen_fail  # the sample mixes both outcomes


class TestFirstOrderFormal:
    def test_zero_pair(self, b2_1):
        d = DeformationDatum(b2_1, CochainPair.zero(b2_1, 2))
        assert check_first_order_formal(d).passed

    def test_rescaling_pair_passes_including_cubic_term(self, b2_1):
        d = DeformationDatum(b2_1, scale_pair(b2_1))
        report = check_first_order_formal(d)
        assert report.passed
        assert report["o3"].passed  # (y1 y2)*(x1 x2) = 0 in this algebra

    def test_formal_implies_infinitesimal(self, b2_1):
        rng = random.Random(123)
        for _ in range(20):
            d = random_datum(rng, b2_1)
            if check_first_order_formal(d).passed:
                assert generates_infinitesimal_deformation(d).passed

    def test_condition_names_follow_the_axiom_families(self, b2_1):
        report = check_first_order_formal(
            DeformationDatum(b2_1, CochainPair.zero(b2_1, 2)))
        assert [c.name for c in report.checks] == [
            "CC1", "CC2", "CC3", "B2'", "B3'", "o3"]


class TestFirstOrderEquivalence:
    def test_reflexive(self, b2_1):
        d = DeformationDatum(b2_1, scale_pair(b2_1))
        res = first_order_equivalent(b2_1, d, d)
        assert res.equivalent and res.phi.is_zero() and res.routes_agree

    def test_coboundary_shift_is_equivalent_with_witness_phi(self, adj_1, b2_1):
        rng = random.Random(17)
        base_pair = scale_pair(b2_1)
        for _ in range(5):
            f = Mat.from_rows([[F(rng.randint(-3, 3)) for _ in range(2)]
                               for _ in range(2)])
            shift = coboundary_of(adj_1, PseudoderivationData(f, (F(0), F(0))))
            d1 = DeformationDatum(b2_1, base_pair)
            d2 = DeformationDatum(b2_1, base_pair + shift)
            res = first_order_equivalent(b2_1, d1, d2)
            assert res.equivalent and res.routes_agree
            # the witness produces exactly the shift through the two equations
            regen = coboundary_of(adj_1, PseudoderivationData(
                res.phi, (F(0), F(0))))
            assert regen == shift

    def test_symmetric(self, adj_1, b2_1):
        shift = coboundary_of(adj_1, PseudoderivationData(
            Mat.from_rows([[F(1), F(0)], [F(2), F(-1)]]), (F(0), F(0))))
        d1 = DeformationDatum(b2_1, scale_pair(b2_1))
        d2 = DeformationDatum(b2_1, scale_pair(b2_1) + shift)
        assert first_order_equivalent(b2_1, d1, d2).equivalent
        assert first_order_equivalent(b2_1, d2, d1).equivalent

    def test_transitive_where_witnessed(self, adj_1, b2_1):
        f1 = Mat.from_rows([[F(1), F(2)], [F(0), F(1)]])
        f2 = Mat.from_rows([[F(-1), F(0)], [F(3), F(2)]])
        s1 = coboundary_of(adj_1, PseudoderivationData(f1, (F(0), F(0))))
        s2 = coboundary_of(adj_1, PseudoderivationData(f2, (F(0), F(0))))
        d = DeformationDatum(b2_1, scale_pair(b2_1))
        d1 = DeformationDatum(b2_1, scale_pair(b2_1) + s1)
        d12 = DeformationDatum(b2_1, scale_pair(b2_1) + s1 + s2)
        r1 = first_order_equivalent(b2_1, d, d1)
        r2 = first_order_equivalent(b2_1, d1, d12)
        r3 = first_order_equivalent(b2_1, d, d12)
        assert r1.equivalent and r2.equivalent and r3.equivalent
        # first-order composition of witnesses is additive
        comp = coboundary_of(adj_1, PseudoderivationData(
            r1.phi + r2.phi, (F(0), F(0))))
        direct = coboundary_of(adj_1, PseudoderivationData(
            r3.phi, (F(0), F(0))))
        assert comp == direct

    def test_non_coboundary_shift_is_inequivalent(self, adj_1, b2_1):
        h = cohomology(adj_1).h_representatives[0]
        d1 = DeformationDatum(b2_1, scale_pair(b2_1))
        d2 = DeformationDatum(b2_1, scale_pair(b2_1) + h)
        res = first_order_equivalent(b2_1, d1, d2)
        assert not res.equivalent
        assert res.routes_agree

    def test_equivalent_pairs_are_cohomologous(self, adj_1, b2_1):
        f = Mat.from_rows([[F(2), F(1)], [F(1), F(0)]])
        shift = coboundary_of(adj_1, PseudoderivationData(f, (F(0), F(0))))
        d1 = DeformationDatum(b2_1, scale_pair(b2_1))
        d2 = DeformationDatum(b2_1, scale_pair(b2_1) + shift)
        assert first_order_equivalent(b2_1, d1, d2).equivalent
        assert is_coboundary(adj_1, d2.pair - d1.pair)[0]

    def test_base_mismatch_rejected(self, b2_1, b2_m1):
        d1 = DeformationDatum(b2_1, CochainPair.zero(b2_1, 2))
        d2 = DeformationDatum(b2_m1, CochainPair.zero(b2_m1, 2))
        with pytest.raises(ValueError):
            first_order_equivalent(b2_1, d1, d2)


class TestEachComputationRunsOnce:
    """The base is Bol-verified once although both the operation and the
    adjoint representation require it: its B3 block scan runs once.  The
    coboundary matrix is built once for both solves."""

    @staticmethod
    def _b3_scans_of(B, monkeypatch):
        calls = []
        original = algebra._b3_scan

        def counting(name, D, T, pairs):
            if T is B.form[2]:
                calls.append(name)
            return original(name, D, T, pairs)

        monkeypatch.setattr(algebra, "_b3_scan", counting)
        return calls

    def test_first_order_equivalent(self, monkeypatch):
        B = make_b2(1)
        calls = self._b3_scans_of(B, monkeypatch)
        d = DeformationDatum(B, scale_pair(B))
        assert first_order_equivalent(B, d, d).equivalent
        assert calls == ["B3"]

    def test_check_first_order_formal(self, monkeypatch):
        B = make_b2(1)
        calls = self._b3_scans_of(B, monkeypatch)
        assert check_first_order_formal(DeformationDatum(B, scale_pair(B))).passed
        assert calls == ["B3"]

    def test_generates_infinitesimal_deformation(self, monkeypatch):
        B = make_b2(1)
        calls = self._b3_scans_of(B, monkeypatch)
        assert generates_infinitesimal_deformation(DeformationDatum(B, scale_pair(B))).passed
        assert calls == ["B3"]

    def test_coboundary_matrix_built_once(self, coboundary_row_builds):
        B = make_b2(1)
        d1 = DeformationDatum(B, scale_pair(B))
        d2 = DeformationDatum(B, CochainPair.zero(B, 2))
        first_order_equivalent(B, d1, d2)
        assert len(coboundary_row_builds) == 1
