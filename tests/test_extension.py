import importlib
import json
import random
from fractions import Fraction as F

import pytest

from bolalg import cli as CLI
from bolalg.algebra import BolAlgebra, CheckReport, VerificationError, verify_bol
from bolalg.cohomology import CochainPair, coboundary_of, cohomology, solve_coboundary
from bolalg.extension import (
    AbelianExtension,
    InvalidExtensionError,
    extensions_equivalent,
    induced_cocycle,
    induced_representation,
    perturb_section,
    semidirect_product,
    twisted_product,
    validate_extension,
)
from bolalg.formats import render_extension
from bolalg.linalg import Mat, inverse, replace, vec_add, vec_sub, zero_vec
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    adjoint_representation,
    verify_representation,
)

from .conftest import (
    assert_read_as_its_matrices,
    dense_fiber_coords,
    dense_induced_cocycle,
    dense_induced_representation,
    hstack,
    make_b2,
    matrix_of,
    random_representation_corpus,
    tabulate,
)

EXTENSION = importlib.import_module("bolalg.extension")


def random_g(rng, m, n):
    return Mat.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)]
                          for _ in range(m)])


class TestTwistedProduct:
    def test_semidirect_of_worked_representation_is_bol(self, ex28_rep):
        E = semidirect_product(ex28_rep)
        assert E.hat.n == 4
        assert verify_bol(E.hat).passed
        assert validate_extension(E).passed

    def test_zero_representation_gives_padded_direct_sum(self, b2_1):
        R = Representation.zero(b2_1, 2)
        E = semidirect_product(R)
        # base block survives; everything touching the fiber vanishes
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert E.hat.c[k][i][j] == b2_1.c[k][i][j]
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    if max(i, j) >= 2 or k >= 2:
                        assert E.hat.c[k][i][j] == 0

    def test_every_cocycle_basis_element_twists_to_a_bol_algebra(self, adj_1):
        for z in cohomology(adj_1).z_basis:
            E = twisted_product(adj_1, z)
            assert verify_bol(E.hat).passed

    def test_non_cocycle_rejected_with_witness(self, adj_1, b2_1):
        c = CochainPair.from_entries(b2_1, 2, [], [((0, 1, 0), {0: F(1)})])
        with pytest.raises(VerificationError) as err:
            twisted_product(adj_1, c)
        assert err.value.report["CC2"].witness == (0, 1, 0, 1)

    def test_unverified_representation_rejected(self, adj_1):
        broken = Representation(adj_1.base, 2, (adj_1.rho[1], adj_1.rho[0]),
                                adj_1.D, adj_1.theta)
        with pytest.raises(VerificationError):
            semidirect_product(broken)


class TestValidation:
    def test_canonical_extension_validates(self, adj_1):
        E = semidirect_product(adj_1)
        report = validate_extension(E)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["base-axioms", "hat-axioms", "exactness", "section",
                         "i-homomorphism", "p-homomorphism", "abelian-ideal"]

    def test_broken_section_is_caught(self, adj_1):
        E = semidirect_product(adj_1)
        bad = AbelianExtension(E.base, E.m, E.hat, E.i, E.p, Mat.zeros(4, 2))
        report = validate_extension(bad)
        assert not report["section"].passed
        with pytest.raises(InvalidExtensionError):
            induced_representation(bad)

    def test_non_abelian_fiber_is_caught(self, adj_1, b2_1):
        E = semidirect_product(adj_1)
        # graft the base product onto the fiber block: [i(V), i(V)] != 0
        c = [[[x for x in row] for row in plane] for plane in E.hat.c]
        c[2][2][3] = F(1)
        c[2][3][2] = F(-1)
        hat = type(E.hat)(4, tuple(
            tuple(tuple(r) for r in p) for p in c), E.hat.t)
        bad = AbelianExtension(E.base, E.m, hat, E.i, E.p, E.sigma)
        report = validate_extension(bad)
        assert not report.passed
        failing = {c.name for c in report.failures()}
        assert "i-homomorphism" in failing or "abelian-ideal" in failing


    def test_passing_validation_is_remembered(self, adj_1, monkeypatch):
        # a bundle no other test builds, so nothing validated it before
        E = perturb_section(semidirect_product(adj_1),
                            Mat.from_rows([[F(7, 11), F(0)], [F(0), F(-13, 5)]]))
        assert validate_extension(E).passed

        def fail(_):
            raise AssertionError("bundle validated a second time")

        monkeypatch.setattr("bolalg.extension.verify_bol", fail)
        assert induced_representation(E) == adj_1
        induced_cocycle(E)

    def test_an_invalid_bundle_raises_on_every_call(self, adj_1):
        E = semidirect_product(adj_1)
        bad = AbelianExtension(E.base, E.m, E.hat, E.i, E.p, Mat.zeros(4, 2))
        for read in (induced_representation, induced_cocycle, induced_representation):
            with pytest.raises(InvalidExtensionError, match="section fails"):
                read(bad)
        assert not validate_extension(bad).passed


class TestInducedData:
    def test_round_trip_recovers_representation_and_cocycle(self, adj_1, adj_m1,
                                                            ex28_rep):
        rng = random.Random(31)
        for R in (adj_1, adj_m1, ex28_rep):
            pairs = [CochainPair.zero(R.base, R.m)]
            pairs += list(cohomology(R).z_basis)[:3]
            for c in pairs:
                E = twisted_product(R, c)
                assert induced_representation(E) == R
                assert induced_cocycle(E) == c

    def test_representation_survives_section_perturbation(self, adj_1):
        rng = random.Random(32)
        E = twisted_product(adj_1, cohomology(adj_1).z_basis[0])
        for _ in range(5):
            Ep = perturb_section(E, random_g(rng, 2, 2))
            assert validate_extension(Ep).passed
            assert induced_representation(Ep) == adj_1

    def test_cocycle_shifts_by_the_coboundary_of_the_perturbation(self, adj_1):
        rng = random.Random(33)
        c = cohomology(adj_1).z_basis[1]
        E = twisted_product(adj_1, c)
        for _ in range(5):
            g = random_g(rng, 2, 2)
            Ep = perturb_section(E, g)
            shifted = induced_cocycle(Ep)
            expected = c + coboundary_of(
                adj_1, PseudoderivationData(g, (F(0), F(0))))
            assert shifted == expected

    def test_direct_sum_extension_induces_zero_maps(self, b2_1):
        R = Representation.zero(b2_1, 2)
        E = semidirect_product(R)
        Ri = induced_representation(E)
        assert Ri == R
        assert induced_cocycle(E).is_zero()


class TestEquivalence:
    def test_reflexive_with_identity(self, adj_1):
        E = semidirect_product(adj_1)
        res = extensions_equivalent(E, E)
        assert res.equivalent
        assert res.phi == Mat.identity(4)

    def test_coboundary_shift_gives_verified_phi(self, adj_1):
        rng = random.Random(41)
        base_c = cohomology(adj_1).z_basis[0]
        E1 = twisted_product(adj_1, base_c)
        for _ in range(4):
            shift = coboundary_of(adj_1, PseudoderivationData(
                random_g(rng, 2, 2), (F(0), F(0))))
            E2 = twisted_product(adj_1, base_c + shift)
            res = extensions_equivalent(E1, E2)
            # _check_phi already verified the homomorphism + diagram laws
            assert res.status == "equivalent"
            assert res.phi is not None

    def test_realizable_companion_still_equivalent(self, adj_1):
        # chi = e1 is a pseudoderivation companion at lam=1
        base_c = cohomology(adj_1).z_basis[0]
        shift = coboundary_of(adj_1, PseudoderivationData(
            Mat.zeros(2, 2), (F(0), F(1))))
        E1 = twisted_product(adj_1, base_c)
        E2 = twisted_product(adj_1, base_c + shift)
        assert extensions_equivalent(E1, E2).status == "equivalent"

    def test_pure_companion_shift_is_cohomologous_but_uncertified(self, adj_1):
        # chi = e0 is no pseudoderivation companion at lam=1: the difference
        # is a coboundary, yet no diagram-commuting homomorphism exists
        base_c = cohomology(adj_1).z_basis[0]
        shift = coboundary_of(adj_1, PseudoderivationData(
            Mat.zeros(2, 2), (F(1), F(0))))
        assert not shift.is_zero()
        E1 = twisted_product(adj_1, base_c)
        E2 = twisted_product(adj_1, base_c + shift)
        res = extensions_equivalent(E1, E2)
        assert res.status == "cohomologous-uncertified"
        assert res.cohomologous and res.phi is None

    def test_companion_shift_certified_when_delta_vanishes(self, adj_m1):
        # at lam=-1 Delta = 0, so arbitrary companions shift nothing
        base_c = cohomology(adj_m1).z_basis[0]
        shift = coboundary_of(adj_m1, PseudoderivationData(
            random_g(random.Random(43), 2, 2), (F(2), F(-3))))
        E1 = twisted_product(adj_m1, base_c)
        E2 = twisted_product(adj_m1, base_c + shift)
        assert extensions_equivalent(E1, E2).status == "equivalent"

    def test_h_representative_shift_is_inequivalent(self, adj_1):
        rep = cohomology(adj_1)
        assert rep.dim_H > 0
        E1 = twisted_product(adj_1, rep.z_basis[0])
        E2 = twisted_product(adj_1, rep.z_basis[0] + rep.h_representatives[0])
        res = extensions_equivalent(E1, E2)
        assert res.status == "not-cohomologous"
        assert not res.cohomologous

    def test_different_representations_short_circuit(self, adj_1, b2_1):
        E1 = semidirect_product(adj_1)
        E2 = semidirect_product(Representation.zero(b2_1, 2))
        res = extensions_equivalent(E1, E2)
        assert res.status == "different-representation"

    def test_equivalence_respects_section_normalization(self, adj_1):
        # the same extension seen through two sections stays equivalent
        E = twisted_product(adj_1, cohomology(adj_1).z_basis[0])
        Ep = perturb_section(E, random_g(random.Random(44), 2, 2))
        assert extensions_equivalent(E, Ep).status == "equivalent"

    def test_base_mismatch_is_an_error(self, adj_1, adj_m1):
        E1 = semidirect_product(adj_1)
        E2 = semidirect_product(adj_m1)
        with pytest.raises(ValueError):
            extensions_equivalent(E1, E2)

    def test_fiber_mismatch_is_an_error(self, adj_1, b2_1):
        E1 = semidirect_product(adj_1)
        E2 = semidirect_product(Representation.zero(b2_1, 3))
        with pytest.raises(ValueError):
            extensions_equivalent(E1, E2)


def test_equivalence_builds_the_coboundary_matrix_once(coboundary_row_builds):
    E = semidirect_product(adjoint_representation(make_b2(1)))
    moved = perturb_section(E, Mat.from_rows([[F(1), F(2)], [F(0), F(3)]]))
    assert extensions_equivalent(E, moved).equivalent  # needs both solves
    assert len(coboundary_row_builds) == 1


def _count_inversions(monkeypatch):
    calls = []
    original = EXTENSION.inverse

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(EXTENSION, "inverse", counting)
    return calls


def test_analysis_inverts_the_splitting_once(monkeypatch):
    calls = _count_inversions(monkeypatch)
    E = semidirect_product(adjoint_representation(make_b2(1)))
    induced_representation(E)
    induced_cocycle(E)
    assert len(calls) == 1


def test_equivalence_inverts_each_splitting_once(monkeypatch):
    calls = _count_inversions(monkeypatch)
    E = semidirect_product(adjoint_representation(make_b2(1)))
    moved = perturb_section(E, Mat.from_rows([[F(1), F(2)], [F(0), F(3)]]))
    assert extensions_equivalent(E, moved).equivalent
    assert len(calls) == 2


def test_singular_splitting_raises_on_every_call():
    # every caller validates first, and a valid bundle's frame is invertible, so a
    # singular frame is a library fault, not a failing bundle
    E = semidirect_product(adjoint_representation(make_b2(1)))
    bad = AbelianExtension(E.base, E.m, E.hat, E.i, E.p, Mat.zeros(4, 2))
    for _ in range(2):
        with pytest.raises(AssertionError, match="section and injection do not split hat"):
            EXTENSION._splitting(bad)


def _reference_induced_cocycle(E):
    """The former induced_cocycle: every nu and omega value tabulated, then rescanned."""
    EXTENSION._require_valid(E)
    base, hat, m = E.base, E.hat, E.m
    n = base.n
    Tinv = EXTENSION._splitting(E)
    s_cols = [E.sigma.col(x) for x in range(n)]

    def nu(x, y):
        w = vec_sub(hat.product(s_cols[x], s_cols[y]),
                    E.sigma.apply(base.basis_product(x, y)))
        return dense_fiber_coords(Tinv, w, n, "nu value")

    def omega(x, y, z):
        w = vec_sub(hat.triple(s_cols[x], s_cols[y], s_cols[z]),
                    E.sigma.apply(base.basis_triple(x, y, z)))
        return dense_fiber_coords(Tinv, w, n, "omega value")
    return CochainPair(base, m, tabulate(m, n, 2, nu), tabulate(m, n, 3, omega))


def _assert_read_as_before(E) -> None:
    """Both readers of E's frame form against the former constructions."""
    R, reference = induced_representation(E), dense_induced_representation(E)
    assert R == reference and R.form == reference.form and hash(R) == hash(reference)
    assert (R.rho, R.D, R.theta) == (reference.rho, reference.D, reference.theta)
    assert_read_as_its_matrices(R)
    c, ref = induced_cocycle(E), _reference_induced_cocycle(E)
    assert c == ref and c.coords() == ref.coords() == dense_induced_cocycle(E).coords()
    assert c.nu == ref.nu and c.omega == ref.omega


def test_the_induced_cocycle_equals_the_former_tabulation(adj_1, adj_m1, ex28_rep):
    rng = random.Random(12)
    for R in (adj_1, adj_m1, ex28_rep):
        for z in (CochainPair.zero(R.base, R.m),) + cohomology(R).z_basis:
            E = twisted_product(R, z)
            for bundle in (E, perturb_section(E, random_g(rng, R.m, R.base.n))):
                _assert_read_as_before(bundle)


@pytest.mark.parametrize("index", range(10))
def test_the_random_modules_read_back_as_before(index):
    # the twisted products of the random corpus modules (rational entries, m = 1..4)
    # along a coboundary, each through its own section and a perturbed one
    R = random_representation_corpus()[index]
    assert verify_representation(R).passed
    rng = random.Random(40 + index)
    f = random_g(rng, R.m, R.base.n)
    E = twisted_product(R, coboundary_of(R, PseudoderivationData(f, (0,) * R.m)))
    for bundle in (E, perturb_section(E, random_g(rng, R.m, R.base.n))):
        _assert_read_as_before(bundle)
        assert induced_representation(bundle) == R


@pytest.mark.parametrize("base, message", [
    (lambda: BolAlgebra.zero(2), "nu value"),  # e0*e1 differs: nu fails first
    (lambda: make_b2(-1), "omega value"),      # same product, [e0,e1,e0] differs
])
def test_an_inconsistent_bundle_leaves_the_fiber_as_before(
        adj_1, monkeypatch, tmp_path, capsys, base, message):
    # A bundle that validates has every value in the fiber, so one that leaves it is
    # a fault of the library: an AssertionError, which the command line reports as an
    # internal error (exit 3), not as "fail".
    E = replace(twisted_product(adj_1, cohomology(adj_1).z_basis[0]), base=base())
    assert validate_extension(E).first_failure().name == "p-homomorphism"
    monkeypatch.setattr(EXTENSION, "_require_valid", lambda E: None)
    errors = []
    for build in (induced_cocycle, _reference_induced_cocycle):
        with pytest.raises(AssertionError) as info:
            build(E)
        errors.append(str(info.value))
    text = f"{message} does not land in the fiber; extension data is inconsistent"
    assert errors == 2 * [text]
    bundle = tmp_path / "inconsistent.ext"
    bundle.write_text(render_extension(E))
    monkeypatch.setattr(CLI, "validate_extension", lambda E: CheckReport(()))
    assert CLI.main(["extend-analyze", str(bundle), "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["message"]) == ("internal-error", f"AssertionError: {text}")


def _reference_phi(E1, E2):
    """The former phi: [sigma2 | i2] phi_tw [sigma1 | i1]^-1, with phi_tw the
    map x + u -> x + f(x) + u probed on the unit vectors."""
    n, N = E1.base.n, E1.hat.n
    diff = induced_cocycle(E1) - induced_cocycle(E2)
    f = solve_coboundary(induced_representation(E1), diff, companion="none").f
    phi_tw = matrix_of(lambda v: v[:n] + vec_add(f.apply(v[:n]), v[n:]), N, N)
    return hstack(E2.sigma, E2.i) @ phi_tw @ inverse(hstack(E1.sigma, E1.i))


def test_phi_equals_the_former_probed_product(adj_1, adj_m1, ex28_rep):
    rng = random.Random(14)
    for R in (adj_1, adj_m1, ex28_rep):
        n, m = R.base.n, R.m
        for z in (CochainPair.zero(R.base, m),) + cohomology(R).z_basis[:2]:
            E = twisted_product(R, z)
            # the canonical maps, as the former probes built them
            assert E.i == matrix_of(lambda u: zero_vec(n) + u, m, n + m)
            assert E.p == matrix_of(lambda v: v[:n], n + m, n)
            assert E.sigma == matrix_of(lambda v: v + zero_vec(m), n, n + m)
            shift = coboundary_of(R, PseudoderivationData(random_g(rng, m, n), zero_vec(m)))
            for E1, E2 in ((E, perturb_section(E, random_g(rng, m, n))),
                           (perturb_section(E, random_g(rng, m, n)),
                            twisted_product(R, z + shift))):
                res = extensions_equivalent(E1, E2)
                assert res.equivalent and res.phi == _reference_phi(E1, E2)
