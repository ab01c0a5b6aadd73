import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg import extension as EXTENSION
from bolalg.algebra import (
    BolAlgebra, MaltsevAlgebra, VerificationError, maltsev_to_bol, verify_bol, verify_maltsev,
)
from bolalg.cohomology import CochainPair, cohomology, is_cocycle
from bolalg.extension import (
    induced_cocycle, induced_representation, twisted_product, validate_extension,
)
from bolalg.formats import parse_algebra
from bolalg.linalg import Mat, replace, rref
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    _null_extension,
    adjoint_representation,
    check_delta_identity,
    induce_from_maltsev,
    is_pseudoderivation,
    pseudoderivation_space,
    verify_representation,
)

from .conftest import (
    DATA,
    assert_read_as_its_matrices,
    dense_induced_cocycle,
    fraction_adjoint_representation,
    fraction_maltsev_action_jordan_report,
    fraction_maltsev_action_report,
    make_b2,
    make_m0,
    make_maltsev_dim4,
    make_so3,
    m0_action,
    random_fraction,
    random_representation_corpus,
    tabulated_hat,
)
from .test_integer_scans import _bundles
from .test_maltsev_action import _adjoint_action, _halved_so3
from .test_oracle import _sphere
from .test_sparse_scans import _octonions, _perturbed


def mat(rows):
    return Mat.from_rows([[F(x) for x in row] for row in rows])


class TestVerifyRepresentation:
    def test_worked_example_passes(self, ex28_rep):
        assert verify_representation(ex28_rep).passed

    def test_zero_representation_passes(self):
        for m in (0, 1, 3):
            R = Representation.zero(make_b2(2), m)
            assert verify_representation(R).passed

    def test_adjoint_passes_and_semidirect_is_bol(self, adj_1):
        from bolalg.extension import semidirect_product

        assert verify_representation(adj_1).passed
        assert verify_bol(semidirect_product(adj_1).hat).passed

    def test_broken_representation_reports_witness(self, adj_1):
        # swapping the two rho matrices breaks R21 on some triple
        broken = Representation(adj_1.base, 2, (adj_1.rho[1], adj_1.rho[0]),
                                adj_1.D, adj_1.theta)
        report = verify_representation(broken)
        assert not report.passed
        first = report.first_failure()
        assert first.witness is not None

    def test_r1_forces_d_antisymmetric(self, adj_1, ex28_rep):
        for R in (adj_1, ex28_rep):
            report = verify_representation(R)
            assert report["R1"].passed
            n = R.base.n
            for i, j in itertools.product(range(n), repeat=2):
                assert R.D[i][j] == -R.D[j][i]


class TestAdjoint:
    def test_matrices_read_off_structure_constants(self):
        lam = F(5, 3)
        R = adjoint_representation(make_b2(lam))
        assert R.rho[0].apply((F(0), F(1))) == (F(0), F(-1))   # rho(e0)e1 = -e1
        assert R.D[0][1].apply((F(1), F(0))) == (F(0), lam)    # D(e0,e1)e0
        assert R.theta[1][0].apply((F(1), F(0))) == (F(0), lam)
        assert R.theta[0][1].apply((F(1), F(0))) == (F(0), F(0))

    def test_zero_algebra_gives_zero_representation(self):
        R = adjoint_representation(BolAlgebra.zero(3))
        assert R == Representation.zero(BolAlgebra.zero(3), 3)

    def test_unverified_input_rejected(self):
        bad = BolAlgebra.from_entries(
            2, binary=[((0, 1), {1: F(-1)})], ternary=[((0, 1, 0), {0: F(1)})])
        with pytest.raises(VerificationError):
            adjoint_representation(bad)

    @pytest.mark.parametrize("lam", [-1, 0, 1, F(5, 3)])
    def test_family_verifies(self, lam):
        assert verify_representation(adjoint_representation(make_b2(lam))).passed


class TestInduceFromMaltsev:
    def test_reproduces_worked_matrices_exactly(self):
        R = induce_from_maltsev(make_m0(), m0_action())
        assert R.rho[0] == mat([[-1, 0], [0, 1]])
        assert R.rho[1] == mat([[0, 0], [2, 0]])
        # the listed values: theta and D vanish on the mixed basis pairs
        # (the diagonal theta(e_i,e_i) = rho(e_i)^2 is forced and unlisted)
        zero = Mat.zeros(2, 2)
        assert R.theta[0][1] == zero
        assert R.theta[1][0] == zero
        assert R.D[0][1] == zero
        assert R.D[1][0] == zero
        assert R.theta[0][0] == R.rho[0] @ R.rho[0]
        assert R.theta[1][1] == R.rho[1] @ R.rho[1]

    def test_base_is_the_associated_bol_algebra(self):
        from bolalg.algebra import maltsev_to_bol

        R = induce_from_maltsev(make_m0(), m0_action())
        assert R.base == maltsev_to_bol(make_m0())
        assert R.base.basis_triple(0, 1, 0) == (F(0), F(-1))

    def test_zero_action_gives_zero_maps(self):
        z = Mat.zeros(2, 2)
        R = induce_from_maltsev(make_m0(), (z, z))
        assert all(R.D[i][j].is_zero() and R.theta[i][j].is_zero()
                   for i in range(2) for j in range(2))
        assert verify_representation(R).passed

    def test_so3_adjoint_action_induces_representation(self):
        so3 = make_so3()
        rho = tuple(
            Mat.from_cols([so3.product(i, a) for a in range(3)], rows=3)
            for i in range(3)
        )
        R = induce_from_maltsev(so3, rho)
        assert verify_representation(R).passed

    def test_condition_routes_agree(self):
        # both hand-derived forms and the null extension decide alike
        so3 = make_so3()
        good = tuple(
            Mat.from_cols([so3.product(i, a) for a in range(3)], rows=3)
            for i in range(3)
        )
        bad = (good[1], good[0], good[2])
        for rho, passes in ((good, True), (bad, False)):
            assert fraction_maltsev_action_report(so3, rho).passed is passes
            assert fraction_maltsev_action_jordan_report(so3, rho).passed is passes
            assert verify_maltsev(_null_extension(so3, rho)).passed is passes

    def test_bad_action_rejected_with_witness_triple(self):
        rho = m0_action()
        with pytest.raises(VerificationError) as err:
            induce_from_maltsev(make_m0(), (rho[1], rho[0]))
        witness = err.value.report.first_failure().witness
        assert len(witness) == 3


class TestDelta:
    @pytest.mark.parametrize("lam,expected", [
        (1, [[0, 0], [2, 0]]),
        (0, [[0, 0], [1, 0]]),
        (-1, [[0, 0], [0, 0]]),
    ])
    def test_delta_on_adjoint(self, lam, expected):
        R = adjoint_representation(make_b2(lam))
        assert R.delta(0, 1) == mat(expected)
        # second column is always zero: Delta(e0,e1)(e1) = 0
        assert R.delta(0, 1).col(1) == (F(0), F(0))

    def test_delta_zero_representation(self):
        R = Representation.zero(make_b2(1), 2)
        assert R.delta(0, 1).is_zero()

    def test_delta_identity_on_named_representations(self, adj_1, adj_m1, ex28_rep):
        for R in (adj_1, adj_m1, ex28_rep, Representation.zero(make_b2(0), 2)):
            assert check_delta_identity(R).passed

    def test_delta_identity_on_random_corpus(self):
        for R in random_representation_corpus(count=6):
            assert check_delta_identity(R).passed


class TestPseudoderivations:
    def test_inner_operator_with_product_companion(self, adj_1, b2_1):
        p = PseudoderivationData(adj_1.D[0][1], b2_1.basis_product(0, 1))
        assert is_pseudoderivation(adj_1, p)

    def test_zero_is_pseudoderivation(self, adj_1):
        assert is_pseudoderivation(adj_1, PseudoderivationData.zero(2, 2))

    def test_space_dimensions_frozen(self, adj_1, adj_m1):
        # oracle: parameter count (n m + m = 6) minus coboundary rank
        assert len(pseudoderivation_space(adj_1)) == 3
        assert len(pseudoderivation_space(adj_m1)) == 4

    def test_space_members_satisfy_the_predicate(self, adj_1, ex28_rep):
        for R in (adj_1, ex28_rep):
            for p in pseudoderivation_space(R):
                assert is_pseudoderivation(R, p)

    @pytest.mark.parametrize("index", range(13))
    def test_the_predicate_is_membership_in_the_space(self, index, adj_1, adj_m1, ex28_rep):
        # random (f, chi), random members of the space and members moved off it:
        # True exactly when the packed parameters lie in the span of the basis
        R = ([adj_1, adj_m1, ex28_rep] + random_representation_corpus())[index]
        n, m = R.base.n, R.m
        pack = lambda p: tuple(x for j in range(n) for x in p.f.col(j)) + p.chi
        basis = [pack(p) for p in pseudoderivation_space(R)]
        rng = random.Random(index)
        coeff = lambda: F(rng.randint(-3, 3), rng.randint(1, 3))

        def member():
            cs = [coeff() for _ in basis]
            return tuple(sum((c * v[k] for c, v in zip(cs, basis)), F(0))
                         for k in range(n * m + m))
        samples = [tuple(coeff() for _ in range(n * m + m)) for _ in range(3)]
        samples += [member() for _ in range(3)]
        samples += [tuple(x + (k == rng.randrange(n * m + m)) for k, x in enumerate(member()))
                    for _ in range(3)]
        seen = set()
        for params in samples:
            p = PseudoderivationData(Mat.from_cols([params[j * m:j * m + m] for j in range(n)],
                                                   rows=m), params[n * m:])
            inside = rref(Mat.from_rows(basis + [params])).rank == len(basis)
            assert is_pseudoderivation(R, p) is inside
            seen.add(inside)
        # a module where every (f, chi) is a pseudoderivation has no False branch
        assert seen == {True, len(basis) == n * m + m}

    def test_realizable_companions_at_lambda_one(self, adj_1):
        # chi-components of the kernel span only the second coordinate
        companions = {p.chi for p in pseudoderivation_space(adj_1)}
        assert (F(0), F(1)) in companions
        assert all(chi[0] == 0 for chi in companions)


class TestRandomCorpus:
    def test_corpus_verifies_and_semidirects_are_bol(self):
        from bolalg.extension import semidirect_product

        corpus = random_representation_corpus()
        assert len(corpus) == 10
        rng = random.Random(5)
        sampled = rng.sample(corpus, 4)
        for R in sampled:
            assert verify_bol(semidirect_product(R).hat).passed


def _data_modules() -> list[Representation]:
    """The adjoint modules of the Bol algebras in data/ of dimension at most 4 (a
    Maltsev file through maltsev_to_bol; broken_b2 is not Bol), each with entries
    moved: one entry of rho, D or theta, or D(e_i, e_j) and D(e_j, e_i) oppositely."""
    rng = random.Random(28)
    out = []
    for path in sorted(DATA.glob("*.alg")):
        A = parse_algebra(path.read_text())
        B = maltsev_to_bol(A) if isinstance(A, MaltsevAlgebra) else A
        if B.n > 4 or not verify_bol(B).passed:
            continue
        R = adjoint_representation(B)
        n, m = B.n, R.m
        out.append(R)
        for _ in range(16):
            which, i, j = rng.choice(("rho", "D", "theta")), rng.randrange(n), rng.randrange(n)
            r, c, by = rng.randrange(m), rng.randrange(m), random_fraction(rng) or 1
            out.append(_perturbed(R, which, i, j, r, c, by))
            if which == "D":
                out.append(_perturbed(out[-1], "D", j, i, r, c, -by))
    return out


def test_a_module_verifies_exactly_when_its_semidirect_product_is_bol():
    # the tabulated B (+) V, built with no representation gate
    modules = random_representation_corpus() + _data_modules()
    verified = [verify_representation(R).passed for R in modules]
    assert verified == [verify_bol(tabulated_hat(R)).passed for R in modules]
    assert 0 < sum(verified) < len(verified)


# ---------------------------------------------------------------------------
# a representation is its integer form


def _adjoint_bases() -> list[BolAlgebra]:
    """The Bol algebras of data/ (a Maltsev file through maltsev_to_bol; broken_b2
    is not Bol), the sphere systems n = 3..6 and the bases of the random corpus."""
    bases = []
    for path in sorted(DATA.glob("*.alg")):
        A = parse_algebra(path.read_text())
        bases.append(maltsev_to_bol(A) if isinstance(A, MaltsevAlgebra) else A)
    bases += [_sphere(n) for n in range(3, 7)]
    bases += [R.base for R in random_representation_corpus()]
    return [B for B in dict.fromkeys(bases) if verify_bol(B).passed]


ADJOINT_BASES = _adjoint_bases()


def test_the_adjoint_bases_span_the_corpora():
    assert len(ADJOINT_BASES) >= 12 and max(B.n for B in ADJOINT_BASES) == 10
    assert any(B.form[0] > 1 for B in ADJOINT_BASES)  # a denominator to carry


@pytest.mark.parametrize("index", range(len(ADJOINT_BASES)))
def test_the_adjoint_module_equals_the_one_built_from_fraction_matrices(index):
    B = ADJOINT_BASES[index]
    R, reference = adjoint_representation(B), fraction_adjoint_representation(B)
    assert R.form[0] == B.form[0]  # D_R = D_A
    assert R == reference and hash(R) == hash(reference) and R.form == reference.form
    assert_read_as_its_matrices(R)
    assert (R.rho, R.D, R.theta) == (reference.rho, reference.D, reference.theta)
    assert repr(R) == repr(reference)


def _as_ints(mat: Mat) -> Mat:
    """The Mat with each integral entry an int, the others Fractions."""
    return Mat(mat.rows, mat.cols, tuple(x.numerator if x.denominator == 1 else x
                                         for x in mat.entries))


@pytest.mark.parametrize("index", range(6))
def test_int_and_fraction_matrices_give_one_form(index):
    R = (random_representation_corpus()[::2] + [adjoint_representation(make_b2(1))])[index]
    grid = lambda g: tuple(tuple(map(_as_ints, row)) for row in g)
    rho, D, theta = tuple(map(_as_ints, R.rho)), grid(R.D), grid(R.theta)
    assert any(type(x) is int for mat in (*rho, *sum(D + theta, ())) for x in mat.entries)
    ints = Representation(R.base, R.m, rho, D, theta)
    assert ints == R and hash(ints) == hash(R) and ints.form == R.form
    assert all(type(x) is int for rows in ints.form[1] for row in rows for _, x in row)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_the_zero_module_is_written_as_the_one_read_from_zero_matrices(m):
    B, z = make_b2(F(5, 3)), Mat.zeros(m, m)
    read = Representation(B, m, (z, z), ((z, z),) * 2, ((z, z),) * 2)
    zero = Representation.zero(B, m)
    assert zero == read and hash(zero) == hash(read) and zero.form == read.form
    assert zero.rho == (z, z) and zero.theta == ((z, z),) * 2


_Z, _BIG = Mat.zeros(2, 2), Mat.zeros(3, 3)
_GRID = ((_Z, _Z),) * 2


@pytest.mark.parametrize("rho, D, theta, message", [
    ((_Z,), _GRID, _GRID, "representation grids must have one slot per basis element"),
    ((_BIG, _BIG), _GRID, _GRID, r"rho matrix shape \(3, 3\) != \(2,2\)"),
    ((_Z, _Z), ((_Z,),) * 2, _GRID, "D/theta grids must be n x n"),
    ((_Z, _Z), _GRID, ((_BIG, _BIG),) * 2, r"grid matrix shape \(3, 3\) != \(2,2\)"),
])
def test_the_constructor_refuses_a_bad_grid(rho, D, theta, message):
    with pytest.raises(ValueError, match=message):
        Representation(make_b2(1), 2, rho, D, theta)


def _built_matrices(monkeypatch) -> list:
    """Every Mat built from here on, from its entries or from its nonzero rows."""
    built, check, of_rows = [], Mat.__post_init__, Mat._of_rows
    monkeypatch.setattr(Mat, "__post_init__", lambda self: built.append(self) or check(self))
    monkeypatch.setattr(Mat, "_of_rows", staticmethod(
        lambda cols, rows: built.append(of_rows(cols, rows)) or built[-1]))
    return built


def test_the_adjoint_module_builds_no_matrix(monkeypatch):
    built = _built_matrices(monkeypatch)
    R = adjoint_representation(maltsev_to_bol(make_so3()))
    assert built == [] and not {"rho", "D", "theta"} & set(R.__dict__)


@pytest.mark.parametrize("M, rho", [(make_m0(), m0_action()), _halved_so3(),
                                    (_octonions(), _adjoint_action(_octonions()))])
def test_the_maltsev_induced_module_builds_no_matrix(monkeypatch, M, rho):
    built = _built_matrices(monkeypatch)
    R = induce_from_maltsev(M, rho)
    assert built == [] and not {"rho", "D", "theta"} & set(R.__dict__)


@pytest.mark.parametrize("name", ["canonical", "dense", "prime"])
def test_the_extension_induced_module_builds_only_the_frame_and_its_inverse(monkeypatch, name):
    E = replace(_bundles(name)[1])  # the same bundle, with nothing kept on it
    validate_extension(E)  # validation multiplies its maps
    built = _built_matrices(monkeypatch)
    R, c = induced_representation(E), induced_cocycle(E)  # one kept frame form for both
    frame, splitting = built
    assert frame is EXTENSION._frame(E) and splitting is EXTENSION._splitting(E)
    assert not {"rho", "D", "theta"} & set(R.__dict__) and c == dense_induced_cocycle(E)


@pytest.mark.parametrize("name", ["b2_lambda1.alg", "so3.alg", "maltsev_dim4.alg"])
def test_the_library_reads_no_matrix_of_an_adjoint_module(name):
    A = parse_algebra((DATA / name).read_text())
    R = adjoint_representation(maltsev_to_bol(A) if isinstance(A, MaltsevAlgebra) else A)
    report = cohomology(R)
    pseudoderivation_space(R)
    for c in (*report.z_basis, CochainPair.zero(R.base, R.m)):
        assert is_cocycle(R, c).passed
        twisted_product(R, c)
    assert report.z_basis and not {"rho", "D", "theta"} & set(R.__dict__)
    assert R.rho and {"rho"} <= set(R.__dict__)  # built on first access only
