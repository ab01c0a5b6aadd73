"""The extension, representation and deformation scans in integers, against
the Fraction scans they replaced.

``validate_extension``, ``induced_representation``, ``induced_cocycle`` and
``_check_phi`` read the integer forms of hat(B) and B on the integer columns
of i, p, sigma, the splitting and phi; ``verify_representation`` and
``check_delta_identity`` add up the integer rows of R and of Delta; (B2') and
o3 read mu, nu and omega as ints over one common denominator.  The references
in ``conftest`` are the former constructions: dense products on Vec slots and
{coordinate: Fraction} dicts.  Every report must equal its reference (witness,
and a residual equal in value with every entry a ``Fraction``), and so must
every induced ``Representation`` and ``CochainPair`` and every raised message.

The bundles are twisted products of adjoint modules over so3 on its canonical
basis and on a dense rational basis and over the 3-sphere Lie triple system,
of a module with distinct-prime denominators, and once of the octonions'
adjoint module (N = 14).  Defects
are planted at every position of hat(B), i, p, sigma and phi.
"""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg import extension as EXTENSION
from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    _scan,
    maltsev_to_bol,
    slot_tuples,
)
from bolalg.cohomology import CochainPair, coboundary_of, cohomology
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    is_deformation_type,
)
from bolalg.extension import (
    InvalidExtensionError,
    extensions_equivalent,
    induced_cocycle,
    induced_representation,
    perturb_section,
    twisted_product,
    validate_extension,
)
from bolalg.linalg import Mat, replace
from bolalg.representation import (
    PseudoderivationData,
    adjoint_representation,
    check_delta_identity,
    verify_representation,
)

from .conftest import (
    assert_read_as_its_matrices,
    b3_residual,
    dense_b2p_residual,
    dense_check_phi,
    dense_induced_cocycle,
    dense_induced_representation,
    dense_o3_residual,
    dense_validate_extension,
    fraction_check_delta_identity,
    fraction_verify_representation,
    make_so3,
)
from .test_basis_change import dense_basis, transport
from .test_constraint_rows import _prime_module
from .test_oracle import _sphere
from .test_sparse_scans import (
    MODULE_DEFECTS,
    REPRESENTATIONS,
    _assert_same,
    _moved,
    _moved_cochain,
    _octonions,
    _perturbed,
    _planted_bol,
    _planted_product,
)


def _shift(R, seed):
    """The coboundary of a seeded small f with zero companion: a cocycle of R."""
    rng = random.Random(seed)
    f = Mat.from_rows([[rng.choice((-1, 0, 1, 2)) for _ in range(R.base.n)]
                       for _ in range(R.m)])
    return coboundary_of(R, PseudoderivationData(f, (0,) * R.m))


def _section_move(R, seed):
    rng = random.Random(seed)
    return Mat.from_rows([[rng.choice((-1, 0, 1)) for _ in range(R.base.n)]
                          for _ in range(R.m)])


@functools.cache
def _bundles(name):
    """(E, E2): a twisted product and the same bundle seen through a moved section."""
    so3 = maltsev_to_bol(make_so3())
    if name == "prime":
        R = _prime_module()
    elif name == "sphere":  # a zero product: phi meets the ternary law and the maps
        R = adjoint_representation(_sphere(3))
    else:
        base = so3 if name == "canonical" else transport(so3, dense_basis(random.Random(4), 3))
        R = adjoint_representation(base)
    c = _shift(R, 1)
    if name == "canonical":
        c = c + cohomology(R).z_basis[0]
    E = twisted_product(R, c)
    return E, perturb_section(E, _section_move(R, 2))


NAMES = ("canonical", "dense", "prime", "sphere")


def _assert_same_validation(E):
    _assert_same(validate_extension(E), dense_validate_extension(E))


def _outcome(read, *args):
    """read(*args), or the type and message it raises."""
    try:
        return read(*args)
    except (InvalidExtensionError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", NAMES)
def test_the_bundles_validate_and_read_as_before(name):
    for E in _bundles(name):
        assert validate_extension(E).passed
        _assert_same_validation(E)
        R, c = induced_representation(E), induced_cocycle(E)
        assert R == dense_induced_representation(E)
        assert_read_as_its_matrices(R)
        assert c.coords() == dense_induced_cocycle(E).coords()
        assert all(type(x) is F for mat in R.rho for x in mat.entries)
        assert all(type(x) is F for x in c.coords())


def _hat_defects(E):
    """hat(B) with one product e_i*e_j (i<j) or triple [e_i,e_j,e_k] moved, each
    with its antisymmetric partner, at every position."""
    N = E.hat.n
    for i, j in itertools.combinations(range(N), 2):
        yield replace(E, hat=_planted_product(E.hat, i, j, (i + j) % N))
        for k in range(N):
            yield replace(E, hat=_planted_bol(E.hat, i, j, k, (i + 2 * j + k) % N))


@pytest.mark.parametrize("name", NAMES)
def test_a_hat_defect_at_every_position_is_found_as_before(name):
    failed = set()
    for E in _hat_defects(_bundles(name)[1]):
        _assert_same_validation(E)
        failed |= {c.name for c in validate_extension(E).failures()}
    assert failed >= {"hat-axioms", "i-homomorphism", "p-homomorphism", "abelian-ideal"}


@pytest.mark.parametrize("which", ("i", "p", "sigma"))
@pytest.mark.parametrize("name", NAMES)
def test_a_map_defect_at_every_entry_is_found_and_read_as_before(name, which, monkeypatch):
    # validation first; then the fiber reads with validation switched off,
    # which must return or raise as before (a moved sigma leaves the fiber)
    E = _bundles(name)[1]
    mat = getattr(E, which)
    bundles = [replace(E, **{which: _moved(mat, r, c, F(1, 3))})
               for r, c in itertools.product(range(mat.rows), range(mat.cols))]
    failed = set()
    for bundle in bundles:
        _assert_same_validation(bundle)
        failed |= {c.name for c in validate_extension(bundle).failures()}
    assert failed
    monkeypatch.setattr(EXTENSION, "_require_valid", lambda E: None)
    raised = set()
    for bundle in bundles:
        got = _outcome(induced_representation, bundle)
        assert got == _outcome(dense_induced_representation, bundle)
        raised.add(isinstance(got, tuple))
        got = _outcome(induced_cocycle, bundle)
        want = _outcome(dense_induced_cocycle, bundle)
        assert got == want if isinstance(want, tuple) else got.coords() == want.coords()
        raised.add(isinstance(got, tuple))
    if which == "sigma":  # a moved base coordinate of sigma leaves the fiber
        assert raised == {True, False}


def test_phi_with_a_defect_at_every_entry_fails_as_before():
    messages = set()
    for name in NAMES:
        E1, E2 = _bundles(name)
        phi = extensions_equivalent(E1, E2).phi
        assert _outcome(EXTENSION._check_phi, E1, E2, phi) is None
        assert dense_check_phi(E1, E2, phi) is None
        for r, c in itertools.product(range(phi.rows), range(phi.cols)):
            moved = _moved(phi, r, c, F(-2, 5))
            got = _outcome(EXTENSION._check_phi, E1, E2, moved)
            assert got == _outcome(dense_check_phi, E1, E2, moved)
            messages.add(got[1])
    assert messages == {f"constructed phi fails the {kind} homomorphism law"
                        for kind in ("binary", "ternary")}


def test_the_octonion_twisted_product_reads_as_before():
    # N = 14: one bundle, its moved section, and phi between them
    R = adjoint_representation(maltsev_to_bol(_octonions()))
    E1 = twisted_product(R, _shift(R, 3))
    E2 = perturb_section(E1, _section_move(R, 4))
    for E in (E1, E2):
        _assert_same_validation(E)
        assert induced_representation(E) == dense_induced_representation(E)
        assert_read_as_its_matrices(induced_representation(E))
        assert induced_cocycle(E).coords() == dense_induced_cocycle(E).coords()
    phi = extensions_equivalent(E1, E2).phi
    assert dense_check_phi(E1, E2, phi) is None
    moved = _moved(phi, 13, 6, 1)
    assert _outcome(EXTENSION._check_phi, E1, E2, moved) == _outcome(
        dense_check_phi, E1, E2, moved)
    bad = replace(E2, hat=_planted_bol(E2.hat, 7, 8, 9, 0))
    _assert_same_validation(bad)
    assert not validate_extension(bad).passed


# ---------------------------------------------------------------------------
# representations


def _modules():
    """The modules the sparse scans were checked on, and a module on a dense basis
    and one with distinct-prime denominators, each with entries moved in rho, D
    and theta: there D_A > 1, and R and the Delta identity fail."""
    so3 = maltsev_to_bol(make_so3())
    dense = adjoint_representation(transport(so3, dense_basis(random.Random(7), 3)))
    prime = _prime_module()
    moved = [_perturbed(R, which, i, j, r, c, F(1, 7)) for R in (dense, prime)
             for which in ("rho", "D", "theta")
             for i, j, r, c in ((0, 1, 0, 1), (1, 2, 1, 0), (2, 0, 1, 1))]
    return REPRESENTATIONS + MODULE_DEFECTS + [dense, prime] + moved


MODULES = _modules()


@pytest.mark.parametrize("index", range(len(MODULES)))
def test_r_scans_and_the_delta_identity_equal_the_fraction_sums(index):
    R = MODULES[index]
    _assert_same(verify_representation(R), fraction_verify_representation(R))
    _assert_same(check_delta_identity(R), fraction_check_delta_identity(R))


def test_the_modules_fail_every_condition_behind_a_denominator():
    failed = set()
    for R in MODULES:
        if R.base.form[0] > 1:
            failed |= {c.name for report in (verify_representation(R), check_delta_identity(R))
                       for c in report.failures()}
    assert failed == {"R1", "R21", "R22", "R31", "R32", "R33", "delta-identity"}


# ---------------------------------------------------------------------------
# deformations


def _fraction_closure(d, grouped):
    pair = BolAlgebra(d.n, d.nu, d.omega)
    return (_scan("B2'", slot_tuples(d.n, (2, 2), grouped),
                  lambda *a: dense_b2p_residual(d, *a)),
            _scan("B3'", slot_tuples(d.n, (2, 2, 1), grouped),
                  lambda *a: b3_residual(pair, *a)))


def _data():
    """Deformation data over so3 on the canonical, a dense and a prime basis: the
    rescaling pair moved at every coordinate."""
    so3 = maltsev_to_bol(make_so3())
    bases = (so3, transport(so3, dense_basis(random.Random(8), 3)), _prime_module().base)
    for B in bases:
        scale = CochainPair(B, B.n, B.c, B.t)
        for k in range(len(scale.coords())):
            yield DeformationDatum(B, _moved_cochain(scale, k, F(-1, k + 2)))


DATA = list(_data())


@pytest.mark.parametrize("index", range(len(DATA)))
def test_b2p_and_o3_equal_the_dense_residuals(index):
    datum = DATA[index]
    base, pair = datum.base, datum.pair
    candidate = DeformationTypeCandidate(base.n, base.c, pair.nu, pair.omega)
    report = is_deformation_type(candidate)
    _assert_same(CheckReport(report.checks[4:]),
                 CheckReport(_fraction_closure(candidate, report.passed or all(
                     c.passed for c in report.checks[:3]))))
    formal = check_first_order_formal(datum)
    o3 = _scan("o3", slot_tuples(base.n, (2, 2)), lambda *a: dense_o3_residual(datum, *a))
    _assert_same(CheckReport(formal.checks[3:]),
                 CheckReport(_fraction_closure(candidate, True) + (o3,)))


def test_the_deformation_data_fail_b2p_and_o3():
    failed = set()
    for datum in DATA:
        failed |= {c.name for c in check_first_order_formal(datum).failures()}
    assert failed >= {"B2'", "B3'", "o3"}
