"""Sagle's identity scanned one x at a time, and the sparse forms read by
transposition, against the constructions they replaced.

``verify_maltsev`` scans the identity in blocks, one per x: it makes x*e_k,
e_k*x and (e_k*x)*x once and reads every (y, z) through them.  The
reference in ``conftest`` is the former scan, seven products of the integer
form at every (x, y, z).  Both checks must agree (passed, witness and a
residual equal in value with every entry a ``Fraction``) on seeded random
algebras, anticommutative and not, for n = 0..5, on Maltsev algebras in
moved bases, with defects planted in them, and on one pinned algebra whose
first failure has x = e_i + e_j while every single e_i passes.

The integer form of an algebra made from tensors reads each row off the
planes of c and t by transposition; it must equal the nonzeros of
``basis_product`` and ``basis_triple`` read one coordinate at a time and
scaled by their lcm denominator, for Bol and Maltsev algebras and for the
(mu, nu, omega) forms the deformation scans read.
The deformation-type antisymmetry and cyclic scans (B01'-B03', B1') add up
the integer forms of (mu, nu, omega); they must equal the former Fraction
scans, ``fraction_antisymmetry`` and the cyclic sum, also where those fail.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg import deformation as DEFORMATION
from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    maltsev_to_bol,
    verify_maltsev,
)
from bolalg.cohomology import coords_to_cochain
from bolalg.deformation import DeformationTypeCandidate, is_deformation_type
from bolalg.representation import cochain_dim

from .conftest import (
    coordinate_product_terms,
    coordinate_triple_terms,
    fraction_antisymmetry,
    fraction_cyclic,
    make_m0,
    make_maltsev_dim4,
    make_so3,
    make_solvable,
    random_fraction,
    scaled_forms,
    tuplewise_verify_maltsev,
)
from .test_sparse_scans import _assert_same, _dense_maltsev, _planted_maltsev, _sol3_so3


def _random_tensor(rng, n: int, arity: int, density: float, anti: bool) -> tuple:
    """A random [v][a1]...[ak] tensor over range(n), each entry nonzero with
    probability ``density``; with ``anti`` it is antisymmetric in slots 1, 2."""
    values = {}
    for args in itertools.product(range(n), repeat=arity):
        if anti and args[0] >= args[1]:
            continue
        for v in range(n):
            if rng.random() < density:
                values[(v,) + args] = random_fraction(rng)
                if anti:
                    values[(v, args[1], args[0]) + args[2:]] = -values[(v,) + args]

    def level(prefix):
        if len(prefix) == arity + 1:
            return values.get(prefix, F(0))
        return tuple(level(prefix + (a,)) for a in range(n))
    return tuple(level((v,)) for v in range(n))


def _random_maltsev_candidates():
    rng = random.Random(20)
    for n in range(6):
        for anti in (True, False):
            for density in (0.05, 0.15, 0.4):
                for _ in range(3):
                    yield MaltsevAlgebra(n, _random_tensor(rng, n, 2, density, anti))


def _known_maltsev():
    base = [make_m0(), make_so3(), make_solvable(3), make_solvable(5), make_maltsev_dim4(),
            _sol3_so3()]
    out = base + [_dense_maltsev(M, seed) for seed, M in enumerate(base, start=30)]
    return out + [_planted_maltsev(_sol3_so3(), i, j, k)
                  for i, j, k in itertools.combinations(range(6), 3)]


# e0*e1 = -e0 and e2*e3 = -e1: every e_i passes, and x = e0 + e1 fails first
PINNED = MaltsevAlgebra.from_entries(4, [((0, 1), {0: F(-1)}), ((2, 3), {1: F(-1)})])
# two more whose first failure has x = e1 + e2, one with z < y
PAIR_FAILURES = [PINNED] + [MaltsevAlgebra.from_entries(5, entries) for entries in (
    [((1, 3), {4: F(4, 3)}), ((2, 4), {2: F(-2, 3)})],
    [((1, 3), {1: F(2)}), ((2, 4), {3: F(-1, 2)})])]
MALTSEV = list(_random_maltsev_candidates()) + _known_maltsev() + PAIR_FAILURES


def test_the_corpus_fails_at_single_and_at_pair_blocks_and_passes():
    outcomes = set()
    for M in MALTSEV:
        check = verify_maltsev(M)["maltsev-identity"]
        outcomes.add(None if check.passed else len(check.witness[0]))
    assert outcomes == {None, 1, 2}
    assert [verify_maltsev(M)["maltsev-identity"].witness for M in PAIR_FAILURES] == [
        ((0, 1), 2, 3), ((1, 2), 3, 4), ((1, 2), 4, 3)]
    assert not all(verify_maltsev(M)["anticommutativity"].passed for M in MALTSEV)


@pytest.mark.parametrize("index", range(len(MALTSEV)))
def test_verify_maltsev_equals_the_tuplewise_scan(index):
    M = MALTSEV[index]
    _assert_same(verify_maltsev(M), tuplewise_verify_maltsev(M))


def test_a_pair_block_fails_where_every_basis_vector_passes():
    # For x = e_i alone every term of Sagle's identity vanishes on PINNED; for
    # x = e0 + e1, y = e2, z = e3 only ((y*z)*x)*x = ((-e1)*x)*x = (-e0)*x = e0 is left
    report = verify_maltsev(PINNED)
    assert report["anticommutativity"].passed
    assert report["maltsev-identity"].witness == ((0, 1), 2, 3)
    assert report["maltsev-identity"].residual == (F(-1), F(0), F(0), F(0))
    _assert_same(report, tuplewise_verify_maltsev(PINNED))


def _forms_inputs():
    rng = random.Random(21)
    out = [maltsev_to_bol(make_so3()), BolAlgebra.zero(0), BolAlgebra.zero(2)]
    for n in range(1, 5):
        for anti in (True, False):
            out.append(BolAlgebra(n, _random_tensor(rng, n, 2, 0.3, anti),
                                  _random_tensor(rng, n, 3, 0.2, anti)))
    return out


@pytest.mark.parametrize("B", _forms_inputs(), ids=lambda B: f"n{B.n}")
def test_the_transposed_forms_equal_the_coordinate_reads(B):
    assert B.form == scaled_forms((coordinate_product_terms(B),),
                                             (coordinate_triple_terms(B),))
    M = MaltsevAlgebra(B.n, B.c)
    D, P, T = M.form
    assert (D, P) == scaled_forms((coordinate_product_terms(M),), ())
    assert not any(terms for plane in T for row in plane for terms in row)


def _candidates():
    rng = random.Random(22)
    so3 = maltsev_to_bol(make_so3())
    out = []
    for _ in range(3):
        coords = tuple(random_fraction(rng) for _ in range(cochain_dim(3, 3)))
        pair = coords_to_cochain(so3, 3, coords)
        out.append(DeformationTypeCandidate(3, so3.c, pair.nu, pair.omega))
    for n in (2, 3):
        for anti in (True, False):
            for density in (0.2, 0.6):
                out.append(DeformationTypeCandidate(
                    n, *(_random_tensor(rng, n, arity, density, anti) for arity in (2, 2, 3))))
    return out


CANDIDATES = _candidates()


@pytest.mark.parametrize("index", range(len(CANDIDATES)))
def test_the_deformation_pair_forms_equal_the_coordinate_reads(index):
    d = CANDIDATES[index]
    pair, mu = BolAlgebra(d.n, d.nu, d.omega), MaltsevAlgebra(d.n, d.mu)
    assert DEFORMATION._candidate_forms(d) == scaled_forms(
        (coordinate_product_terms(mu), coordinate_product_terms(pair)),
        (coordinate_triple_terms(pair),))


@pytest.mark.parametrize("index", range(len(CANDIDATES)))
def test_the_deformation_type_scans_equal_the_fraction_scans(index):
    d = CANDIDATES[index]
    antisymmetry = (fraction_antisymmetry("B01'", d.nu, d.n, 2),
                    fraction_antisymmetry("B02'", d.mu, d.n, 2),
                    fraction_antisymmetry("B03'", d.omega, d.n, 3))
    grouped = all(check.passed for check in antisymmetry)
    reference = antisymmetry + (fraction_cyclic("B1'", d.omega, d.n, grouped),)
    _assert_same(CheckReport(is_deformation_type(d).checks[:4]), CheckReport(reference))


def test_the_deformation_candidates_fail_every_type_scan():
    failed = {c.name for d in CANDIDATES for c in is_deformation_type(d).failures()}
    assert failed >= {"B01'", "B02'", "B03'", "B1'"}
