"""The packed residuals of R1-R33 and the Delta identity against their term lists.

``verify_representation`` and ``check_delta_identity`` add up each residual in
one int of m * m signed slots (``representation._packed_map``), test it
against 0 and read it as row-major ints only where it is not 0
(``_unpack_signed``).  ``conftest.matrix_sum_residuals`` keeps the former
statement of the same residuals: lists of terms (s, A) and (s, A, B), added
up entry by entry (``conftest._matrix_sum``).  At every tuple of every scan,
passing and failing, the packed residual must equal that sum.  The inputs
are the representations of ``test_sparse_scans``, and the two modules the
benchmark plants in sol3 (+) so3, whose D is not antisymmetric, so that
every tuple is scanned.

The slot width comes from a bound (``_slot_width``).  The tests below push
it: entries near 2**200 over distinct-prime denominators, residual entries
of both signs at the top of the slot range, a negative slot below a positive
one (which borrows from it), m = 0, m = 1, n = 0 and n = 1, and a round trip
of pack and decode at the least width.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from bolalg import representation
from bolalg.algebra import BolAlgebra, _over, _scan
from bolalg.linalg import Mat
from bolalg.representation import (
    Representation,
    _antisymmetry_failure,
    _packed_map,
    _product,
    _slot_width,
    _unpack_signed,
    adjoint_representation,
    check_delta_identity,
    verify_representation,
)

from .conftest import (
    fraction_check_delta_identity,
    fraction_verify_representation,
    make_b2,
    matrix_sum_residuals,
)
from .test_sparse_scans import (
    PLANTED_BASE,
    REPRESENTATIONS,
    _assert_same,
    _perturbed,
    _reference_representation,
)

CONDITIONS = ("R1", "R21", "R22", "R31", "R32", "R33", "delta-identity")


def _scanned(monkeypatch, R) -> list:
    """(name, idx, residual) at every tuple of the R1-R33 and Delta-identity scans of a
    copy of R that keeps nothing from an earlier scan, in scan order."""
    seen = []

    def scan_every_tuple(name, tuples, residual_fn):
        tuples = list(tuples)
        seen.extend((name, idx, residual_fn(*idx)) for idx in tuples)
        return _scan(name, tuples, residual_fn)
    R = Representation._of_form(R.base, R.m, R.form)
    with monkeypatch.context() as patch:
        patch.setattr(representation, "_scan", scan_every_tuple)
        verify_representation(R)
        check_delta_identity(R)
    return seen


def _assert_packed_as_the_term_lists(monkeypatch, R) -> list:
    seen = _scanned(monkeypatch, R)
    reference = matrix_sum_residuals(R)
    for name, idx, r in seen:
        terms, denominator = reference[name]
        assert r == _over(terms(*idx), denominator), (name, idx)
        assert all(type(x) is F for x in r), (name, idx)
    return seen


def _assert_as_the_fraction_scans(R) -> None:
    _assert_same(verify_representation(R), fraction_verify_representation(R))
    _assert_same(check_delta_identity(R), fraction_check_delta_identity(R))


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_every_packed_residual_is_the_term_list_sum(monkeypatch, index):
    _assert_packed_as_the_term_lists(monkeypatch, REPRESENTATIONS[index])


def test_the_inputs_give_zero_and_failing_residuals_of_every_condition(monkeypatch):
    zero, failing = set(), set()
    for R in REPRESENTATIONS:
        for name, _, r in _scanned(monkeypatch, R):
            (failing if any(r) else zero).add(name)
    assert zero == failing == set(CONDITIONS)


@pytest.mark.parametrize("i, j", ((0, 1), (3, 4)), ids=("early", "late"))
def test_the_planted_verify_rep_modules_equal_the_term_lists_at_every_tuple(monkeypatch, i, j):
    # entry (i, i) of D(e_i, e_j) of the sol3 (+) so3 adjoint module moves, as in the
    # benchmark's verify-rep plants: D is then not antisymmetric, and every tuple is scanned
    R = _perturbed(adjoint_representation(PLANTED_BASE), "D", i, j, i, i)
    assert _antisymmetry_failure(R) is not None
    seen = _assert_packed_as_the_term_lists(monkeypatch, R)
    n = R.base.n
    assert Counter(name for name, _, _ in seen) == {
        "R1": n**2, "R21": n**3, "R22": n**3, "R31": n**4, "R32": n**4, "R33": n**4,
        "delta-identity": n**4}
    assert any(any(r) for _, _, r in seen) and not all(any(r) for _, _, r in seen)
    report = verify_representation(R)
    assert report.first_failure().name == "R1" and report["R1"].witness == (i, j)
    _assert_same(report, _reference_representation(R))


# ---------------------------------------------------------------------------
# the slot width


def _primes(count: int, above: int = 1000) -> list:
    out = []
    for k in itertools.count(above + 1):
        if all(k % p for p in range(2, math.isqrt(k) + 1)):
            out.append(k)
            if len(out) == count:
                return out


def _huge_representation(antisymmetric: bool) -> Representation:
    """B and R on n = 3, m = 2 with entries +-(2**200 + k)/p, every p a distinct prime; D is
    antisymmetric or not, so the scans visit the orbit representatives or every tuple."""
    rng, primes = random.Random(200), iter(_primes(200))
    n, m = 3, 2
    huge = lambda: F(rng.choice((1, -1)) * (2**200 + rng.randrange(2**20)), next(primes))
    some = lambda: {k: huge() for k in range(n) if rng.random() < 0.6}
    pairs = list(itertools.combinations(range(n), 2))
    B = BolAlgebra.from_entries(n, [(ij, some()) for ij in pairs],
                                [(ij + (k,), some()) for ij in pairs for k in range(n)])
    mat = lambda: Mat.from_rows([[huge() if rng.random() < 0.6 else 0 for _ in range(m)]
                                 for _ in range(m)])
    grid = lambda: [[mat() for _ in range(n)] for _ in range(n)]
    D = grid()
    if antisymmetric:
        for i, j in itertools.product(range(n), repeat=2):
            D[i][j] = Mat.zeros(m, m) if i == j else -D[j][i] if i > j else D[i][j]
    return Representation(B, m, tuple(mat() for _ in range(n)), tuple(map(tuple, D)),
                          tuple(map(tuple, grid())))


@pytest.mark.parametrize("antisymmetric", (True, False), ids=("grouped", "every-tuple"))
def test_entries_near_2_200_over_distinct_primes(monkeypatch, antisymmetric):
    R = _huge_representation(antisymmetric)
    assert (_antisymmetry_failure(R) is None) is antisymmetric
    assert (R.base.form[0] * R.form[0] ** 2).bit_length() > 300
    assert all(abs(x.numerator) > 2**190 for mat in R.rho for x in mat.entries if x)
    seen = _assert_packed_as_the_term_lists(monkeypatch, R)
    assert {name for name, _, r in seen if any(r)} == set(CONDITIONS)
    _assert_as_the_fraction_scans(R)


def _b2_module(D01=None, theta01=None) -> Representation:
    """A module of b2 on V = Q^2: D(e0, e1) = -D(e1, e0) = D01, theta(e0, e1) = theta01, every
    other map 0."""
    zero = Mat.zeros(2, 2)
    D01, theta01 = (zero if mat is None else mat for mat in (D01, theta01))
    return Representation(make_b2(1), 2, (zero, zero), ((zero, D01), (-D01, zero)),
                          ((zero, theta01), (zero, zero)))


def test_residual_entries_of_both_signs_at_the_top_of_the_slot_range(monkeypatch):
    # theta(e0, e1) = X [[1, -1], [1, -1]] squares to 0, so every residual entry is +-X: R1
    # fails first with X and -X, which the least width w for X puts at +-(2**(w-1) - 1)
    X = 2**64 - 1
    R = _b2_module(theta01=Mat.from_rows([[X, -X], [X, -X]]))
    reference = matrix_sum_residuals(R)
    largest = max(abs(x) for name, idx, _ in _scanned(monkeypatch, R)
                  for x in reference[name][0](*idx))
    least = largest.bit_length() + 1
    assert largest == 2 ** (least - 1) - 1 == X
    assert least < _slot_width(9, 1, 2, X)
    monkeypatch.setattr(representation, "_slot_width", lambda *bound: least)
    _assert_packed_as_the_term_lists(monkeypatch, R)
    _assert_as_the_fraction_scans(R)
    report = verify_representation(R)
    assert report.first_failure().name == "R1"
    assert report["R1"].witness == (0, 1) and report["R1"].residual == (X, -X, X, -X)


def test_a_negative_slot_below_a_positive_one_borrows_from_it(monkeypatch):
    # R1 at (0, 1) is D(e0, e1) = [[-1, 1], [0, 0]]: the packed int is 2**w - 1
    R = _b2_module(D01=Mat.from_rows([[-1, 1], [0, 0]]))
    assert _unpack_signed((1 << 5) - 1, 5, 2) == [-1, 1]
    report = verify_representation(R)
    assert report["R1"].witness == (0, 1) and report["R1"].residual == (-1, 1, 0, 0)
    _assert_packed_as_the_term_lists(monkeypatch, R)
    _assert_as_the_fraction_scans(R)


def _random_module(B: BolAlgebra, m: int, seed: int) -> Representation:
    rng = random.Random(seed)
    mat = lambda: Mat.from_rows([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
    grid = lambda: tuple(tuple(mat() for _ in range(B.n)) for _ in range(B.n))
    return Representation(B, m, tuple(mat() for _ in range(B.n)), grid(), grid())


@pytest.mark.parametrize("make", [
    lambda: Representation.zero(BolAlgebra.zero(0), 2),
    lambda: Representation.zero(make_b2(1), 0),
    lambda: _random_module(make_b2(1), 1, 1),
    lambda: _random_module(BolAlgebra.zero(1), 2, 2),
], ids=("n=0", "m=0", "m=1", "n=1"))
def test_the_empty_and_one_dimensional_edges(monkeypatch, make):
    R = make()
    seen = _assert_packed_as_the_term_lists(monkeypatch, R)
    _assert_as_the_fraction_scans(R)
    checks = verify_representation(R).checks + check_delta_identity(R).checks
    assert tuple(c.name for c in checks) == CONDITIONS
    if R.base.n == 0 or R.m == 0:  # no tuple, or only residuals of no entries
        assert all(c.passed for c in checks)
        assert all(r == () for _, _, r in seen) and (R.base.n == 0) is (seen == [])
    else:  # D(e0, e0) or D(e1, e1) is not 0: every tuple is scanned, and some fail
        assert _antisymmetry_failure(R) is not None and not all(c.passed for c in checks)


def test_the_slot_width_is_the_least_above_its_bound():
    for terms, scale, m, entry in ((0, 1, 1, 1), (1, 1, 0, 5), (1, 1, 1, 1), (3, 2, 2, 7),
                                   (7, 3**40, 5, 2**200 + 1)):
        w, bound = _slot_width(terms, scale, m, entry), terms * scale * m * entry**2
        assert bound < 2 ** (w - 1) and (bound == 0 and w == 1 or 2 ** (w - 2) <= bound)


@pytest.mark.parametrize("seed", range(24))
def test_pack_and_decode_round_trip_at_the_least_width(seed):
    rng = random.Random(seed)
    top = 2 ** rng.choice((0, 1, 7, 63, 64, 200)) - 1
    value = lambda: rng.choice((0, top, -top, rng.randint(-top, top)))
    # a vector, its lowest slot reading -2**(w-1) when it is not empty
    size = rng.randint(0, 9)
    w = top.bit_length() + 1
    v = [value() for _ in range(size)] + [top]
    v[0] = -top - 1 if top else 0
    assert _unpack_signed(sum(x << (w * k) for k, x in enumerate(v)), w, len(v)) == v
    # an m x m matrix at the least width for its entries, and its square at the least width
    # for the bound of a product
    m = rng.randint(0, 4)
    entries = [[value() for _ in range(m)] for _ in range(m)]
    rows = tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in entries)
    largest = max((abs(x) for row in entries for x in row), default=0)
    w = largest.bit_length() + 1
    A, cols, packed_rows = _packed_map(rows, m, w)
    assert _unpack_signed(A, w, m * m) == [x for row in entries for x in row]
    assert [_unpack_signed(row, w, m) for row in packed_rows] == entries
    assert [l for l, _ in cols] == [l for l in range(m) if any(row[l] for row in entries)]
    for l, col in cols:
        assert _unpack_signed(col, w, m * m) == [
            entries[k // m][l] if k % m == 0 else 0 for k in range(m * m)]
    w = _slot_width(1, 1, m, largest)
    a = _packed_map(rows, m, w)
    assert _unpack_signed(_product(a, a), w, m * m) == [
        sum(entries[r][l] * entries[l][c] for l in range(m)) for r in range(m) for c in range(m)]
