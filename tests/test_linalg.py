"""Linear algebra over Q, and the elimination against two slow references.

``linalg._echelon`` reduces sparse rows sparsest first and back-substitutes
last pivot first, on primitive int rows.  The first reference is the former
dense loop (first row with a nonzero in the leftmost unprocessed column,
rows scanned in order) with the former augmented-matrix ``kernel_basis``,
``solve`` and ``inverse`` on top of it.  All of them compute the canonical
RREF, so they agree exactly, whatever the row order.  The second is the
former ``Fraction`` loop of ``_echelon`` itself, which divides by each lead
as it goes: ``_echelon`` works on and returns primitive int rows, which are
nonzero multiples of its rows, step by step, so it finds the same pivots in
the same order, and each returned row divided by its lead is its row.

The library's frozen records (``linalg.record``) are checked against
``dataclasses.dataclass(frozen=True)`` twins, which they replace.
"""

import copy
import dataclasses
import importlib
import math
import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from bolalg.algebra import CheckReport, ConditionCheck, maltsev_to_bol
from bolalg.cohomology import cohomology, coords_to_cochain
from bolalg.extension import (
    ExtensionEquivalence,
    InvalidExtensionError,
    semidirect_product,
)
from bolalg.linalg import (
    Mat,
    _certified_echelon,
    _echelon,
    _exact,
    _eliminate,
    _integer_row,
    image_rank,
    inverse,
    RrefResult,
    kernel_basis,
    record,
    replace,
    rref,
    solve,
    vec,
)
from bolalg.representation import PseudoderivationData, adjoint_representation

from .conftest import dense, hstack, make_so3, make_solvable, matrix_of, unit_vec
from .test_acceptance import _closure_corpus
from .test_basis_change import dense_basis, transport

COHOMOLOGY = importlib.import_module("bolalg.cohomology")
LINALG = importlib.import_module("bolalg.linalg")


def _assert_exact(*values):
    """Every entry is an exact Fraction: never an int, never a float."""
    for entries in values:
        assert all(type(x) is F for x in entries), entries


def frac_rows(rows):
    return Mat.from_rows([[F(x) for x in row] for row in rows])


def test_rref_identity():
    res = rref(Mat.identity(2))
    assert res.reduced == Mat.identity(2)
    assert res.pivots == (0, 1)
    assert res.rank == 2


def test_rref_zero():
    res = rref(Mat.zeros(3, 4))
    assert res.reduced == Mat.zeros(3, 4)
    assert res.pivots == ()
    assert res.rank == 0


def test_rref_rank_one():
    res = rref(frac_rows([[1, 2], [2, 4]]))
    assert res.reduced == frac_rows([[1, 2], [0, 0]])
    assert res.rank == 1


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(3)) == []


def test_kernel_zero_is_standard_basis():
    basis = kernel_basis(Mat.zeros(2, 3))
    assert basis == [unit_vec(3, 0), unit_vec(3, 1), unit_vec(3, 2)]


def test_kernel_canonical_form():
    assert kernel_basis(frac_rows([[1, 1]])) == [(F(-1), F(1))]


def test_solve_identity():
    b = vec([3, -2])
    assert solve(Mat.identity(2), b) == b


def test_solve_inconsistent():
    assert solve(frac_rows([[1, 0], [0, 0]]), vec([0, 1])) is None


def test_solve_scalar():
    assert solve(frac_rows([[2]]), vec([3])) == (F(3, 2),)


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(Mat.identity(2), vec([1, 2, 3]))


def _random_matrix(rng, rows, cols):
    if rows == 0:
        return Mat.zeros(0, cols)
    return Mat.from_rows([
        [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(cols)]
        for _ in range(rows)
    ])


def test_kernel_and_rank_on_random_matrices():
    rng = random.Random(101)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        basis = kernel_basis(m)
        assert image_rank(m) + len(basis) == cols
        for k in basis:
            assert m.apply(k) == (F(0),) * rows


def test_solve_satisfies_system_exactly():
    rng = random.Random(202)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = tuple(F(rng.randint(-3, 3)) for _ in range(cols))
        b = m.apply(x)
        s = solve(m, b)
        assert s is not None
        assert m.apply(s) == b


def test_rref_idempotent():
    rng = random.Random(303)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced = rref(m).reduced
        assert rref(reduced).reduced == reduced


def test_inverse_round_trip():
    rng = random.Random(404)
    hits = 0
    while hits < 10:
        m = _random_matrix(rng, 3, 3)
        try:
            minv = inverse(m)
        except ValueError:
            continue
        hits += 1
        assert m @ minv == Mat.identity(3)
        assert minv @ m == Mat.identity(3)
    with pytest.raises(ValueError):
        inverse(Mat.zeros(2, 2))


def test_matmul_and_hstack_shapes():
    a = frac_rows([[1, 2], [3, 4]])
    b = frac_rows([[0, 1], [1, 0]])
    assert a @ b == frac_rows([[2, 1], [4, 3]])
    assert hstack(a, b).shape == (2, 4)
    with pytest.raises(ValueError):
        a @ frac_rows([[1, 2, 3]])


def test_matrix_of_a_linear_map():
    rng = random.Random(7)
    for rows, cols in ((3, 4), (1, 5), (4, 1), (0, 2), (2, 0)):
        m = Mat.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                           for _ in range(rows)]) if rows else Mat.zeros(0, cols)
        assert matrix_of(m.apply, cols, rows) == m
    probes = []
    assert matrix_of(lambda v: probes.append(v) or v[::-1], 3, 3) == Mat.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert probes == [unit_vec(3, 0), unit_vec(3, 1), unit_vec(3, 2)]
    with pytest.raises(ValueError):
        matrix_of(lambda v: v[:1] if v[0] else v, 2, 2)  # ragged columns


@pytest.mark.parametrize("build", [vec, lambda v: Mat.from_rows([v]),
                                   lambda v: Mat.from_cols([v], rows=len(v))],
                         ids=["vec", "from_rows", "from_cols"])
def test_only_exact_scalars_are_coerced(build):
    got = build([3, F(1, 2), "-2/7"])
    assert tuple(getattr(got, "entries", got)) == (F(3), F(1, 2), F(-2, 7))
    for inexact in (0.1, 1.0, Decimal("0.5"), 1j, None):
        with pytest.raises(TypeError, match=re.escape(repr(inexact))):
            build([1, inexact])


class _Half(F):
    """A Fraction subclass: exact, but not the plain type every entry has."""


def test_an_exact_fraction_is_kept_and_everything_else_converted():
    q = F(-4, 6)
    assert _exact(q) is q
    for given, want in ((_Half(1, 2), F(1, 2)), (3, F(3)), (True, F(1)), ("-4/6", q)):
        got = _exact(given)
        assert type(got) is F and got == want
    for inexact in (0.5, Decimal("0.5"), 1j):
        with pytest.raises(TypeError, match=re.escape(repr(inexact))):
            _exact(inexact)


def test_a_matrix_is_scaled_by_exact_scalars_only():
    assert F(1, 2) * Mat.identity(1) == Mat(1, 1, (F(1, 2),))
    with pytest.raises(TypeError, match="0.5"):
        0.5 * Mat.identity(1)


INEXACT = (1.5, Decimal("0.5"), 2j)


def _assert_refused(call, x):
    """call() raises the TypeError of a Mat for the inexact entry x, which names
    what a matrix holds."""
    with pytest.raises(TypeError) as got:
        call()
    assert str(got.value) == f"not an int or a Fraction: {x!r}"


def _inexact_matrices(x):
    """Two makers of a 2 x 2 Mat holding x, written from its nonzero rows and from its
    entries; both are regular with x read as a number.  The constructor refuses x, and
    the elimination refuses it in the rows."""
    return (lambda: Mat._of_rows(2, (((0, F(1)), (1, x)), ((1, F(2)),))),
            lambda: Mat(2, 2, (F(1), x, F(0), F(2))))


@pytest.mark.parametrize("x", INEXACT, ids=["float", "Decimal", "complex"])
def test_rref_refuses_an_inexact_entry(x):
    for m in _inexact_matrices(x):
        _assert_refused(lambda: rref(m()), x)


@pytest.mark.parametrize("x", INEXACT, ids=["float", "Decimal", "complex"])
def test_kernel_basis_refuses_an_inexact_entry(x, monkeypatch):
    for m in _inexact_matrices(x):
        _assert_refused(lambda: kernel_basis(m()), x)
    routed = _calls(monkeypatch, "_certified_echelon")
    w = LINALG._DENSE_ROW
    dense_row = tuple((k, F(k + 1)) for k in range(w))
    rows = (dense_row, dense_row[:-1] + ((w - 1, x),))
    _assert_refused(lambda: kernel_basis(Mat._of_rows(w, rows)), x)
    assert len(routed) == 1


@pytest.mark.parametrize("x", INEXACT, ids=["float", "Decimal", "complex"])
def test_solve_refuses_an_inexact_entry_or_right_hand_side(x):
    for m in _inexact_matrices(x):
        _assert_refused(lambda: solve(m(), (F(1), F(1))), x)
    _assert_refused(lambda: solve(Mat.identity(2), (F(1), x)), x)
    _assert_refused(lambda: solve(Mat._of_rows(1, (((0, F(1)),), ())), (F(0), x)), x)


@pytest.mark.parametrize("x", INEXACT, ids=["float", "Decimal", "complex"])
def test_inverse_refuses_an_inexact_entry(x):
    for m in _inexact_matrices(x):
        _assert_refused(lambda: inverse(m()), x)


# ---------------------------------------------------------------------------
# the dense reference


def _dense_rref(m):
    """The former dense loop: leftmost unprocessed column, first row (in
    order) with a nonzero entry there."""
    grid = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if grid[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            grid[pr], grid[pivot_row] = grid[pivot_row], grid[pr]
        inv = F(1) / grid[pr][pc]
        if inv != 1:
            grid[pr] = [inv * x for x in grid[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            factor = grid[r][pc]
            if factor:
                prow = grid[pr]
                grid[r] = [x - factor * y for x, y in zip(grid[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return Mat(nrows, ncols, tuple(x for row in grid for x in row)), tuple(pivots)


def _dense_kernel(m):
    red, pivots = _dense_rref(m)
    basis = []
    for fc in (j for j in range(m.cols) if j not in pivots):
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis


def _dense_solve(m, b):
    red, pivots = _dense_rref(hstack(m, Mat.from_cols([b], rows=m.rows)))
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, m.cols]
    return tuple(x)


def _dense_inverse(m):
    n = m.rows
    red, pivots = _dense_rref(hstack(m, Mat.identity(n)))
    if pivots != tuple(range(n)):
        return None
    return Mat(n, n, tuple(x for i in range(n) for x in red.row(i)[n:]))


def _permuted(m, order):
    return Mat(m.rows, m.cols, tuple(x for i in order for x in m.row(i)))


def _calls(monkeypatch, name):
    """The argument tuples of every call of linalg's function ``name`` from now on;
    each call still runs it."""
    calls = []
    original = getattr(LINALG, name)
    monkeypatch.setattr(LINALG, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _transposed(m):
    """The transpose of a Mat: column i is row i of m."""
    return Mat.from_cols([m.row(i) for i in range(m.rows)], rows=m.cols)


def _canonical(echelon):
    """An echelon of primitive int rows as {pivot col: {col: Fraction}}, each row
    divided by its lead."""
    return {pc: {k: F(x, row[pc]) for k, x in row.items()} for pc, row in echelon.items()}


def _kernel_of(canonical, cols):
    """The kernel basis read off a canonical RREF: 1 at each free column fc, minus
    column fc of the RREF at the pivots."""
    basis = []
    for fc in (j for j in range(cols) if j not in canonical):
        v = [F(0)] * cols
        v[fc] = F(1)
        for pc, row in canonical.items():
            v[pc] = -row.get(fc, F(0))
        basis.append(tuple(v))
    return basis


def _assert_routes_agree(m, reduced, pivots, kernel):
    """Both routes of kernel_basis, called directly on the rows of m, give the
    dense reference's RREF (reduced, pivots) and kernel."""
    want = {pc: {k: x for k, x in enumerate(reduced.row(r)) if x} for r, pc in enumerate(pivots)}
    for echelon in (_echelon(m.nonzero_rows), _certified_echelon(m.nonzero_rows, m.cols)):
        got = _canonical(echelon)
        assert got == want
        assert _kernel_of(got, m.cols) == kernel


def _assert_matches_reference(m, rng):
    """rref, image_rank, kernel_basis, solve and inverse equal the dense reference,
    on m and on a shuffled and a reversed copy of its rows, each written both from
    its entries and from its nonzero rows (``Mat._of_rows``); both are one Mat, with
    one transpose.  Both routes of kernel_basis give the reference's RREF on each
    copy."""
    reduced, pivots = _dense_rref(m)
    kernel = _dense_kernel(m)
    x = tuple(F(rng.randint(-3, 3)) for _ in range(m.cols))
    rhs = [m.apply(x), tuple(F(rng.randint(-2, 2)) for _ in range(m.rows))]
    solutions = [_dense_solve(m, b) for b in rhs]
    assert solutions[0] is not None
    inv = _dense_inverse(m) if m.rows == m.cols else None
    shuffled = list(range(m.rows))
    rng.shuffle(shuffled)
    for order in (range(m.rows), shuffled, range(m.rows - 1, -1, -1)):
        pm = _permuted(m, order)
        _assert_routes_agree(pm, reduced, pivots, kernel)
        sparse = Mat._of_rows(pm.cols, pm.nonzero_rows)
        assert sparse == pm and sparse.entries == pm.entries
        assert dense(sparse.transpose()) == _transposed(pm)
        for form in (pm, sparse):
            res, basis = rref(form), kernel_basis(form)
            _assert_exact(res.reduced.entries, *basis)
            assert (res.reduced, res.pivots) == (reduced, pivots)
            assert image_rank(form) == len(pivots)
            assert basis == kernel
            for b, sol in zip(rhs, solutions):
                got = solve(form, tuple(b[i] for i in order))
                assert got == sol
                _assert_exact(got or ())
            if m.rows == m.cols:
                perm = _permuted(Mat.identity(m.rows), order)  # pm == perm @ m
                if inv is None:
                    with pytest.raises(ValueError):
                        inverse(form)
                else:
                    got = inverse(form)
                    assert got == inv @ _transposed(perm)
                    _assert_exact(got.entries)


def _random_sparse(rng, rows, cols, density):
    return Mat(rows, cols, tuple(
        F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) if rng.random() < density else F(0)
        for _ in range(rows * cols)))


def _deficient(rng, rows, cols):
    """rank <= k < min(rows, cols), with repeated and zero rows mixed in."""
    k = rng.randint(0, max(0, min(rows, cols) - 1))
    m = _random_sparse(rng, rows, k, 0.7) @ _random_sparse(rng, k, cols, 0.6)
    picked = [m.row(rng.randrange(rows)) for _ in range(rows)]  # rows repeat
    picked[rng.randrange(rows)] = (F(0),) * cols
    return Mat(rows, cols, tuple(x for row in picked for x in row))


def test_matches_the_dense_reference_on_random_matrices():
    rng = random.Random(505)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        _assert_matches_reference(_random_sparse(rng, rows, cols, rng.random()), rng)
        _assert_matches_reference(_deficient(rng, rows, cols), rng)
    for _ in range(20):  # dense, more rows than columns: the mod-p route drops rows
        rows, cols = rng.randint(6, 14), rng.randint(2, 6)
        _assert_matches_reference(_random_sparse(rng, rows, cols, 0.9), rng)
        _assert_matches_reference(_deficient(rng, rows, cols), rng)
    for _ in range(20):  # square, mostly invertible
        n = rng.randint(1, 6)
        _assert_matches_reference(_random_sparse(rng, n, n, 0.8), rng)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (0, 1), (1, 0)])
def test_matches_the_dense_reference_on_empty_shapes(shape):
    rows, cols = shape
    m = Mat.zeros(rows, cols)
    _assert_matches_reference(m, random.Random(606))
    assert rref(m).reduced == m and rref(m).pivots == ()
    assert kernel_basis(m) == [unit_vec(cols, j) for j in range(cols)]
    assert solve(m, (F(0),) * rows) == (F(0),) * cols
    if rows:
        assert solve(m, (F(1),) * rows) is None
    if rows == cols:
        assert inverse(m) == m


def _constraint_modules():
    return ([adjoint_representation(maltsev_to_bol(make_so3())),
             adjoint_representation(maltsev_to_bol(make_solvable(3)))]
            + [R for _, R in _closure_corpus()])


def _constraint_matrix(R, monkeypatch):
    """The deduplicated constraint matrix cohomology(R) hands to kernel_basis, and
    the report."""
    seen = []
    original = COHOMOLOGY.kernel_basis
    monkeypatch.setattr(COHOMOLOGY, "kernel_basis",
                        lambda matrix: seen.append(matrix) or original(matrix))
    report = cohomology(R)
    return seen[0], report


@pytest.mark.parametrize("index", range(5))
def test_matches_the_dense_reference_on_constraint_matrices(index, monkeypatch):
    m = dense(_constraint_matrix(_constraint_modules()[index], monkeypatch)[0])
    assert m.rows and m.cols
    _assert_matches_reference(m, random.Random(707 + index))


def test_int_entries_come_back_as_fractions():
    """A Mat built directly from ints still yields exact Fractions, never floats."""
    singular, regular = Mat(2, 2, (2, 1, 4, 2)), Mat(3, 3, (2, 1, 0, 1, 1, 0, 0, 3, 4))
    outputs = [rref(singular).reduced.entries, rref(regular).reduced.entries,
               *kernel_basis(singular), *kernel_basis(Mat(1, 3, (3, 1, 2))),
               solve(regular, (3, 4, 5)), solve(singular, (1, 2)),
               inverse(regular).entries]
    assert rref(singular).reduced.entries == (1, F(1, 2), 0, 0)
    assert kernel_basis(singular) == [(F(-1, 2), 1)]
    _assert_exact(*outputs)
    rng = random.Random(808)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat(rows, cols, tuple(rng.choice((0, 0, 1, -1, 2, -3, 6))
                                  for _ in range(rows * cols)))
        b = tuple(rng.randint(-3, 3) for _ in range(rows))
        _assert_exact(rref(m).reduced.entries, *kernel_basis(m), solve(m, b) or ())
        if rows == cols:
            try:
                _assert_exact(inverse(m).entries)
            except ValueError:
                pass


# ---------------------------------------------------------------------------
# the Fraction reference of _echelon


def _subtract(row, f, prow):
    for k, x in prow.items():
        y = row.get(k, F(0)) - f * x
        if y:
            row[k] = y
        else:
            del row[k]


def _fraction_echelon(rows):
    """The former body of linalg._echelon: one Fraction operation per fill-in
    entry, each new pivot row divided by its lead when it is found."""
    echelon = {}
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            prow = echelon.get(lead)
            if prow is None:
                inv = F(1) / row[lead]
                echelon[lead] = {k: inv * x for k, x in row.items()}
                break
            _subtract(row, row[lead], prow)
    for pc in sorted(echelon, reverse=True):
        row = echelon[pc]
        for k in [k for k in row if k > pc and k in echelon]:
            _subtract(row, row[k], echelon[k])
    return echelon


def _assert_echelon_matches(rows):
    """The Fraction loop's dict once each returned row is divided by its lead,
    pivots inserted in the same order; the returned rows are primitive ints,
    and the input rows are left as they were."""
    given = copy.deepcopy(rows)
    expected = _fraction_echelon([{k: F(x) for k, x in dict(row).items()} for row in rows])
    got = _echelon(rows)
    assert {pc: {k: F(x, row[pc]) for k, x in row.items()} for pc, row in got.items()} == expected
    assert list(got) == list(expected)
    for row in got.values():
        assert all(type(x) is int for x in row.values()) and math.gcd(*row.values()) == 1
    assert rows == given
    return got


def test_rows_stay_primitive_ints():
    assert _integer_row({0: F(2, 3), 4: F(-4, 9)}) == {0: 3, 4: -2}
    assert _integer_row({2: F(-5)}) == {2: -1}
    assert _integer_row({}) == {}
    # g = gcd(9, 6) = 3: (9/g)*row - (6/g)*prow = {1: 10, 2: 15}, then divided by 5
    assert _eliminate({0: 6, 1: 4, 2: 5}, {0: 9, 1: 1}, 0) == {1: 2, 2: 3}
    # a negative pivot lead negates the row
    assert _eliminate({0: 2, 1: 1}, {0: -4, 1: 3}, 0) == {1: -1}


@pytest.fixture
def checked_echelon(monkeypatch):
    """Every _echelon call checked against the Fraction loop; returns the
    inputs seen."""
    seen = []

    def checked(rows):
        seen.append(rows)
        return _assert_echelon_matches(rows)

    monkeypatch.setattr(LINALG, "_echelon", checked)
    return seen


_DENOMINATORS = (1, 1, 2, 3, 7, 101, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1)


def _random_rows(rng, nrows, ncols):
    """Sparse rational rows with prime denominators (two of them over 64
    bits), negative leads, zero rows, repeated rows, multiples of other rows
    and columns no row touches."""
    used = [j for j in range(ncols) if rng.random() < 0.8]
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and roll < 0.3:
            s = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(_DENOMINATORS))
            rows.append({k: s * x for k, x in rng.choice(rows).items()})
        elif roll < 0.4:
            rows.append({})
        else:
            rows.append({j: F(rng.choice((-1, 1)) * rng.randint(1, 2**rng.choice((3, 70))),
                              rng.choice(_DENOMINATORS))
                         for j in used if rng.random() < 0.6})
    return rows


def test_echelon_matches_the_fraction_loop_on_random_rows():
    rng = random.Random(909)
    negative_leads = big_denominators = 0
    for _ in range(150):
        rows = _random_rows(rng, rng.randint(1, 9), rng.randint(1, 8))
        leads = [row[min(row)] for row in rows if row]
        negative_leads += any(x < 0 for x in leads)
        big_denominators += any(x.denominator.bit_length() > 64
                                for row in rows for x in row.values())
        _assert_echelon_matches(rows)
    assert negative_leads > 50 and big_denominators > 50


@pytest.mark.parametrize("rows", [[], [{}], [{}, {}, {}], [{0: F(-3, 2**89 - 1)}] * 3,
                                  [{5: F(-2)}, {5: F(4, 3)}, {}]])
def test_echelon_matches_the_fraction_loop_on_degenerate_rows(rows):
    _assert_echelon_matches(rows)


def test_solve_and_inverse_rows_match_the_fraction_loop(checked_echelon):
    rng = random.Random(1010)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_sparse(rng, n, n, 0.7)
        solve(m, tuple(F(rng.randint(-3, 3), rng.choice(_DENOMINATORS)) for _ in range(n)))
        try:
            inverse(m)
        except ValueError:
            pass
    assert len(checked_echelon) == 60  # one elimination per solve and per inverse


@pytest.mark.parametrize("make, dim_z", [(make_so3, 6), (lambda: make_solvable(3), 13)],
                         ids=["so3", "sol3"])
def test_dense_basis_constraint_rows_match_the_fraction_loop(make, dim_z, checked_echelon,
                                                             monkeypatch):
    """Every elimination of a cohomology() run in a seeded dense rational basis (on
    the mod-p route, of the rows it selects), and the elimination of all the
    distinct constraint rows."""
    moved = transport(maltsev_to_bol(make()), dense_basis(random.Random(11), 3))
    checked_echelon.clear()  # transport's own inverse
    matrix, report = _constraint_matrix(adjoint_representation(moved), monkeypatch)
    rows = matrix.nonzero_rows  # the distinct constraint rows, primitive ints
    assert len(rows) > 36 and sum(map(len, rows)) > 6 * len(rows)
    _assert_echelon_matches(rows)
    # rational rows: some row scaled to a leading 1 has an entry that is not an int
    assert any(F(x, row[0][1]).denominator > 1 for row in rows for _, x in row)
    assert report.dim_Z == dim_z


# ---------------------------------------------------------------------------
# the mod-p route of kernel_basis


@pytest.mark.parametrize("q, primes, eliminated", [
    (LINALG._PRIMES[0], LINALG._PRIMES[:2], [1, 2]),
    (math.prod(LINALG._PRIMES), LINALG._PRIMES, [1, 1, 1, 2]),
], ids=["retry", "fallback"])
def test_a_rank_lost_mod_a_prime_is_caught_by_the_certificate(q, primes, eliminated,
                                                              monkeypatch):
    """Rows (1, 1, ...) and (1, 1 + q, ...) are independent, their leading 2 x 2
    minor being q, but lose rank mod every prime dividing q: the certificate
    refuses the one row selected, and the next prime (retry) or, past the last
    prime, the elimination of every row (fallback) gives the exact kernel."""
    selected = _calls(monkeypatch, "_independent_mod")
    sizes = _calls(monkeypatch, "_echelon")
    tail = list(range(1, LINALG._DENSE_ROW - 1))  # the mod-p route's nonzeros a row
    m = Mat.from_rows([[1, 1] + tail, [1, 1 + q] + tail])
    kernel = kernel_basis(m)
    assert kernel == _dense_kernel(m)
    assert kernel[0] == (F(-1), F(0), F(1)) + (F(0),) * (len(tail) - 1)
    assert [p for _, _, p in selected] == list(primes)
    assert [len(rows) for rows, in sizes] == eliminated


def _independent_mod_reference(rows, cols, p):
    """The rows, in order, that raise the rank mod p: dense elimination mod p, each
    row reduced by the kept rows in the order of their leads."""
    echelon, kept = {}, []
    for row in rows:
        v = [0] * cols
        for k, x in row.items():
            v[k] = x % p
        for lead in sorted(echelon):
            v = [(a - v[lead] * b) % p for a, b in zip(v, echelon[lead])]
        if any(v):
            lead = next(k for k, a in enumerate(v) if a)
            inverse = pow(v[lead], -1, p)
            echelon[lead] = [a * inverse % p for a in v]
            kept.append(row)
    return kept


@pytest.mark.parametrize("p", [2, 3, 32749, 2**19 - 1, 2**25 - 39])
def test_the_selection_keeps_the_rows_that_raise_the_rank_mod_p(p):
    """At these sizes (at most 12 columns) the slots of the pivot rows are
    reduced mod p again every few new pivots at p = 2**19 - 1 (5 at 12 rows and
    columns) and after each one at p = 2**25 - 39, so that every slot stays
    within its 64 bits; at the primes of kernel_basis, and below, never."""
    rng = random.Random(1212)
    for _ in range(40):
        rows, cols = rng.randint(1, 30), rng.randint(1, 12)
        m = _random_sparse(rng, rows, cols, rng.random()) if rng.random() < 0.5 else _deficient(
            rng, rows, cols)
        int_rows = [_integer_row(row) for row in m.nonzero_rows]
        for row in int_rows:  # multiples of p: the rank mod p drops
            if row and rng.random() < 0.2:
                row[min(row)] *= p
        assert LINALG._independent_mod(int_rows, cols, p) == _independent_mod_reference(
            int_rows, cols, p)


@pytest.mark.parametrize("j", [1, 5, 64, 200])
def test_the_certificate_slots_do_not_carry_into_each_other(j):
    """Against the pivot row e0, the row -2**j e1 + e2 leaves slots -2**j and 1 at
    the free columns 1 and 2: packed in slots of j bits they would sum to 0."""
    assert not LINALG._spans({0: {0: 1}}, [{1: -2**j, 2: 1}], 3)
    assert LINALG._spans({0: {0: 1, 1: -2**j}}, [{0: 3, 1: -3 * 2**j}, {}], 3)


def test_solvable_n4_in_a_dense_basis(monkeypatch):
    """The adjoint cohomology of e0*ek = k ek, n = 4, in a seeded dense basis: its
    dims do not depend on the basis, and the mod-p route gives the Z basis of
    the elimination of every row."""
    R = adjoint_representation(transport(maltsev_to_bol(make_solvable(4)),
                                         dense_basis(random.Random(4), 4)))
    routed = _calls(monkeypatch, "_certified_echelon")
    matrix, report = _constraint_matrix(R, monkeypatch)
    assert (report.dim_C, report.dim_Z, report.dim_B, report.dim_H) == (120, 28, 10, 18)
    assert len(routed) == 1 and len(routed[0][0]) == matrix.rows > 700
    exact = _kernel_of(_canonical(_echelon(matrix.nonzero_rows)), matrix.cols)
    assert report.z_basis == tuple(coords_to_cochain(R.base, R.m, v) for v in exact)


# ---------------------------------------------------------------------------
# frozen records against dataclasses


@record
class _Point:
    x: int
    y: object = None
    z: tuple = ()


@dataclasses.dataclass(frozen=True)
class _DataPoint:
    x: int
    y: object = None
    z: tuple = ()


_E = (F(1), F(0), F(-2, 3), F(5))
_RECORDS = [  # (record class, field values)
    (_Point, (1, "y", (2, 3))),
    (Mat, (2, 2, _E)),
    (RrefResult, (Mat.identity(2), (0, 1))),
    (ConditionCheck, ("B1", False, (0, 1), (F(1), F(0)))),
    (ConditionCheck, ("B1", True, None, None)),
    (CheckReport, ((ConditionCheck("B1", True), ConditionCheck("B2", False, (1,), (F(2),))),)),
    (PseudoderivationData, (Mat.zeros(1, 2), (F(1, 2),))),
    (ExtensionEquivalence, ("equivalent", True, Mat.identity(1))),
]


def _twin(cls):
    """A dataclass(frozen=True) with the fields of the record class cls, under its name."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


@pytest.mark.parametrize("cls, values", _RECORDS,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(_RECORDS)])
def test_a_record_equals_hashes_and_shows_as_its_dataclass_twin(cls, values):
    obj, twin = cls(*values), _twin(cls)(*values)
    assert tuple(getattr(obj, f) for f in cls._fields) == values
    assert hash(obj) == hash(twin) == hash(values)
    assert repr(obj) == repr(twin)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj.__eq__(twin) is twin.__eq__(obj) is NotImplemented
    assert obj != twin and obj != values


@pytest.mark.parametrize("M", [
    Mat(2, 2, _E), Mat(3, 3, (F(1), F(0), F(0)) + (F(0),) * 3 + (F(0), F(0), F(-1))),
    Mat.zeros(2, 3), Mat.zeros(0, 2), Mat.zeros(2, 0), Mat(1, 3, (F(0), F(7, 2), F(-1)))])
def test_a_matrix_written_from_its_rows_is_the_matrix_written_from_its_entries(M):
    rows = Mat._of_rows(M.cols, M.nonzero_rows)
    assert rows == M and not rows != M and (rows.rows, rows.cols) == M.shape
    assert hash(rows) == hash(M) and repr(rows) == repr(M) and rows.entries == M.entries
    assert rows.transpose() == M.transpose() == _transposed(M)
    assert rows.transpose().nonzero_rows == M.transpose().nonzero_rows


@pytest.mark.parametrize("M", [Mat(2, 2, (1, 2, 3, 4)),
                               Mat._of_rows(2, (((0, 1), (1, 2)), ((0, 3), (1, 4))))],
                         ids=["entries", "rows"])
def test_an_index_outside_the_shape_raises(M):
    assert [M[i, j] for i in range(2) for j in range(2)] == [1, 2, 3, 4]
    assert (M.row(0), M.row(1), M.col(0), M.col(1)) == ((1, 2), (3, 4), (1, 3), (2, 4))
    for key in ((0, 2), (0, -1), (2, 0), (-1, 0), (-1, -1)):
        with pytest.raises(IndexError):
            M[key]
    for i in (2, -1, -3):
        with pytest.raises(IndexError):
            M.row(i)
        with pytest.raises(IndexError):
            M.col(i)


def test_the_algebras_keep_their_init_and_repr_and_hash_as_their_fields():
    A = maltsev_to_bol(make_so3())
    assert hash(A) == hash((A.n, A.form, A.basis_names))
    assert repr(A).startswith("BolAlgebra(n=3, c=(") and "t=(" in repr(A)
    assert A == maltsev_to_bol(make_so3()) and A != make_so3()


@pytest.mark.parametrize("obj", [_Point(1), _DataPoint(1), Mat.identity(1),
                                 maltsev_to_bol(make_so3())], ids=lambda obj: type(obj).__name__)
def test_a_record_cannot_be_changed(obj):
    for name in ("x", "rows", "n", "new"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("cls", [_Point, _DataPoint])
def test_a_record_takes_keywords_and_defaults_as_a_dataclass(cls):
    assert cls(1) == cls(x=1) == cls(1, None, ()) == cls(z=(), x=1)
    assert cls(1) != cls(2) and cls(1) != cls(1, 0) and cls(1, z=(2,)) != cls(1)
    assert cls(1, z=(4,)).z == (4,) and cls(1, z=(4,)).y is None
    for args, kwargs in (((), {}), ((), {"y": 2}), ((1, 2, 3, 4), {}), ((1,), {"w": 2}),
                         ((1,), {"x": 2})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_a_patched_post_init_is_called(monkeypatch):
    seen = []
    check = Mat.__post_init__
    monkeypatch.setattr(Mat, "__post_init__", lambda self: seen.append(self.shape) or check(self))
    Mat(1, 2, (F(1), F(2)))
    assert seen == [(1, 2)]
    monkeypatch.setattr(_Point, "__post_init__", lambda self: seen.append(self.x), raising=False)
    _Point(3)
    assert seen == [(1, 2)]  # _Point had no __post_init__ when it was made a record


def test_replace_rebuilds_through_the_constructor():
    m = Mat(2, 2, _E)
    assert replace(m) == m and replace(m, entries=_E[::-1]) == Mat(2, 2, _E[::-1])
    with pytest.raises(ValueError, match="entry count 4 != 3x2"):
        replace(m, rows=3)
    with pytest.raises(TypeError):
        replace(m, depth=1)
    with pytest.raises(TypeError, match=re.escape(repr(0.5))):
        replace(m, entries=(0.5,) + _E[1:])
    E = semidirect_product(adjoint_representation(maltsev_to_bol(make_so3())))
    assert replace(E, sigma=E.sigma) == E
    with pytest.raises(InvalidExtensionError, match="injection must be 6x3"):
        replace(E, i=Mat.zeros(6, 2))
    assert dataclasses.replace(_DataPoint(1), y=2) == _DataPoint(1, 2)  # the same call


@pytest.mark.parametrize("x", [0.5, Decimal("0.5"), 1j, "1/2", "1", None])
def test_a_matrix_holds_only_ints_and_fractions(x):
    assert Mat(1, 3, (1, F(1, 2), -4)).entries == (1, F(1, 2), -4)
    # the refusal names what a Mat holds: a str is exact to _exact, but no Mat entry
    refusal = re.escape(f"not an int or a Fraction: {x!r}")
    with pytest.raises(TypeError, match=refusal):
        Mat(1, 3, (1, F(1, 2), x))
    with pytest.raises(TypeError, match=refusal):
        Mat(1, 1, (x,))
