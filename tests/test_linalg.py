import random
from fractions import Fraction as F

import pytest

from bolalg.linalg import (
    Mat,
    hstack,
    image_rank,
    inverse,
    kernel_basis,
    matrix_of,
    rref,
    solve,
    unit_vec,
    vec,
)


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
