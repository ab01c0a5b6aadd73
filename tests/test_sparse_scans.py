"""The sparse first-failure scans against the dense scans they replaced.

``verify_bol`` (B01-B3), ``verify_maltsev`` (anticommutativity, Sagle's
identity), ``verify_representation`` (R1-R33) and ``check_delta_identity``
add up only the nonzero terms of the sparse forms kept on each algebra and
representation; the axiom scans of ``verify_bol`` and ``verify_maltsev``
add up integer numerators over one common denominator.  The dense Fraction residuals they replaced
are kept here as the slow reference.  Every report must equal the
reference report: the same first failing tuple, and a residual equal in
value with every entry a ``Fraction``.  The inputs fail every condition
somewhere: random candidates fail near the first tuple, single-entry
defects planted in sol3 (+) so3 fail at every depth of the scans, and
defects planted in a basis with distinct-prime denominators fail late
behind a common denominator of over 100 bits.  The ternary product
``maltsev_to_bol`` adds up from the integer form is compared with the
former one, six dense products per triple.

Once the antisymmetries a scan sits on hold, it visits only the orbit
representatives of ``slot_tuples``; that holds for verify_bol, the R and
Delta scans, is_cocycle, the deformation-type and first-order-formal
scans and the homomorphism scans of validate_extension.  The last section
compares each with its scan of every tuple (``itertools.product``), on
defects planted at every position, and on inputs whose antisymmetry
fails, where every tuple is scanned and a witness may have x > y.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg import algebra
from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    _coeffs,
    _scan,
    entry_args,
    maltsev_to_bol,
    slot_tuples,
    verify_bol,
    verify_maltsev,
)
from bolalg.cohomology import (
    CochainPair,
    coboundary_of,
    cohomology,
    coords_to_cochain,
    is_cocycle,
)
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    is_deformation_type,
)
from bolalg.extension import semidirect_product, twisted_product, validate_extension
from bolalg.formats import parse_algebra
from bolalg.linalg import Mat, inverse, replace, vec_add, vec_scale, vec_sub
from bolalg.representation import (
    PseudoderivationData,
    Representation,
    _antisymmetry_failure,
    adjoint_representation,
    check_delta_identity,
    verify_representation,
)

from .conftest import (
    DATA,
    commutator,
    dense_b2p_residual,
    dense_o3_residual,
    fraction_antisymmetry,
    fraction_cyclic,
    freeze,
    make_b2,
    make_m0,
    make_maltsev_dim4,
    make_so3,
    make_solvable,
    random_fraction,
    random_representation_corpus,
    rho_of,
    sum_slot_tuples,
    tabulate,
    unit_vec,
    zeros,
)
from .test_basis_change import _unitriangular, dense_basis, transport
from .test_acceptance import _closure_corpus

# ---------------------------------------------------------------------------
# the former dense residuals


def _b2(B, x, y, u, v):
    # [x,y,u*v] - [x,y,u]*v - u*[x,y,v] - [u,v,x*y] + (u*v)*(x*y)
    uv = B.basis_product(u, v)
    xy = B.basis_product(x, y)
    r = B.triple(x, y, uv)
    r = vec_sub(r, B.product(B.basis_triple(x, y, u), v))
    r = vec_sub(r, B.product(u, B.basis_triple(x, y, v)))
    r = vec_sub(r, B.triple(u, v, xy))
    return vec_add(r, B.product(uv, xy))


def _b3(B, x, y, u, v, w):
    # [x,y,[u,v,w]] - [[x,y,u],v,w] - [u,[x,y,v],w] - [u,v,[x,y,w]]
    r = B.triple(x, y, B.basis_triple(u, v, w))
    r = vec_sub(r, B.triple(B.basis_triple(x, y, u), v, w))
    r = vec_sub(r, B.triple(u, B.basis_triple(x, y, v), w))
    return vec_sub(r, B.triple(u, v, B.basis_triple(x, y, w)))


def _reference_bol(B):
    n, rng = B.n, range(B.n)
    return CheckReport((
        fraction_antisymmetry("B01", B.c, n, 2),
        fraction_antisymmetry("B02", B.t, n, 3),
        fraction_cyclic("B1", B.t, n),
        _scan("B2", itertools.product(rng, repeat=4), lambda *a: _b2(B, *a)),
        _scan("B3", itertools.product(rng, repeat=5), lambda *a: _b3(B, *a)),
    ))


def _sagle(M, x, y, z):
    # (x*y)*(x*z) - ((x*y)*z)*x - ((y*z)*x)*x - ((z*x)*x)*y
    p = M.product
    xy, xz = p(x, y), p(x, z)
    r = p(xy, xz)
    r = vec_sub(r, p(p(xy, z), x))
    r = vec_sub(r, p(p(p(y, z), x), x))
    return vec_sub(r, p(p(p(z, x), x), y))


def _reference_maltsev(M):
    n, rng = M.n, range(M.n)
    anti = _scan("anticommutativity", itertools.product(rng, repeat=2),
                 lambda i, j: vec_add(M.product(i, j), M.product(j, i)))
    xs = {(i,): i for i in rng}
    xs.update({(i, j): vec_add(unit_vec(n, i), unit_vec(n, j))
               for i in rng for j in range(i + 1, n)})
    identity = _scan("maltsev-identity",
                     ((x, y, z) for x in xs for y, z in itertools.product(rng, repeat=2)),
                     lambda x, y, z: _sagle(M, xs[x], y, z))
    return CheckReport((anti, identity))


def _grid_of(R, grid, x, y):
    """grid(x, y) extended bilinearly; a slot is a basis index or a Vec."""
    if isinstance(x, int) and isinstance(y, int):
        return grid[x][y]
    acc = Mat.zeros(R.m, R.m)
    n = R.base.n
    for i, a in _coeffs(x, n):
        for j, b in _coeffs(y, n):
            if not grid[i][j].is_zero():
                acc = acc + (a * b) * grid[i][j]
    return acc


def _reference_representation(R):
    B = R.base
    rng = range(B.n)
    D_of = lambda x, y: _grid_of(R, R.D, x, y)
    theta_of = lambda x, y: _grid_of(R, R.theta, x, y)

    def r1(i, j):
        return (R.D[i][j] + R.theta[i][j] - R.theta[j][i]).entries

    def r21(x1, x2, y1):
        xx = B.basis_product(x1, x2)
        res = commutator(R.D[x1][x2], R.rho[y1])
        res = res - rho_of(R, B.basis_triple(x1, x2, y1))
        res = res + theta_of(y1, xx)
        res = res - rho_of(R, xx) @ R.rho[y1]
        return res.entries

    def r22(x1, y1, y2):
        yy = B.basis_product(y1, y2)
        res = theta_of(x1, yy)
        res = res - R.rho[y1] @ R.theta[x1][y2]
        res = res + R.rho[y2] @ R.theta[x1][y1]
        res = res + (R.D[y1][y2] - rho_of(R, yy)) @ R.rho[x1]
        return res.entries

    def r31(x1, x2, y1, y2):
        res = commutator(R.D[x1][x2], R.D[y1][y2])
        res = res - D_of(B.basis_triple(x1, x2, y1), y2)
        res = res - D_of(y1, B.basis_triple(x1, x2, y2))
        return res.entries

    def r32(x1, x2, y1, y2):
        res = commutator(R.D[x1][x2], R.theta[y1][y2])
        res = res - theta_of(B.basis_triple(x1, x2, y1), y2)
        res = res - theta_of(y1, B.basis_triple(x1, x2, y2))
        return res.entries

    def r33(x1, y1, y2, y3):
        res = theta_of(x1, B.basis_triple(y1, y2, y3))
        res = res - R.theta[y2][y3] @ R.theta[x1][y1]
        res = res + R.theta[y1][y3] @ R.theta[x1][y2]
        res = res - R.D[y1][y2] @ R.theta[x1][y3]
        return res.entries

    return CheckReport(tuple(
        _scan(name, itertools.product(rng, repeat=arity), fn)
        for name, arity, fn in (("R1", 2, r1), ("R21", 3, r21), ("R22", 3, r22),
                                ("R31", 4, r31), ("R32", 4, r32), ("R33", 4, r33))))


def _reference_delta(R):
    B = R.base
    n = B.n

    def delta(x, y):
        if isinstance(x, int) and isinstance(y, int):
            prod = B.basis_product(x, y)
        else:
            prod = B.product(x, y)
        return _grid_of(R, R.D, x, y) - rho_of(R, prod)

    def residual(x1, x2, y1, y2):
        res = commutator(delta(x1, x2), delta(y1, y2))
        res = res - delta(B.basis_triple(x1, x2, y1), unit_vec(n, y2))
        res = res - delta(unit_vec(n, y1), B.basis_triple(x1, x2, y2))
        res = res + delta(B.basis_product(y1, y2), B.basis_product(x1, x2))
        return res.entries

    return CheckReport((_scan("delta-identity", itertools.product(range(n), repeat=4),
                              residual),))


def _assert_same(report, reference):
    assert report == reference
    for got, want in zip(report.checks, reference.checks):
        if not want.passed:
            assert [type(x) for x in got.residual] == [type(x) for x in want.residual]
            assert all(type(x) is F for x in got.residual)


# ---------------------------------------------------------------------------
# inputs


def _moved_maltsev(M, T):
    """M in the basis of the columns of T."""
    n, Tinv = M.n, inverse(T)
    cols = [T.col(i) for i in range(n)]
    return MaltsevAlgebra(n, tabulate(n, n, 2,
                                      lambda i, j: Tinv.apply(M.product(cols[i], cols[j]))))


def _dense_maltsev(M, seed):
    """M in the basis of the columns of a seeded unitriangular T."""
    return _moved_maltsev(M, _unitriangular(random.Random(seed), M.n))


def _sol3_so3() -> MaltsevAlgebra:
    """sol3 (+) so3: e0*ek = k ek (k = 1, 2), e3e4 = e5, e4e5 = e3, e5e3 = e4."""
    return MaltsevAlgebra.from_entries(6, binary=[
        ((0, 1), {1: 1}), ((0, 2), {2: 2}),
        ((3, 4), {5: 1}), ((4, 5), {3: 1}), ((3, 5), {4: -1})])


def _nested(t):
    return [_nested(x) for x in t] if isinstance(t, tuple) else t


def _planted_bol(B, i, j, k, out, by=1):
    """[e_i, e_j, e_k] gains ``by`` e_out (antisymmetric in i, j)."""
    t = _nested(B.t)
    t[out][i][j][k] += by
    t[out][j][i][k] -= by
    return BolAlgebra(B.n, B.c, freeze(t))


def _planted_maltsev(M, i, j, out):
    """e_i * e_j gains an e_out component (anticommutative)."""
    c = _nested(M.c)
    c[out][i][j] += 1
    c[out][j][i] -= 1
    return MaltsevAlgebra(M.n, freeze(c))


def _random_entries(rng, n, arity, count):
    args = rng.sample([a for a in itertools.product(range(n), repeat=arity) if a[0] < a[1]],
                      count)
    return [(a, {rng.randrange(n): random_fraction(rng)}) for a in args]


def _random_bol(seed, n=3):
    rng = random.Random(seed)
    return BolAlgebra.from_entries(n, _random_entries(rng, n, 2, 2),
                                   _random_entries(rng, n, 3, 4))


def _random_maltsev(seed, n=3):
    return MaltsevAlgebra.from_entries(n, _random_entries(random.Random(seed), n, 2, 2))


def _bol_inputs():
    so3, sol3 = maltsev_to_bol(make_so3()), maltsev_to_bol(make_solvable(3))
    dim4 = maltsev_to_bol(make_maltsev_dim4())
    broken = parse_algebra((DATA / "broken_b2.alg").read_text())
    out = [BolAlgebra.zero(0), BolAlgebra.zero(1), BolAlgebra.zero(3), make_b2(1),
           make_b2(F(5, 3)), so3, sol3, dim4, broken]
    out += list({R.base: None for R in random_representation_corpus()})
    out += [transport(B, _unitriangular(random.Random(seed), B.n))
            for seed, B in enumerate((so3, sol3, dim4, make_b2(-1), broken), start=1)]
    out += [_random_bol(seed) for seed in range(6)]
    return out


BOL = _bol_inputs()
PLANTED_BASE = maltsev_to_bol(_sol3_so3())
POSITIONS = list(itertools.combinations(range(6), 3))


@pytest.mark.parametrize("index", range(len(BOL)))
def test_verify_bol_equals_the_dense_scans(index):
    B = BOL[index]
    _assert_same(verify_bol(B), _reference_bol(B))


@pytest.mark.parametrize("slot", (0, 1))
@pytest.mark.parametrize("position", POSITIONS, ids=lambda p: "".join(map(str, p)))
def test_verify_bol_finds_each_planted_defect_as_the_dense_scans(position, slot):
    B = _planted_bol(PLANTED_BASE, *position, position[slot])
    report = verify_bol(B)
    assert report.first_failure().name == "B1"
    assert report["B1"].witness == position
    _assert_same(report, _reference_bol(B))


def _maltsev_inputs():
    base = [MaltsevAlgebra.from_entries(0, []), MaltsevAlgebra.from_entries(1, []),
            make_m0(), make_so3(), make_solvable(3), make_maltsev_dim4()]
    out = base + [_dense_maltsev(M, seed) for seed, M in enumerate(base[2:], start=1)]
    out += [_random_maltsev(seed) for seed in range(6)]
    # e_i * e_j gains an e_k component, at every i<j<k of sol3 (+) so3
    out += [_planted_maltsev(_sol3_so3(), i, j, k) for i, j, k in POSITIONS]
    return out


MALTSEV = _maltsev_inputs()


@pytest.mark.parametrize("index", range(len(MALTSEV)))
def test_verify_maltsev_equals_the_dense_scans(index):
    M = MALTSEV[index]
    _assert_same(verify_maltsev(M), _reference_maltsev(M))


def _moved(mat, r, c, by=1):
    entries = list(mat.entries)
    entries[r * mat.cols + c] += by
    return Mat(mat.rows, mat.cols, tuple(entries))


def _perturbed(R, which, i, j, r, c, by=1):
    """R with one entry (r, c) of rho[i], D[i][j] or theta[i][j] moved by ``by``."""
    rho, D, theta = R.rho, R.D, R.theta
    if which == "rho":
        rho = rho[:i] + (_moved(rho[i], r, c, by),) + rho[i + 1:]
    else:
        grid = [list(row) for row in (D if which == "D" else theta)]
        grid[i][j] = _moved(grid[i][j], r, c, by)
        grid = tuple(map(tuple, grid))
        D, theta = (grid, theta) if which == "D" else (D, grid)
    return Representation(R.base, R.m, rho, D, theta)


def _random_representation(seed, B, m=2):
    rng = random.Random(seed)
    rand = lambda: Mat.from_rows([[random_fraction(rng) if rng.random() < 0.4 else 0
                                   for _ in range(m)] for _ in range(m)])
    rng_n = range(B.n)
    return Representation(B, m, tuple(rand() for _ in rng_n),
                          tuple(tuple(rand() for _ in rng_n) for _ in rng_n),
                          tuple(tuple(rand() for _ in rng_n) for _ in rng_n))


def _representation_inputs():
    so3, dim4 = maltsev_to_bol(make_so3()), maltsev_to_bol(make_maltsev_dim4())
    out = [R for _, R in _closure_corpus()] + random_representation_corpus()
    out += [Representation.zero(B, m) for B, m in ((BolAlgebra.zero(0), 2), (BolAlgebra.zero(1), 0),
                                                    (BolAlgebra.zero(1), 2), (make_b2(1), 3))]
    out += [adjoint_representation(transport(B, _unitriangular(random.Random(seed), B.n)))
            for seed, B in ((1, so3), (2, maltsev_to_bol(make_solvable(3))), (3, make_b2(1)))]
    out += [_random_representation(seed, B) for seed, B in
            enumerate((make_b2(1), so3, _random_bol(7), BolAlgebra.zero(2)))]
    adj4 = adjoint_representation(dim4)
    out += [_perturbed(adj4, which, i, j, r, c)
            for which in ("rho", "D", "theta")
            for i, j, r, c in ((0, 1, 0, 0), (1, 2, 3, 1), (2, 3, 2, 3), (3, 0, 1, 2))]
    return out


REPRESENTATIONS = _representation_inputs()


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_verify_representation_equals_the_dense_scans(index):
    R = REPRESENTATIONS[index]
    _assert_same(verify_representation(R), _reference_representation(R))


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_check_delta_identity_equals_the_dense_scan(index):
    R = REPRESENTATIONS[index]
    _assert_same(check_delta_identity(R), _reference_delta(R))


@pytest.mark.parametrize("which", ("rho", "D", "theta"))
@pytest.mark.parametrize("position", ((0, 1, 2), (3, 4, 5)), ids=("early", "late"))
def test_a_planted_module_defect_is_found_as_by_the_dense_scans(position, which):
    # entry (i, j) of rho(e_i), D(e_i, e_j) or theta(e_i, e_j) of the sol3 (+) so3
    # adjoint module moves, at the benchmark's planted verify-rep positions
    i, j, _ = position
    R = _perturbed(adjoint_representation(PLANTED_BASE), which, i, j, i, j)
    report = verify_representation(R)
    assert not report.passed
    _assert_same(report, _reference_representation(R))
    if which == "D":  # Delta = D - rho(x*y); a moved rho is compared at n=4 only
        _assert_same(check_delta_identity(R), _reference_delta(R))


def test_the_inputs_fail_every_condition_somewhere():
    failed = set()
    for report in ([verify_bol(B) for B in BOL] + [verify_maltsev(M) for M in MALTSEV]
                   + [verify_representation(R) for R in REPRESENTATIONS]
                   + [check_delta_identity(R) for R in REPRESENTATIONS]):
        failed |= {c.name for c in report.failures()}
    assert failed >= {"B2", "B3", "maltsev-identity", "R1", "R21", "R22", "R31", "R32",
                      "R33", "delta-identity"}


# Lines of the Fano plane on e0..e6; e_i e_j = e_k along each cyclically
# ordered line of the octonion multiplication table.
FANO_LINES = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2))


def _octonions() -> MaltsevAlgebra:
    """The traceless octonions under the commutator: [e_i, e_j] = 2 e_k on lines."""
    entries = []
    for line in FANO_LINES:
        for r in range(3):
            i, j, k = line[r], line[(r + 1) % 3], line[(r + 2) % 3]
            entries.append(((min(i, j), max(i, j)), {k: 2 if i < j else -2}))
    return MaltsevAlgebra.from_entries(7, entries)


def test_the_octonions_pass_every_scan():
    # n = 7: 16,807 B3 tuples and 2,401 tuples of each four-slot R scan
    M = _octonions()
    assert verify_maltsev(M).passed
    B = maltsev_to_bol(M)
    assert verify_bol(B).passed
    R = adjoint_representation(B)
    assert verify_representation(R).passed
    assert check_delta_identity(R).passed


def test_a_zero_residual_is_recognised_without_reading_its_entries(monkeypatch):
    # every passing axiom, R and cocycle residual is the shared zero Vec of its size
    read = []
    monkeypatch.setattr(algebra, "is_zero_vec", lambda v: read.append(v) or not any(v))
    M = _octonions()
    B = maltsev_to_bol(M)
    assert verify_maltsev(M).passed and verify_bol(B).passed
    assert read == []
    R = adjoint_representation(B)
    f = Mat.from_rows([[(i * 3 + j) % 5 - 2 for j in range(M.n)] for i in range(M.n)])
    c = coboundary_of(R, PseudoderivationData(f, (F(0),) * M.n))
    read.clear()  # building c scans its antisymmetry
    assert verify_representation(R).passed and is_cocycle(R, c).passed
    assert read == []


# ---------------------------------------------------------------------------
# a basis with distinct-prime denominators: the common denominator D of the
# integer scans has over 100 bits


PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069)


def _prime_basis(n=6, block=3) -> Mat:
    """Dense on each block of basis vectors, off-diagonal entries 1/p for distinct primes p.

    The blocks keep sol3 (+) so3 a direct sum, so a defect planted in the
    second block passes every tuple that starts in the first.
    """
    primes = iter(PRIMES)
    return Mat.from_rows([[1 if i == j else F(1, next(primes)) if i // block == j // block
                           else 0 for j in range(n)] for i in range(n)])


PRIME_BASE = _moved_maltsev(_sol3_so3(), _prime_basis())


def _reference_maltsev_to_bol(M):
    """The former maltsev_to_bol: six dense products on Vec slots per triple."""
    third = F(1, 3)

    def bracket(i, j, k):
        val = M.product(i, M.product(j, k))
        val = vec_sub(val, M.product(j, M.product(i, k)))
        val = vec_add(val, vec_scale(F(2), M.product(M.product(i, j), k)))
        return vec_scale(third, val)
    return BolAlgebra(M.n, M.c, tabulate(M.n, M.n, 3, bracket), M.basis_names)


@pytest.mark.parametrize("make", [
    _octonions, lambda: make_solvable(7),
    lambda: _moved_maltsev(_sol3_so3(), dense_basis(random.Random(3), 6)),
    lambda: PRIME_BASE,
], ids=["octonions", "sol7", "sol3+so3-dense", "prime-basis"])
def test_maltsev_to_bol_equals_the_dense_brackets(make):
    M = make()
    B = maltsev_to_bol(M)
    assert B == _reference_maltsev_to_bol(M)
    assert all(type(x) is F for plane in B.t for a in plane for b in a for x in b)


def test_the_prime_basis_passes_behind_a_denominator_of_over_100_bits():
    B = maltsev_to_bol(PRIME_BASE)
    assert PRIME_BASE.form[0].bit_length() > 100
    assert B.form[0].bit_length() > 100
    assert verify_maltsev(PRIME_BASE).passed and verify_bol(B).passed


@pytest.mark.parametrize("planted", ((3, 4, 3), (3, 5, 5), (4, 5, 4)))
def test_a_late_sagle_defect_in_the_prime_basis_is_found_as_by_the_dense_scan(planted):
    M = _planted_maltsev(PRIME_BASE, *planted)
    report = verify_maltsev(M)
    assert report.first_failure().name == "maltsev-identity"
    assert report["maltsev-identity"].witness[0] >= (3,)
    _assert_same(report, _reference_maltsev(M))


@pytest.mark.parametrize("planted", ((3, 4, 5, 5), (3, 4, 5, 3), (4, 5, 3, 4)))
def test_a_late_b2_b3_defect_in_the_prime_basis_is_found_as_by_the_dense_scans(planted):
    # [e_i,e_j,e_k] gains e_out and [e_j,e_k,e_i] loses it: the cyclic sum B1 holds
    i, j, k, out = planted
    B = _planted_bol(_planted_bol(maltsev_to_bol(PRIME_BASE), i, j, k, out), j, k, i, out, -1)
    report = verify_bol(B)
    assert [c.name for c in report.failures()] == ["B2", "B3"]
    assert report["B2"].witness[0] >= 3 and report["B3"].witness[0] >= 3
    _assert_same(report, _reference_bol(B))


@pytest.mark.parametrize("by", (F(1, 1087), F(-2, 1091)))
def test_late_antisymmetry_and_cyclic_defects_in_the_prime_basis_are_found_as_by_the_dense_scans(by):
    # e4*e5 gains by*e5 and [e4,e5,e3] gains by*e3, without their antisymmetric partners
    B = maltsev_to_bol(PRIME_BASE)
    c, t = _nested(B.c), _nested(B.t)
    c[5][4][5] += by
    t[3][4][5][3] += by
    broken_c = BolAlgebra(B.n, freeze(c), B.t)
    broken_t = BolAlgebra(B.n, B.c, freeze(t))
    M = MaltsevAlgebra(B.n, freeze(c))
    assert broken_c.c != B.c and broken_t.t != B.t
    assert verify_bol(broken_c)["B01"].witness == (4, 5)
    assert verify_bol(broken_t)["B02"].witness == (4, 5, 3)
    assert verify_bol(broken_t)["B1"].witness == (3, 4, 5)
    assert verify_maltsev(M)["anticommutativity"].witness == (4, 5)
    _assert_same(verify_bol(broken_c), _reference_bol(broken_c))
    _assert_same(verify_bol(broken_t), _reference_bol(broken_t))
    _assert_same(verify_maltsev(M), _reference_maltsev(M))


# ---------------------------------------------------------------------------
# orbit representatives: once the antisymmetries a scan's residual sits on
# hold, the scan visits the increasing tuples of slot_tuples only.  Each
# report must equal the scan of every tuple (itertools.product) that it
# replaced, on verified inputs, on defects planted at every position
# (swapped x>y and diagonal ones included), and on inputs whose
# antisymmetry fails, where every tuple is scanned and a witness may have
# x>y.


@pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (1, 1, 1), (2, 2), (2, 2, 1), (1, 2),
                                   (2, 1, 1), (1, 2, 1)], ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_slot_tuples_are_the_product_with_each_group_increasing(n, sizes):
    full = list(itertools.product(range(n), repeat=sum(sizes)))
    starts = list(itertools.accumulate((0,) + sizes))

    def increasing(t):
        return all(t[a] < t[a + 1] for s, k in zip(starts, sizes) for a in range(s, s + k - 1))
    assert list(slot_tuples(n, sizes, grouped=False)) == full
    assert list(slot_tuples(n, sizes)) == [t for t in full if increasing(t)]


# the sizes every scan and entry_args hand to slot_tuples
_LIBRARY_SIZES = [(2,), (3,), (2, 1), (1, 2), (2, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)]


@pytest.mark.parametrize("sizes", _LIBRARY_SIZES + [(), (1,), (1, 1, 1)], ids=str)
@pytest.mark.parametrize("n", range(8))
def test_slot_tuples_are_the_sum_joined_reference(n, sizes):
    for grouped in (True, False):
        assert list(slot_tuples(n, sizes, grouped)) == list(sum_slot_tuples(n, sizes, grouped))
    if sizes in ((2,), (2, 1)):
        assert entry_args(n, len(sizes) + 1) == tuple(sum_slot_tuples(n, sizes))


def test_entry_args_are_kept_as_one_tuple_per_n_and_arity():
    args = entry_args(5, 3)
    assert entry_args(5, 3) is args and isinstance(args, tuple)
    assert entry_args(5, 2) + args == tuple(sum_slot_tuples(5, (2,))) + args


def _planted_product(B, i, j, out, paired=True):
    """e_i * e_j gains e_out, and e_j * e_i loses it when ``paired``."""
    c = _nested(B.c)
    c[out][i][j] += 1
    if paired:
        c[out][j][i] -= 1
    return BolAlgebra(B.n, freeze(c), B.t)


def _unpaired_bol(B, i, j, k, out):
    """[e_i, e_j, e_k] gains e_out alone: B02 fails unless the plant is undone."""
    t = _nested(B.t)
    t[out][i][j][k] += 1
    return BolAlgebra(B.n, B.c, freeze(t))


ORBIT_BASE = maltsev_to_bol(make_maltsev_dim4())
TRIPLES = list(itertools.product(range(4), repeat=3))


def _b2_b3_defect(i, j, k):
    # [e_i,e_j,e_k] gains e_out and [e_j,e_k,e_i] loses it: B02 holds, and B1
    # too unless j = k
    out = (i + 2 * j + k) % 4
    return _planted_bol(_planted_bol(ORBIT_BASE, i, j, k, out), j, k, i, out, -1)


@pytest.mark.parametrize("position", [p for p in TRIPLES if p[0] != p[1]],
                         ids=lambda p: "".join(map(str, p)))
def test_a_b2_b3_defect_at_every_position_is_found_as_by_the_full_scans(position):
    B = _b2_b3_defect(*position)
    report = verify_bol(B)
    assert report["B01"].passed and report["B02"].passed
    _assert_same(report, _reference_bol(B))


def test_the_planted_defects_fail_b2_and_b3_with_many_witnesses():
    witnesses = {"B2": set(), "B3": set()}
    for position in TRIPLES:
        if position[0] != position[1]:
            for check in verify_bol(_b2_b3_defect(*position)).failures():
                witnesses[check.name].add(check.witness)
    assert len(witnesses["B2"]) > 5 and len(witnesses["B3"]) > 5


@pytest.mark.parametrize("position", TRIPLES, ids=lambda p: "".join(map(str, p)))
def test_without_b02_every_tuple_is_scanned(position):
    B = _unpaired_bol(ORBIT_BASE, *position, position[2])
    report = verify_bol(B)
    assert not report["B02"].passed
    _assert_same(report, _reference_bol(B))


@pytest.mark.parametrize("paired", (True, False))
def test_a_product_defect_at_every_position_is_found_as_by_the_full_scans(paired):
    for i, j in itertools.product(range(4), repeat=2):
        B = _planted_product(ORBIT_BASE, i, j, (i + j + 1) % 4, paired)
        report = verify_bol(B)
        # unpaired, B01 fails and B2 scans every tuple; B1 and B3 need B02 only
        assert report["B01"].passed == paired
        _assert_same(report, _reference_bol(B))


def test_the_full_scans_find_witnesses_with_x_after_y():
    # [e_1, e_0, e_2] = e_1 with [e_0, e_1, e_2] = 0 on the zero algebra
    B = _unpaired_bol(BolAlgebra.zero(3), 1, 0, 2, 1)
    report = verify_bol(B)
    assert report["B02"].witness == (0, 1, 2)
    assert report["B1"].witness == (0, 2, 1)  # the orbit's representative is (0, 1, 2)
    assert report["B3"].witness[:2] == (1, 0)
    _assert_same(report, _reference_bol(B))


ORBIT_MODULE = adjoint_representation(maltsev_to_bol(make_so3()))
PAIRS = list(itertools.product(range(3), repeat=2))


def _module_defects():
    """so3's adjoint module with one entry moved at every position: rho, theta
    and D with its antisymmetric partner keep c, t and D antisymmetric; D
    alone does not, except on the diagonal where both moves cancel."""
    R = ORBIT_MODULE
    out = [_perturbed(R, "rho", i, 0, i, (i + 1) % 3) for i in range(3)]
    for i, j in PAIRS:
        r, c = (i + j) % 3, (2 * i + j) % 3
        out.append(_perturbed(R, "theta", i, j, r, c))
        out.append(_perturbed(R, "D", i, j, r, c))
        out.append(_perturbed(_perturbed(R, "D", i, j, r, c), "D", j, i, r, c, -1))
    return out


MODULE_DEFECTS = _module_defects()


@pytest.mark.parametrize("index", range(len(MODULE_DEFECTS)))
def test_a_module_defect_at_every_position_is_found_as_by_the_full_scans(index):
    R = MODULE_DEFECTS[index]
    _assert_same(verify_representation(R), _reference_representation(R))
    _assert_same(check_delta_identity(R), _reference_delta(R))


def test_the_module_defects_fail_every_condition_with_and_without_d_antisymmetric():
    failed = {True: set(), False: set()}
    for R in MODULE_DEFECTS:
        report = verify_representation(R)
        failed[_antisymmetry_failure(R) is None] |= {c.name for c in report.failures()}
    assert failed[True] == failed[False] == {"R1", "R21", "R22", "R31", "R32", "R33"}


def test_without_d_antisymmetric_every_tuple_is_scanned():
    # D(e_1, e_0) = E_00 alone: R1 fails at (1, 0) only, which no representative visits
    R = _perturbed(Representation.zero(BolAlgebra.zero(2), 1), "D", 1, 0, 0, 0)
    assert _antisymmetry_failure(R) == "D is not antisymmetric in its first two slots at args (0,1)"
    report = verify_representation(R)
    assert report["R1"].witness == (1, 0)
    _assert_same(report, _reference_representation(R))
    _assert_same(check_delta_identity(R), _reference_delta(R))


def _reference_cocycle(R, c):
    from .test_constraint_rows import _reference_scan  # that module imports this one
    return _reference_scan(R, c)


def _moved_cochain(c, k, by=1):
    coords = list(c.coords())
    coords[k] += by
    return coords_to_cochain(c.base, c.m, tuple(coords))


@pytest.mark.parametrize("module", ("so3", "sol3"))
def test_a_cochain_defect_at_every_coordinate_is_found_as_by_the_full_scan(module):
    # a cocycle moved at each coordinate, that is at an i<j entry and its j<i partner
    R = ORBIT_MODULE if module == "so3" else adjoint_representation(
        maltsev_to_bol(make_solvable(3)))
    z = cohomology(R).z_basis
    cocycle = coords_to_cochain(R.base, R.m, tuple(map(sum, zip(*(v.coords() for v in z)))))
    assert is_cocycle(R, cocycle).passed
    failed = set()
    for k in range(len(cocycle.coords())):
        c = _moved_cochain(cocycle, k, F(1, k + 1))
        report = is_cocycle(R, c)
        failed |= {check.name for check in report.failures()}
        _assert_same(report, _reference_cocycle(R, c))
    assert failed == {"CC1", "CC2", "CC3"}


def test_without_d_antisymmetric_is_cocycle_scans_every_tuple():
    # D(e_1, e_0) = 1 alone on a 1-dim module over b2: CC2 and CC3 fail first
    # at y1 > y2, where D(y1, y2) is read
    R = _perturbed(Representation.zero(make_b2(1), 1), "D", 1, 0, 0, 0)
    assert _antisymmetry_failure(R) is not None
    for k, witness in ((0, (0, 1, 1, 0)), (1, (0, 1, 1, 0, 0)), (2, (0, 1, 1, 0, 1))):
        c = coords_to_cochain(R.base, 1, tuple(F(k == i) for i in range(3)))
        report = is_cocycle(R, c)
        assert report.first_failure().witness == witness
        _assert_same(report, _reference_cocycle(R, c))


def _reference_deformation_type(d):
    n, rng = d.n, range(d.n)
    pair = BolAlgebra(n, d.nu, d.omega)
    return CheckReport((
        fraction_antisymmetry("B01'", d.nu, n, 2),
        fraction_antisymmetry("B02'", d.mu, n, 2),
        fraction_antisymmetry("B03'", d.omega, n, 3),
        fraction_cyclic("B1'", d.omega, n),
        _scan("B2'", itertools.product(rng, repeat=4), lambda *a: dense_b2p_residual(d, *a)),
        _scan("B3'", itertools.product(rng, repeat=5), lambda *a: _b3(pair, *a)),
    ))


def _reference_first_order_formal(datum):
    base, pair = datum.base, datum.pair
    closure = _reference_deformation_type(
        DeformationTypeCandidate(base.n, base.c, pair.nu, pair.omega)).checks[4:]
    o3 = _scan("o3", itertools.product(range(base.n), repeat=4),
               lambda *a: dense_o3_residual(datum, *a))
    return CheckReport(_reference_cocycle(adjoint_representation(base), pair).checks
                       + closure + (o3,))


@pytest.mark.parametrize("module", ("so3", "sol3"))
def test_a_deformation_defect_at_every_coordinate_is_found_as_by_the_full_scans(module):
    R = ORBIT_MODULE if module == "so3" else adjoint_representation(
        maltsev_to_bol(make_solvable(3)))
    B = R.base
    scale = CochainPair(B, B.n, B.c, B.t)  # deforms to the (1+t)-rescaled algebra
    failed = set()
    for k in range(len(scale.coords())):
        datum = DeformationDatum(B, _moved_cochain(scale, k, F(-1, k + 2)))
        candidate = DeformationTypeCandidate(B.n, B.c, datum.pair.nu, datum.pair.omega)
        report = check_first_order_formal(datum)
        failed |= {check.name for check in report.failures()}
        _assert_same(report, _reference_first_order_formal(datum))
        _assert_same(is_deformation_type(candidate), _reference_deformation_type(candidate))
    assert failed >= {"B2'", "B3'", "o3"}


def test_without_antisymmetric_nu_the_deformation_scans_every_tuple():
    # nu(e_2, e_0) = e_0 alone over so3: B01' fails, and B2' first at y1 > y2
    B = ORBIT_MODULE.base
    nu = _nested(freeze(zeros(3, 3, 3)))
    nu[0][2][0] = F(1)
    d = DeformationTypeCandidate(3, B.c, freeze(nu), B.t)
    report = is_deformation_type(d)
    assert report["B01'"].witness == (0, 2)
    assert report["B2'"].witness == (0, 1, 2, 0)
    _assert_same(report, _reference_deformation_type(d))


def _reference_homomorphisms(E):
    """The i- and p-homomorphism scans of validate_extension over every tuple."""
    hat, base, m, N = E.hat, E.base, E.m, E.hat.n

    def tagged(dim):
        return itertools.chain(
            (("binary",) + a for a in itertools.product(range(dim), repeat=2)),
            (("ternary",) + a for a in itertools.product(range(dim), repeat=3)))

    def operate(A, args):
        return A.product(*args) if len(args) == 2 else A.triple(*args)
    i_cols = [E.i.col(a) for a in range(m)]
    p_cols = [E.p.col(x) for x in range(N)]
    return (_scan("i-homomorphism", tagged(m),
                  lambda kind, *args: operate(hat, [i_cols[a] for a in args])),
            _scan("p-homomorphism", tagged(N),
                  lambda kind, *args: vec_sub(E.p.apply(operate(hat, args)),
                                              operate(base, [p_cols[x] for x in args]))))


def _assert_same_homomorphisms(E):
    report = validate_extension(E)
    _assert_same(CheckReport((report["i-homomorphism"], report["p-homomorphism"])),
                 CheckReport(_reference_homomorphisms(E)))
    return report


def test_a_map_defect_at_every_entry_is_found_as_by_the_full_scans():
    E = twisted_product(ORBIT_MODULE, cohomology(ORBIT_MODULE).z_basis[0])
    assert validate_extension(E).passed
    failed = set()
    for which in ("i", "p"):
        mat = getattr(E, which)
        for r, c in itertools.product(range(mat.rows), range(mat.cols)):
            report = _assert_same_homomorphisms(replace(E, **{which: _moved(mat, r, c)}))
            assert report["base-axioms"].passed and report["hat-axioms"].passed
            failed |= {check.name for check in report.failures()}
    assert failed >= {"i-homomorphism", "p-homomorphism"}


def test_without_hat_axioms_the_homomorphism_scans_visit_every_tuple():
    # e_1 * e_0 gains e_0 in hat(B) alone: p fails to be a homomorphism at (1, 0)
    E = semidirect_product(ORBIT_MODULE)
    E = replace(E, hat=_planted_product(E.hat, 1, 0, 0, paired=False))
    report = _assert_same_homomorphisms(E)
    assert not report["hat-axioms"].passed
    assert report["p-homomorphism"].witness == ("binary", 1, 0)
