"""The Bol axiom scans one (x, y) block at a time, and the integer forms built
from entries, against the per-tuple scans and the tensor reads they replaced.

``verify_bol`` decides B01 and B02 by comparing sorted integer forms and
scans B2 and B3 in (x, y) blocks; ``is_deformation_type`` and
``check_first_order_formal`` run (B2') and (B3') through the same
assembly.  The references in ``conftest`` add up every tuple on its own
(``b2_residual``, ``b3_residual``).  Both must agree, witness and residual,
on every algebra the benchmark generator builds and on seeded single-entry
perturbations of its c and t, some keeping the antisymmetry (the grouped
paths) and some breaking it (the ungrouped ones).  B1-B3 are grouped once
B01 and B02 both pass; the reference groups B1 and B3 on B02 alone, as the
former verify_bol did, and the algebras whose c alone is off antisymmetry
show that the witnesses are the same either way.

An algebra made by ``from_entries``, ``maltsev_to_bol`` or
``deformed_algebra`` keeps an integer form built from its entries; it must
equal the form read off its tensors.
"""

import importlib.util
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from bolalg import algebra as ALGEBRA
from bolalg import deformation as DEFORMATION
from bolalg.algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    _scan,
    maltsev_to_bol,
    slot_tuples,
    verify_bol,
)
from bolalg.cohomology import coords_to_cochain
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    deformed_algebra,
    is_deformation_type,
)
from bolalg.representation import cochain_dim

from .conftest import (
    b2_residual,
    b3_residual,
    fraction_antisymmetry,
    random_fraction,
    tabulated_deformed_algebra,
    tuplewise_verify_bol,
)
from .test_sparse_scans import _assert_same

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _frozen(x):
    return tuple(map(_frozen, x)) if isinstance(x, list) else x


def _generated():
    """Every algebra the benchmark generator builds, in canonical and moved bases."""
    gen, rng = _gen(), random.Random(40)
    binaries = [gen.so3(), gen.solvable(3), gen.solvable(4), gen.solvable(5), gen.octonions(),
                gen.direct_sum(gen.so3(), gen.solvable(3))]
    pairs = [gen.b2(lam) for lam in (1, -1, F(3, 2))]
    pairs += [(c, gen.maltsev_ternary(c)) for c in binaries]
    for c, t in pairs[3:6]:
        for basis in (gen.diagonal_basis, gen.dense_basis):
            T, Tinv = basis(rng, len(c))
            pairs.append((gen.transport(c, T, Tinv), gen.transport(t, T, Tinv)))
    return [BolAlgebra(len(c), _frozen(c), _frozen(t)) for c, t in pairs]


def _moved(t, at: tuple, by):
    """The nested tensor t with its entry at the index path ``at`` moved by ``by``."""
    if not at:
        return t + by
    return tuple(_moved(x, at[1:], by) if a == at[0] else x for a, x in enumerate(t))


def _perturbed(B: BolAlgebra, rng: random.Random, anti: bool, which=None) -> BolAlgebra:
    """B with one entry of c or of t (``which``, else a random one) moved; with
    ``anti`` its (j, i, ...) twin moves the other way, so the antisymmetry holds."""
    n, which = B.n, which or rng.choice(("c", "t"))
    arity = 2 if which == "c" else 3
    at = (rng.randrange(n),) + tuple(rng.sample(range(n), 2)) + tuple(
        rng.randrange(n) for _ in range(arity - 2))
    by = random_fraction(rng) or F(1)
    tensor = _moved(getattr(B, which), at, by)
    if anti:
        tensor = _moved(tensor, (at[0], at[2], at[1]) + at[3:], -by)
    return BolAlgebra(n, *((tensor, B.t) if which == "c" else (B.c, tensor)))


GENERATED = _generated()
SMALL = [B for B in GENERATED if B.n <= 5]


def _corpus():
    rng = random.Random(41)
    out = list(GENERATED)
    for B in GENERATED:
        for anti in (True, False):
            for _ in range(3 if B.n <= 5 else 1):
                out.append(_perturbed(B, rng, anti))
    return out


CORPUS = _corpus()


def test_the_corpus_passes_and_fails_every_axiom_on_both_paths():
    assert all(verify_bol(B).passed for B in GENERATED)
    failed = {(c.name, verify_bol(B)["B01"].passed and verify_bol(B)["B02"].passed)
              for B in CORPUS for c in verify_bol(B).failures()}
    assert failed >= {("B1", True), ("B2", True), ("B3", True),
                      ("B01", False), ("B02", False), ("B2", False), ("B3", False)}


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_verify_bol_equals_the_tuplewise_scans(index):
    B = CORPUS[index]
    _assert_same(verify_bol(B), tuplewise_verify_bol(B))


def _off_antisymmetry():
    """The generated algebras with one entry of t moved with its twin, then one
    entry of c moved alone: B02 passes and B01 fails."""
    rng = random.Random(45)
    return [_perturbed(_perturbed(B, rng, True, "t"), rng, False, "c")
            for B in GENERATED for _ in range(3 if B.n <= 5 else 1)]


OFF_ANTISYMMETRY = _off_antisymmetry()


def test_c_alone_off_antisymmetry_fails_b1_and_b3():
    failed = {(c.name, verify_bol(B)["B01"].passed, verify_bol(B)["B02"].passed)
              for B in OFF_ANTISYMMETRY for c in verify_bol(B).failures()}
    assert failed >= {("B01", False, True), ("B1", False, True), ("B3", False, True)}


@pytest.mark.parametrize("index", range(len(OFF_ANTISYMMETRY)))
def test_b1_and_b3_waiting_for_b01_keep_their_witnesses(index):
    # the reference groups B1 and B3 on B02 alone, verify_bol on B01 and B02:
    # the failing tuples are closed under the swaps, so the first is the same
    B = OFF_ANTISYMMETRY[index]
    _assert_same(verify_bol(B), tuplewise_verify_bol(B))


def _candidates():
    """(mu, nu, omega) from the generated algebras: a cochain as (nu, omega), or the
    tensors of another algebra of the same dimension, perturbed or not."""
    rng = random.Random(42)
    out = []
    for B in SMALL:
        n = B.n
        coords = tuple(random_fraction(rng) for _ in range(cochain_dim(n, n)))
        pair = coords_to_cochain(B, n, coords)
        out.append(DeformationTypeCandidate(n, B.c, pair.nu, pair.omega))
        other = next(A for A in reversed(CORPUS) if A.n == n)
        out.append(DeformationTypeCandidate(n, B.c, other.c, other.t))
        out.append(DeformationTypeCandidate(n, other.c, B.c, B.t))
    return out


CANDIDATES = _candidates()


def _tuplewise_closure(d: DeformationTypeCandidate, grouped: bool) -> tuple:
    """(B2') and (B3') one tuple at a time, on the candidate's integer forms."""
    D, MU, NU, OM = DEFORMATION._candidate_forms(d)

    def b2p(x1, x2, y1, y2):
        nu_x, nu_y = NU[x1][x2], NU[y1][y2]
        return b2_residual((D, NU, OM), x1, x2, y1, y2, (
            (NU, nu_y, MU[x1][x2]), (NU, MU[y1][y2], nu_x), (MU, nu_y, nu_x)))
    pair = BolAlgebra(d.n, d.nu, d.omega)
    return (_scan("B2'", slot_tuples(d.n, (2, 2), grouped), b2p),
            _scan("B3'", slot_tuples(d.n, (2, 2, 1), grouped),
                  lambda *args: b3_residual(pair, *args)))


@pytest.mark.parametrize("index", range(len(CANDIDATES)))
def test_the_deformation_scans_equal_the_tuplewise_scans(index):
    d = CANDIDATES[index]
    report = is_deformation_type(d)
    antisymmetry = (fraction_antisymmetry("B01'", d.nu, d.n, 2),
                    fraction_antisymmetry("B02'", d.mu, d.n, 2),
                    fraction_antisymmetry("B03'", d.omega, d.n, 3))
    grouped = all(check.passed for check in antisymmetry)
    _assert_same(CheckReport(report.checks[:3]), CheckReport(antisymmetry))
    _assert_same(CheckReport(report.checks[4:]), CheckReport(_tuplewise_closure(d, grouped)))


def test_the_deformation_candidates_fail_every_scan_on_both_paths():
    failed = set()
    for d in CANDIDATES:
        report = is_deformation_type(d)
        grouped = all(c.passed for c in report.checks[:3])
        failed |= {(c.name, grouped) for c in report.failures()}
    assert failed >= {("B01'", False), ("B02'", False), ("B03'", False),
                      ("B2'", True), ("B3'", True), ("B2'", False), ("B3'", False)}


def test_first_order_formal_runs_the_closure_scans_grouped():
    B = maltsev_to_bol(MaltsevAlgebra(3, GENERATED[3].c))
    rng = random.Random(43)
    for _ in range(3):
        coords = tuple(random_fraction(rng) for _ in range(cochain_dim(3, 3)))
        pair = coords_to_cochain(B, 3, coords)
        d = DeformationTypeCandidate(3, B.c, pair.nu, pair.omega)
        formal = check_first_order_formal(DeformationDatum(B, pair))
        _assert_same(CheckReport(formal.checks[3:5]), CheckReport(_tuplewise_closure(d, True)))


# ---------------------------------------------------------------------------
# a zero block builds nothing


def test_a_zero_block_builds_no_accumulator(monkeypatch):
    # [e0,e1,.] is the only nonzero block; x*y is zero for every pair
    B = BolAlgebra.from_entries(4, [], [((0, 1, 2), {3: F(1, 2)})])
    blocks = {"B2": [], "B3": []}
    b2_block, b3_block = ALGEBRA._b2_block, ALGEBRA._b3_block
    monkeypatch.setattr(ALGEBRA, "_b2_block",
                        lambda D, P, T, cubic, x, y, pairs: blocks["B2"].append((x, y))
                        or b2_block(D, P, T, cubic, x, y, pairs))
    monkeypatch.setattr(ALGEBRA, "_b3_block",
                        lambda D, T, x, y, pairs: blocks["B3"].append((x, y))
                        or b3_block(D, T, x, y, pairs))
    report = verify_bol(B)
    assert blocks == {"B2": [(0, 1)], "B3": [(0, 1)]}
    _assert_same(report, tuplewise_verify_bol(B))


def test_a_block_with_a_zero_bracket_and_a_nonzero_product_is_scanned():
    # t = 0, e0*e1 = e0 and e2*e3 = e1: B2 fails first at (0, 1, 2, 3) through
    # (u*v)*(x*y) = e1*e0 = -e0 alone, in a block whose [x,y,.] is zero
    B = BolAlgebra.from_entries(4, [((0, 1), {0: F(1)}), ((2, 3), {1: F(1)})], [])
    report = verify_bol(B)
    assert report["B2"].witness == (0, 1, 2, 3)
    assert report["B2"].residual == (F(-1), F(0), F(0), F(0))
    _assert_same(report, tuplewise_verify_bol(B))


def test_the_zero_algebra_verifies_without_a_block(monkeypatch):
    blocks = []
    monkeypatch.setattr(ALGEBRA, "_b2_block", lambda *args: blocks.append(args))
    monkeypatch.setattr(ALGEBRA, "_b3_block", lambda *args: blocks.append(args))
    for n in (0, 1, 5, 16):
        report = verify_bol(BolAlgebra.zero(n))
        assert report.passed and len(report.checks) == 5
    assert blocks == []


# ---------------------------------------------------------------------------
# integer forms built from entries


def _read_off_tensors(A):
    """The integer form of a copy of A made from its tensors, read off them."""
    if isinstance(A, BolAlgebra):
        return BolAlgebra(A.n, A.c, A.t, A.basis_names).form
    return MaltsevAlgebra(A.n, A.c, A.basis_names).form


ENTRY_ALGEBRAS = [
    BolAlgebra.zero(0),
    BolAlgebra.zero(3),
    MaltsevAlgebra.from_entries(0, []),
    # a zero coefficient, and value keys out of order
    BolAlgebra.from_entries(3, [((0, 1), {2: F(1, 2), 0: 0, 1: F(-3)}), ((1, 2), {0: "2/3"})],
                            [((0, 1, 2), {2: F(-2, 3), 1: 5}), ((0, 2, 2), {0: F(0)}),
                             ((1, 2, 0), {1: F(1, 6), 0: F(7, 4)})]),
    MaltsevAlgebra.from_entries(4, [((0, 3), {3: 1, 0: F(1, 5)}), ((1, 2), {3: F(2), 2: 0})],
                                ("a", "b", "c", "d")),
    maltsev_to_bol(MaltsevAlgebra(3, GENERATED[3].c)),
    maltsev_to_bol(MaltsevAlgebra(7, GENERATED[7].c)),
]


@pytest.mark.parametrize("index", range(len(ENTRY_ALGEBRAS)))
def test_the_entries_built_form_equals_the_tensor_read(index):
    A = ENTRY_ALGEBRAS[index]
    kept = A.form
    assert kept == _read_off_tensors(A)
    D, P, T = kept
    leaves = [terms for row in P for terms in row]
    leaves += [terms for plane in T for row in plane for terms in row]
    for terms in leaves:
        assert [k for k, _ in terms] == sorted({k for k, _ in terms})
        assert all(type(c) is int and c for _, c in terms)


def test_the_entries_built_form_drops_zeros_and_keeps_the_lcm():
    D, P, T = ENTRY_ALGEBRAS[3].form
    assert D == 12
    assert P[0][1] == ((1, -36), (2, 6)) and P[1][0] == ((1, 36), (2, -6))
    assert T[0][2][2] == () and T[0][1][2] == ((1, 60), (2, -8))
    assert T[2][1][0] == ((0, -21), (1, -2))


def _data():
    rng = random.Random(44)
    for B in SMALL[:6]:
        n = B.n
        pair = coords_to_cochain(B, n, tuple(random_fraction(rng)
                                             for _ in range(cochain_dim(n, n))))
        yield DeformationDatum(B, pair)
        yield DeformationDatum(B, coords_to_cochain(B, n, (0,) * cochain_dim(n, n)))
    moved = _perturbed(SMALL[4], rng, False)
    yield DeformationDatum(moved, coords_to_cochain(moved, moved.n, tuple(
        random_fraction(rng) for _ in range(cochain_dim(moved.n, moved.n)))))


DEFORMATION_DATA = list(_data())


@pytest.mark.parametrize("index", range(len(DEFORMATION_DATA)))
def test_deformed_algebra_equals_the_tabulated_sum(index):
    datum = DEFORMATION_DATA[index]
    for t in (F(1), F(2), F(-1, 3), F(0)):
        got = deformed_algebra(datum, t)
        want = tabulated_deformed_algebra(datum, t)
        assert got == want
        assert all(type(x) is F for plane in got.t for row in plane for r in row for x in r)
        assert got.form == _read_off_tensors(got)
        assert verify_bol(got) == verify_bol(want)


def test_maltsev_to_bol_keeps_the_binary_tensor():
    for index in (3, 4, 7):
        M = MaltsevAlgebra(GENERATED[index].n, GENERATED[index].c)
        B = maltsev_to_bol(M)
        assert B.c == M.c and B.t == GENERATED[index].t


def test_the_candidate_forms_share_one_denominator():
    d = CANDIDATES[0]
    D, MU, NU, OM = DEFORMATION._candidate_forms(d)
    denominators = {x.denominator for t in (d.mu, d.nu) for plane in t for row in plane
                    for x in row}
    denominators |= {x.denominator for plane in d.omega for p in plane for row in p
                     for x in row}
    assert D == math.lcm(*denominators)
