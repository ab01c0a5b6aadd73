import itertools
import random
from fractions import Fraction as F

import pytest

from bolalg import algebra
from bolalg.algebra import (
    BolAlgebra,
    MaltsevAlgebra,
    VerificationError,
    entry_args,
    maltsev_to_bol,
    verify_bol,
    verify_maltsev,
)
from bolalg.deformation import DeformationTypeCandidate, is_deformation_type
from bolalg.linalg import is_zero_vec, vec_sub

from .conftest import (
    freeze,
    leaves,
    make_b2,
    make_m0,
    make_maltsev_dim4,
    make_so3,
    tabulate,
    tabulate_by_dict,
    tensor_by_leaves,
    tensor_from_entries,
    unit_vec,
    zeros,
)


class TestEvaluation:
    def test_binary_on_basis(self):
        B = make_b2(1)
        assert B.product(0, 1) == (F(0), F(-1))       # e0*e1 = -e1
        assert B.product(1, 0) == (F(0), F(1))

    def test_ternary_on_basis(self):
        lam = F(5, 3)
        B = make_b2(lam)
        assert B.triple(0, 1, 0) == (F(0), lam)        # [e0,e1,e0] = lam e1

    def test_square_vanishes_on_random_vectors(self):
        rng = random.Random(11)
        B = make_b2(2)
        for _ in range(20):
            x = tuple(F(rng.randint(-5, 5)) for _ in range(2))
            assert is_zero_vec(B.product(x, x))

    def test_vector_slots_are_multilinear(self):
        B = make_b2(3)
        x = (F(2), F(5))
        y = (F(-1), F(7))
        direct = B.product(x, y)
        expanded = [F(0), F(0)]
        for i, j in itertools.product(range(2), repeat=2):
            term = B.product(i, j)
            for k in range(2):
                expanded[k] += x[i] * y[j] * term[k]
        assert direct == tuple(expanded)

    def test_dimension_mismatch_raises(self):
        B = make_b2(1)
        with pytest.raises(ValueError):
            B.product((F(1),), (F(1), F(0)))


class TestVerifyBol:
    @pytest.mark.parametrize("lam", [-1, 0, 1, F(5, 3)])
    def test_b2_family_passes(self, lam):
        assert verify_bol(make_b2(lam)).passed

    def test_zero_algebra_passes(self):
        assert verify_bol(BolAlgebra.zero(3)).passed

    def test_degenerate_dimensions_are_legal(self):
        assert verify_bol(BolAlgebra.zero(0)).passed
        assert verify_bol(BolAlgebra.zero(1)).passed

    def test_broken_antisymmetry_is_caught_with_witness(self):
        B = make_b2(1)
        # poke a single ternary entry so the first-two-slot antisymmetry dies
        t = [[[list(row) for row in plane] for plane in cube] for cube in B.t]
        t[1][0][1][0] = F(5)
        broken = BolAlgebra(2, B.c, tuple(
            tuple(tuple(tuple(r) for r in p) for p in c) for c in t))
        report = verify_bol(broken)
        check = report["B02"]
        assert not check.passed
        assert check.witness == (0, 1, 0)
        assert check.residual == (F(0), F(4))

    def test_b2_axiom_failure_with_witness(self):
        bad = BolAlgebra.from_entries(
            2, binary=[((0, 1), {1: F(-1)})], ternary=[((0, 1, 0), {0: F(1)})])
        report = verify_bol(bad)
        assert not report.passed
        assert report["B2"].witness == (0, 1, 0, 1)
        assert report["B2"].residual == (F(0), F(1))

    def test_ternary_only_algebra_reduces_to_lie_triple_check(self):
        lts = BolAlgebra.from_entries(
            2, binary=[], ternary=[((0, 1, 0), {1: F(7)})])
        report = verify_bol(lts)
        assert report.passed
        # with a vanishing binary product the compatibility axiom is vacuous
        assert report["B2"].passed

    def test_reports_are_deterministic(self):
        bad = BolAlgebra.from_entries(
            2, binary=[((0, 1), {1: F(-1)})], ternary=[((0, 1, 0), {0: F(1)})])
        assert verify_bol(bad) == verify_bol(bad)
        good = make_b2(1)
        assert verify_bol(good) == verify_bol(good)


class TestVerifyMaltsev:
    def test_dim4_example_passes(self):
        assert verify_maltsev(make_maltsev_dim4()).passed

    def test_so3_passes(self):
        assert verify_maltsev(make_so3()).passed

    def test_anticommutative_non_maltsev(self):
        # e0e1=e1, e0e2=e2, e1e2=e0 is anticommutative but fails the identity;
        # frozen from a random-substitution evaluation of the identity.
        A = MaltsevAlgebra.from_entries(3, binary=[
            ((0, 1), {1: F(1)}),
            ((0, 2), {2: F(1)}),
            ((1, 2), {0: F(1)}),
        ])
        report = verify_maltsev(A)
        assert self._random_substitution_oracle(A) is False
        assert not report.passed
        check = report["maltsev-identity"]
        assert check.witness == ((0,), 1, 2)
        assert check.residual == (F(2), F(0), F(0))

    @staticmethod
    def _random_substitution_oracle(M, trials=30, seed=5):
        """Evaluate the identity at random rational points; exact arithmetic
        makes a nonzero residual conclusive, and m trials at random points
        catch any nonzero polynomial identity in practice."""
        rng = random.Random(seed)
        p = M.product
        for _ in range(trials):
            x, y, z = (
                tuple(F(rng.randint(-4, 4)) for _ in range(M.n))
                for _ in range(3)
            )
            lhs = p(p(x, y), p(x, z))
            rhs = p(p(p(x, y), z), x)
            rhs = tuple(a + b for a, b in zip(rhs, p(p(p(y, z), x), x)))
            rhs = tuple(a + b for a, b in zip(rhs, p(p(p(z, x), x), y)))
            if not is_zero_vec(vec_sub(lhs, rhs)):
                return False
        return True

    def test_passing_algebras_agree_with_substitution_oracle(self):
        for M in (make_maltsev_dim4(), make_so3(), make_m0()):
            assert self._random_substitution_oracle(M) is True

    def test_broken_anticommutativity_witness(self):
        c = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        c[0][0][0] = F(1)
        M = MaltsevAlgebra(2, tuple(
            tuple(tuple(r) for r in p) for p in c))
        report = verify_maltsev(M)
        assert not report["anticommutativity"].passed
        assert report["anticommutativity"].witness == (0, 0)


class TestMaltsevToBol:
    def test_m0_matches_worked_constants(self):
        B = maltsev_to_bol(make_m0())
        assert B.basis_product(0, 1) == (F(0), F(-1))
        assert B.basis_triple(0, 1, 0) == (F(0), F(-1))
        assert verify_bol(B).passed

    def test_abelian_gives_zero_bol(self):
        B = maltsev_to_bol(MaltsevAlgebra.from_entries(3, binary=[]))
        assert B == BolAlgebra.zero(3)

    def test_so3_ternary(self):
        B = maltsev_to_bol(make_so3())
        assert B.basis_triple(0, 1, 0) == (F(0), F(1), F(0))

    def test_lie_inputs_collapse_to_left_multiplication(self):
        # for a Lie algebra the ternary product equals (x*y)*z
        for M in (make_so3(),
                  MaltsevAlgebra.from_entries(3, binary=[((0, 1), {2: F(1)})]),
                  make_m0()):
            B = maltsev_to_bol(M)
            for i, j, k in itertools.product(range(M.n), repeat=3):
                assert B.basis_triple(i, j, k) == M.product(M.product(i, j), k)

    def test_outputs_verify_on_corpus(self):
        for M in (make_maltsev_dim4(), make_m0(), make_so3(),
                  MaltsevAlgebra.from_entries(2, binary=[])):
            assert verify_bol(maltsev_to_bol(M)).passed

    def test_non_maltsev_input_rejected_with_report(self):
        A = MaltsevAlgebra.from_entries(3, binary=[
            ((0, 1), {1: F(1)}),
            ((0, 2), {2: F(1)}),
            ((1, 2), {0: F(1)}),
        ])
        with pytest.raises(VerificationError) as err:
            maltsev_to_bol(A)
        assert not err.value.report.passed
        assert err.value.report["maltsev-identity"].witness == ((0,), 1, 2)

    def test_verify_then_convert_scans_the_identity_once(self, monkeypatch):
        calls = []
        original = algebra._sagle_failure

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_sagle_failure", counting)
        M = make_maltsev_dim4()
        n = M.n
        assert verify_maltsev(M).passed
        maltsev_to_bol(M)
        # one block per x, over the n basis vectors and then the n(n-1)/2 sums
        # e_i + e_j; each block scans y, z over the basis
        assert [x for _, x in calls] == [(i,) for i in range(n)] + list(
            itertools.combinations(range(n), 2))


class TestConstructors:
    def test_diagonal_binary_entry_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            BolAlgebra.from_entries(2, binary=[((1, 1), {0: F(1)})], ternary=[])

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="i<j"):
            BolAlgebra.from_entries(2, binary=[((1, 0), {0: F(1)})], ternary=[])

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BolAlgebra.from_entries(
                2, binary=[((0, 1), {0: F(1)}), ((0, 1), {1: F(1)})], ternary=[])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            BolAlgebra.from_entries(2, binary=[((0, 2), {0: F(1)})], ternary=[])

    def test_antisymmetry_filled_in(self):
        B = make_b2(1)
        assert B.c[1][1][0] == F(1)
        assert B.t[1][1][0][0] == F(-1)


class TestTabulate:
    """The slow reference ``conftest.tabulate``: fn once per tuple, filled by ``algebra._fill``."""

    def test_value_index_is_outermost(self):
        t = tabulate(2, 3, 2, lambda i, j: (F(i), F(10 * j)))
        assert all(t[0][i][j] == i and t[1][i][j] == 10 * j
                   for i in range(3) for j in range(3))
        assert [len(t), len(t[0]), len(t[0][0])] == [2, 3, 3]

    def test_calls_in_lexicographic_order(self):
        calls = []
        tabulate(1, 2, 3, lambda *args: calls.append(args) or (F(0),))
        assert calls == list(itertools.product(range(2), repeat=3))

    def test_reproduces_the_stored_tensors(self):
        B = make_maltsev_dim4()
        assert tabulate(B.n, B.n, 2, B.basis_product) == B.c
        A = maltsev_to_bol(B)
        assert tabulate(A.n, A.n, 3, A.basis_triple) == A.t

    def test_empty_slots(self):
        assert tabulate(2, 0, 3, lambda *args: 1 / 0) == ((), ())
        assert tabulate_by_dict(2, 0, 3, lambda *args: 1 / 0) == ((), ())


def _fill_cases():
    """(n, value_dim, arity) for every n 0-4, value_dim 0-3 and arity 2, 3."""
    return [(n, d, arity) for arity in (2, 3) for n in range(5) for d in range(4)]


class TestLevelWiseFill:
    """tabulate and tensor_from_entries against the dict fill and the per-leaf freeze."""

    @pytest.mark.parametrize("n,value_dim,arity", _fill_cases())
    def test_tabulate_equals_the_dict_fill(self, n, value_dim, arity):
        rng = random.Random(100 * n + 10 * value_dim + arity)
        values = {args: tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(value_dim))
                  for args in itertools.product(range(n), repeat=arity)}
        calls, reference_calls = [], []
        got = tabulate(value_dim, n, arity, lambda *args: calls.append(args) or values[args])
        want = tabulate_by_dict(value_dim, n, arity,
                                lambda *args: reference_calls.append(args) or values[args])
        assert got == want
        assert calls == reference_calls == list(values)

    @pytest.mark.parametrize("n,value_dim,arity", _fill_cases())
    def test_sparse_entries_equal_the_per_leaf_build(self, n, value_dim, arity):
        rng = random.Random(1000 + 100 * n + 10 * value_dim + arity)
        entries = []
        for args in entry_args(n, arity):
            if rng.random() < 0.5:  # about half the entries are absent
                picked = [v for v in range(value_dim) if rng.random() < 0.5]
                entries.append((args, {v: rng.choice([0, 2, F(-1, 3), "5/7"]) for v in picked}))
        got = tensor_from_entries(n, value_dim, arity, entries, "t")
        assert got == tensor_by_leaves(n, value_dim, arity, entries)
        assert all(type(x) is F for x in leaves(got))

    def test_no_entries_is_the_zero_tensor(self):
        for n, value_dim, arity in _fill_cases():
            assert (tensor_from_entries(n, value_dim, arity, [], "t")
                    == freeze(zeros(value_dim, *[n] * arity)))
        assert BolAlgebra.zero(3).c == freeze(zeros(3, 3, 3))
        assert BolAlgebra.zero(3).t == freeze(zeros(3, 3, 3, 3))

    def test_the_stored_tensors_equal_the_per_leaf_build(self):
        B = make_b2(F(2, 3))
        A = maltsev_to_bol(make_maltsev_dim4())
        for alg in (B, A):
            n = alg.n
            c = [(args, dict(enumerate(alg.basis_product(*args)))) for args in entry_args(n, 2)]
            t = [(args, dict(enumerate(alg.basis_triple(*args)))) for args in entry_args(n, 3)]
            assert alg.c == tensor_by_leaves(n, n, 2, c)
            assert alg.t == tensor_by_leaves(n, n, 3, t)


def _random_tensor(rng: random.Random, n: int, arity: int, antisymmetric: bool, kind) -> tuple:
    """n planes of n**arity random entries, about half of them zero, ints or Fractions;
    antisymmetric in the first two slots (zero where they are equal) or not."""
    values = {}
    for args in itertools.product(range(n), repeat=arity):
        swapped = (args[1], args[0]) + args[2:]
        if antisymmetric and args[0] >= args[1]:
            values[args] = (tuple(-x for x in values[swapped]) if args[0] > args[1]
                            else (kind(0),) * n)
        else:
            values[args] = tuple(kind(rng.choice((0, 0, 1, -2, 3))) / kind(rng.choice((1, 3)))
                                 if kind is F else rng.choice((0, 0, 1, -2, 3)) for _ in range(n))
    return tabulate(n, n, arity, lambda *args: values[args])


class TestStoredForm:
    """An algebra stores its integer form; c and t are built from it on first access."""

    @pytest.mark.parametrize("antisymmetric", [True, False], ids=["antisymmetric", "any"])
    @pytest.mark.parametrize("kind", [int, F], ids=["int", "Fraction"])
    def test_the_tensors_round_trip(self, antisymmetric, kind):
        rng = random.Random(7 + antisymmetric + 2 * (kind is F))
        for n in range(5):
            c = _random_tensor(rng, n, 2, antisymmetric, kind)
            t = _random_tensor(rng, n, 3, antisymmetric, kind)
            B, M = BolAlgebra(n, c, t), MaltsevAlgebra(n, c)
            assert not {"c", "t"} & (set(B.__dict__) | set(M.__dict__))
            assert B.c == c and B.t == t and M.c == c
            assert all(type(x) is F for x in leaves((B.c, B.t, M.c)))
            assert B.c is B.c  # kept after the first access
            assert all(B.basis_product(i, j) == tuple(plane[i][j] for plane in c)
                       for i in range(n) for j in range(n))

    def test_an_entries_built_algebra_equals_its_tensor_built_twin(self):
        for A in (make_b2(F(5, 3)), maltsev_to_bol(make_so3()),
                  maltsev_to_bol(make_maltsev_dim4()), BolAlgebra.zero(3)):
            twin = BolAlgebra(A.n, A.c, A.t, A.basis_names)
            assert twin == A and hash(twin) == hash(A) and twin.form == A.form
        for M in (make_m0(), make_maltsev_dim4(), make_so3()):
            twin = MaltsevAlgebra(M.n, M.c, M.basis_names)
            assert twin == M and hash(twin) == hash(M)
        B = make_b2(1)
        named = BolAlgebra(2, B.c, B.t, ("x", "y"))
        assert named != B and named != BolAlgebra(2, B.c, B.t, ["x", "z"])
        assert named == BolAlgebra(2, B.c, B.t, ["x", "y"])  # names are kept as a tuple
        assert make_b2(1) != make_b2(2) and MaltsevAlgebra(2, B.c) != B

    def test_repr_text_is_unchanged(self):
        assert repr(make_m0()) == (
            "MaltsevAlgebra(n=2, c=(((Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), "
            "Fraction(0, 1))), ((Fraction(0, 1), Fraction(-1, 1)), (Fraction(1, 1), "
            "Fraction(0, 1)))), basis_names=None)")
        B = maltsev_to_bol(make_maltsev_dim4())
        c = tensor_from_entries(4, 4, 2, [(a, dict(enumerate(B.basis_product(*a))))
                                          for a in entry_args(4, 2)], "binary")
        t = tensor_from_entries(4, 4, 3, [(a, dict(enumerate(B.basis_triple(*a))))
                                          for a in entry_args(4, 3)], "ternary")
        named = BolAlgebra(4, c, t, ("a", "b", "c", "d"))
        assert repr(named) == (
            f"BolAlgebra(n=4, c={c!r}, t={t!r}, basis_names=('a', 'b', 'c', 'd'))")


class TestShapeCheck:
    """A malformed tensor is refused by the constructor, naming it and its shape."""

    def _cases(self):
        B = make_b2(1)
        c, t = B.c, B.t
        short_rows = tuple(tuple(row[:1] for row in plane) for plane in c)
        short_t = (t[0], (t[1][0], (t[1][1][0], t[1][1][1][:1])))
        zero_plane = ((F(0),) * 2,) * 2
        return [
            (lambda: BolAlgebra(2, c + (zero_plane,), t), "c tensor must be 2 x 2 x 2"),
            (lambda: BolAlgebra(2, c + (((0, 1), (-1, 0)),), t), "c tensor must be 2 x 2 x 2"),
            (lambda: BolAlgebra(2, short_rows, t), "c tensor must be 2 x 2 x 2"),
            (lambda: BolAlgebra(2, c[:1], t), "c tensor must be 2 x 2 x 2"),
            (lambda: BolAlgebra(2, 0, t), "c tensor must be 2 x 2 x 2"),
            (lambda: BolAlgebra(2, c, t + (t[0],)), "t tensor must be 2 x 2 x 2 x 2"),
            (lambda: BolAlgebra(2, c, short_t), "t tensor must be 2 x 2 x 2 x 2"),
            (lambda: BolAlgebra(2, c, c), "t tensor must be 2 x 2 x 2 x 2"),
            (lambda: MaltsevAlgebra(2, c + (zero_plane,)), "c tensor must be 2 x 2 x 2"),
            (lambda: MaltsevAlgebra(2, short_rows), "c tensor must be 2 x 2 x 2"),
            (lambda: MaltsevAlgebra(3, c), "c tensor must be 3 x 3 x 3"),
            # a deformation candidate's tensors go through the same reader
            (lambda: is_deformation_type(DeformationTypeCandidate(2, c + (zero_plane,), c, t)),
             "mu tensor must be 2 x 2 x 2"),
            (lambda: is_deformation_type(DeformationTypeCandidate(2, c, c, t[:1])),
             "omega tensor must be 2 x 2 x 2 x 2"),
        ]

    def test_a_malformed_tensor_is_refused_at_construction(self):
        for build, message in self._cases():
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_well_formed_lists_are_read(self):
        B = make_b2(1)
        lists = lambda x: [lists(y) for y in x] if isinstance(x, tuple) else x
        assert BolAlgebra(2, lists(B.c), lists(B.t)) == BolAlgebra(2, B.c, B.t)
        assert BolAlgebra(0, (), ()) == BolAlgebra.zero(0)
