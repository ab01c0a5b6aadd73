"""hat(B) and the deformation forms built from coefficients, against the
constructions they replaced.

``twisted_product`` writes hat(B)'s integer form with the one entry writer
(``algebra._entry_forms``) from the entries of the base's stored integer form
at every args, of the cocycle and of the nonzero rows of rho, D and theta.
The reference in ``conftest`` is the former construction, every basis
product tabulated from the dense tensors.  The bundles must be equal (hat c
and t, i, p and sigma), every entry a ``Fraction``, and the stored form must
be the one read off the hat's tensors.
The inputs are semidirect products, nonzero cocycles over the adjoint modules
of b2, so3 and the solvable algebras of dimension 3 and 4 in their canonical
and a dense rational basis, cocycles of the Example 2.8 module, a module with
m = 0 and the octonions' adjoint module (N = 14).

The deformation checks read one integer form per datum (``_datum_forms``),
written from the base's stored form and the pair's entries; it must equal
the form of the dense (mu, nu, omega) candidate, and the checks must build
no nu or omega tensor on the pair.
"""

import functools
import random
from fractions import Fraction as F

import pytest

from bolalg import algebra as ALGEBRA
from bolalg import cli as CLI
from bolalg import deformation as DEFORMATION
from bolalg.algebra import BolAlgebra, maltsev_to_bol
from bolalg.cohomology import CochainPair, cochain_dim, cohomology, coords_to_cochain
from bolalg.deformation import (
    DeformationDatum,
    DeformationTypeCandidate,
    check_first_order_formal,
    generates_infinitesimal_deformation,
)
from bolalg.extension import semidirect_product, twisted_product, validate_extension
from bolalg.representation import Representation, adjoint_representation

from .conftest import (
    DATA,
    leaves,
    make_b2,
    make_ex28_representation,
    make_so3,
    make_solvable,
    random_fraction,
    random_representation_corpus,
    tabulated_twisted_product,
)
from .test_basis_change import dense_basis, transport
from .test_integer_scans import _shift
from .test_sparse_scans import _octonions

BASES = {
    "b2": lambda: make_b2(1),
    "so3": lambda: maltsev_to_bol(make_so3()),
    "solvable3": lambda: maltsev_to_bol(make_solvable(3)),
    "solvable4": lambda: maltsev_to_bol(make_solvable(4)),
}


@functools.cache
def _base(name: str, dense: bool):
    B = BASES[name]()
    return transport(B, dense_basis(random.Random(B.n), B.n)) if dense else B


def _cocycle(R: Representation, seed: int) -> CochainPair:
    """A seeded combination of the canonical Z basis with small nonzero weights."""
    rng = random.Random(seed)
    c = CochainPair.zero(R.base, R.m)
    for z in cohomology(R).z_basis:
        c = c + F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3))) * z
    return c


def _assert_same_hat(R: Representation, c: CochainPair):
    E, ref = twisted_product(R, c), tabulated_twisted_product(R, c)
    assert (E.hat.c, E.hat.t, E.i, E.p, E.sigma) == (
        ref.hat.c, ref.hat.t, ref.i, ref.p, ref.sigma)
    assert E == ref
    assert all(type(x) is F for x in leaves((E.hat.c, E.hat.t)))
    N = E.hat.n
    assert E.hat.form == BolAlgebra(N, E.hat.c, E.hat.t).form
    assert validate_extension(E).passed
    return E


@pytest.mark.parametrize("index", range(10))
def test_semidirect_products_equal_the_tabulated_hat(index):
    R = random_representation_corpus()[index]
    E = semidirect_product(R)
    assert E == _assert_same_hat(R, CochainPair.zero(R.base, R.m))


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_adjoint_cocycles_give_the_tabulated_hat(name, dense):
    R = adjoint_representation(_base(name, dense))
    c = _cocycle(R, 7)
    assert not c.is_zero()
    _assert_same_hat(R, c)


def test_example_2_8_cocycles_give_the_tabulated_hat():
    R = make_ex28_representation()
    for seed in (1, 2):
        _assert_same_hat(R, _cocycle(R, seed))


def test_a_module_with_m_0_gives_the_base():
    B = maltsev_to_bol(make_so3())
    E = _assert_same_hat(Representation.zero(B, 0), CochainPair.zero(B, 0))
    assert (E.hat.n, E.hat.c, E.hat.t) == (B.n, B.c, B.t)


def test_the_octonion_hat_equals_the_tabulated_hat():
    R = adjoint_representation(maltsev_to_bol(_octonions()))
    assert _assert_same_hat(R, _shift(R, 3)).hat.n == 14


def test_the_hat_is_never_read_back_off_its_tensors(monkeypatch):
    R = adjoint_representation(_base("so3", True))
    c = _cocycle(R, 3)
    read = []
    original = ALGEBRA._coefficients
    monkeypatch.setattr(ALGEBRA, "_coefficients", lambda t, n, arity: (
        read.append(n), original(t, n, arity))[1])
    E = twisted_product(R, c)
    assert validate_extension(E).passed
    assert E.hat.n not in read


# ---------------------------------------------------------------------------
# deformation forms from the datum


def _data():
    """(label, datum) over adjoint cochains: cocycles and seeded random pairs."""
    for name in ("b2", "so3", "solvable3"):
        for dense in (False, True):
            B = _base(name, dense)
            R = adjoint_representation(B)
            rng = random.Random(B.n)
            pairs = (_cocycle(R, 5), coords_to_cochain(B, B.n, tuple(
                random_fraction(rng) if rng.random() < 0.3 else F(0)
                for _ in range(cochain_dim(B.n, B.n)))))
            for kind, pair in zip(("cocycle", "random"), pairs):
                yield f"{name}-{'dense' if dense else 'sparse'}-{kind}", DeformationDatum(B, pair)


DATA_CASES = dict(_data())


@pytest.mark.parametrize("label", DATA_CASES)
def test_the_datum_form_equals_the_dense_candidate_form(label):
    d = DATA_CASES[label]
    base, copy = d.base, coords_to_cochain(d.base, d.base.n, d.pair.coords())
    candidate = DeformationTypeCandidate(base.n, base.c, copy.nu, copy.omega)
    assert DEFORMATION._datum_forms(d) == DEFORMATION._candidate_forms(candidate)


@pytest.mark.parametrize("label", DATA_CASES)
def test_the_deformation_checks_build_no_tensor_of_the_pair(label):
    B, pair = DATA_CASES[label].base, DATA_CASES[label].pair
    d = DeformationDatum(B, coords_to_cochain(B, pair.m, pair.coords()))
    generates_infinitesimal_deformation(d)
    check_first_order_formal(d)
    assert "nu" not in d.pair.__dict__ and "omega" not in d.pair.__dict__


@pytest.mark.parametrize("command", ["deform-check", "deform-formal"])
@pytest.mark.parametrize("cochain", ["scale_b2.cochain", "omega_e0.cochain"])
def test_the_deformation_commands_build_no_tensor_of_the_pair(monkeypatch, capsys,
                                                              command, cochain):
    loaded = []
    original = CLI._load_deformation
    monkeypatch.setattr(CLI, "_load_deformation", lambda *a, **k: (
        loaded.append(original(*a, **k)), loaded[-1])[1])
    argv = [command, str(DATA / "b2_lambda1.alg"), str(DATA / cochain), "--json"]
    assert CLI.main(argv) in (0, 1)
    capsys.readouterr()
    (d,) = loaded
    assert "nu" not in d.pair.__dict__ and "omega" not in d.pair.__dict__
