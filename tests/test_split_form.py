"""Every split algebra B (+)_(nu,omega) V is written by one writer,
``representation._split_form``, and its module is read back by one reader,
``representation._module_of``.

The hat(B) of ``extension.twisted_product`` and the Maltsev null extension
(``representation._null_extension``) must equal the former hand-written
assemblies kept in ``conftest`` (``former_hat`` and ``former_null_extension``)
in type, ``==``, hash and form (all ints).  The modules are those of
``test_sparse_scans.REPRESENTATIONS``, which holds
``random_representation_corpus()``, verified or not, each with the zero
cochain, its ``z_basis`` cochains when it verifies and a random cochain; the
actions are every action of ``test_maltsev_action``, accepted or refused, and
its random actions.  Then the writer and the reader are checked against each
other: ``_module_of`` reads back every module that ``_split_form`` wrote, with
the zero and a random cochain.
"""

import random

import pytest

from bolalg.algebra import BolAlgebra, MaltsevAlgebra, _of_form
from bolalg.cohomology import CochainPair, cochain_dim, cohomology, coords_to_cochain, is_cocycle
from bolalg.extension import twisted_product
from bolalg.linalg import zero_vec
from bolalg.representation import (
    _module_of, _null_extension, _split_form, verify_representation,
)

from .conftest import (
    former_hat, former_null_extension, m0_action, random_fraction, random_representation_corpus,
)
from .test_maltsev_action import CORPUS as ACTIONS
from .test_maltsev_action import _PLAN, _adjoint_action, _random_actions
from .test_parse_forms import assert_same
from .test_sparse_scans import REPRESENTATIONS


def _random_cochain(rng: random.Random, R) -> CochainPair:
    n, m = R.base.n, R.m
    return coords_to_cochain(R.base, m, tuple(random_fraction(rng)
                                              for _ in range(cochain_dim(n, m))))


def _split(R, c: CochainPair) -> BolAlgebra:
    B = R.base
    return _of_form(BolAlgebra, B.n + R.m, _split_form(B.form, R.form, B.n, R.m, c.coords()),
                    None)


def test_the_modules_hold_the_random_corpus_and_fail_somewhere():
    assert all(R in REPRESENTATIONS for R in random_representation_corpus())
    assert not all(verify_representation(R).passed for R in REPRESENTATIONS)


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_the_split_algebra_equals_the_former_hat(index):
    R = REPRESENTATIONS[index]
    verified = verify_representation(R).passed
    pairs = [CochainPair.zero(R.base, R.m), *(cohomology(R).z_basis if verified else ()),
             _random_cochain(random.Random(f"split-{index}"), R)]
    for c in pairs:
        reference = former_hat(R, c)
        assert_same(_split(R, c), reference)
        if verified and is_cocycle(R, c).passed:
            assert_same(twisted_product(R, c).hat, reference)


@pytest.mark.parametrize("M, rho", ACTIONS)
def test_the_null_extension_equals_the_former_assembly(M, rho):
    assert_same(_null_extension(M, rho), former_null_extension(M, rho))


@pytest.mark.parametrize("name", _PLAN)
def test_the_null_extensions_of_random_actions_equal_the_former_assembly(name):
    M, known, count, kinds = _PLAN[name]()
    rng = random.Random(f"maltsev-action-{name}")
    for M, rho in _random_actions(rng, M, [_adjoint_action(M), *known], count, kinds):
        assert_same(_null_extension(M, rho), former_null_extension(M, rho))


def test_a_null_extension_of_a_non_anticommutative_product_equals_the_former_assembly():
    M = MaltsevAlgebra(2, (((0, 1), (0, 0)), ((0, 0), (1, 0))))  # e0*e1 != -e1*e0
    assert_same(_null_extension(M, m0_action()), former_null_extension(M, m0_action()))


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_the_module_reader_reads_back_what_the_split_writer_wrote(index):
    R = REPRESENTATIONS[index]
    B, n, m = R.base, R.base.n, R.m
    rng = random.Random(f"round-trip-{index}")
    for coords in (zero_vec(cochain_dim(n, m)), _random_cochain(rng, R).coords()):
        read = _module_of(B, m, _split_form(B.form, R.form, n, m, coords), n)
        assert_same(read, R)
