"""The bundle matrices written by rows, against the former dense grids.

``extension.twisted_product`` writes its i, p and sigma, blocks of the identity,
by their rows, and ``extension._frame`` writes [sigma | i] from the nonzero rows
of sigma and i.  Each must equal the former dense construction kept in
``conftest`` (``former_twisted_maps``, ``former_frame``) in ``==`` and in
``nonzero_rows``, and a whole twisted product must equal the former one in
``formats.extension_to_obj`` too.  The bundles are every bundle of
``test_integer_scans._bundles`` (twisted products and the same bundles through a
moved section), those bundles with a seeded dense invertible [sigma | i] (the
frame reads any sigma and i, so rows of i with several nonzeros are met), and the
twisted products of the verified modules of ``test_split_form``
(``test_sparse_scans.REPRESENTATIONS``, with the zero cochain and each
``z_basis`` cochain); a module that fails verification is refused.
"""

import random

import pytest

from bolalg import extension as EXTENSION
from bolalg.algebra import VerificationError
from bolalg.cohomology import CochainPair, cohomology
from bolalg.extension import AbelianExtension, twisted_product
from bolalg.formats import extension_to_obj
from bolalg.linalg import Mat, inverse, replace
from bolalg.representation import verify_representation

from .conftest import former_frame, former_hat, former_twisted_maps, random_invertible
from .test_integer_scans import NAMES, _bundles
from .test_sparse_scans import REPRESENTATIONS


def _assert_same_mat(mat, former):
    assert mat == former and mat.shape == former.shape
    assert mat.nonzero_rows == former.nonzero_rows


def _assert_same_frame(E):
    E = replace(E)  # the same bundle, with nothing kept on it
    former = former_frame(E)
    _assert_same_mat(EXTENSION._frame(E), former)
    _assert_same_mat(EXTENSION._splitting(E), inverse(former))


@pytest.mark.parametrize("name", NAMES)
def test_the_frame_of_every_bundle_equals_the_former_grid(name):
    for E in _bundles(name):
        _assert_same_frame(E)


@pytest.mark.parametrize("name", NAMES)
def test_the_frame_of_dense_maps_equals_the_former_grid(name):
    E = _bundles(name)[0]
    n, N = E.base.n, E.hat.n
    frame = random_invertible(random.Random(f"frame-{name}"), N)
    rows = [frame.row(r) for r in range(N)]
    E = replace(E, sigma=Mat.from_rows([row[:n] for row in rows]),
                i=Mat.from_rows([row[n:] for row in rows]))
    assert any(len(row) > 1 for row in E.i.nonzero_rows)  # rows no identity block has
    _assert_same_mat(EXTENSION._frame(E), frame)
    _assert_same_frame(E)


@pytest.mark.parametrize("index", range(len(REPRESENTATIONS)))
def test_the_twisted_product_equals_the_former_assembly(index):
    R = REPRESENTATIONS[index]
    if not verify_representation(R).passed:
        with pytest.raises(VerificationError, match="verified representation"):
            twisted_product(R, CochainPair.zero(R.base, R.m))
        return
    n, m = R.base.n, R.m
    for c in (CochainPair.zero(R.base, m), *cohomology(R).z_basis):
        E = twisted_product(R, c)
        former = AbelianExtension(R.base, m, former_hat(R, c), *former_twisted_maps(n, m))
        assert E == former and hash(E) == hash(former)
        for mat, former_mat in zip((E.i, E.p, E.sigma), former_twisted_maps(n, m)):
            _assert_same_mat(mat, former_mat)
        assert extension_to_obj(E) == extension_to_obj(former)
        _assert_same_frame(E)
