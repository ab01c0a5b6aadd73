"""Both cohomology maps as integer rows, against the Fraction rows they replaced.

``cohomology._constraint_rows`` yields each CC1-CC3 row as a primitive int
row with a positive lead, ``representation._coboundary_rows`` adds up ints
over D_A * D_R and builds one ``Fraction`` per nonzero, ``_delta_rows`` keeps
those ints, and ``linalg.kernel_basis`` fills its vectors in one pass over the
echelon rows.  The references in ``conftest`` are the former constructions:
the constraint rows divided by their leads in ``Fraction``s, the rows
summed in ``Fraction``s, and the kernel read pair by pair.  A row scaled to
a leading 1 and its primitive positive-lead form determine each other, so
the int rows must give the reference rows one by one, and the distinct
rows in the same order of first occurrence.
"""

import functools
from fractions import Fraction as F

import pytest

from bolalg.algebra import maltsev_to_bol
from bolalg.cohomology import _constraint_rows, cochain_dim
from bolalg.linalg import Mat, kernel_basis
from bolalg.representation import (
    _coboundary_rows,
    _delta_rows,
    adjoint_representation,
    coboundary_matrix,
)

from .conftest import (
    assert_primitive,
    fraction_coboundary_rows,
    fraction_constraint_rows,
    fraction_delta_rows,
    leading_one,
    pairwise_kernel_basis,
)
from .test_acceptance import _closure_corpus
from .test_constraint_rows import _prime_module
from .test_oracle import _sphere
from .test_sparse_scans import _octonions

NAMES = ([label for label, _ in _closure_corpus()] + ["prime-module", "octonions"]
         + [f"sphere{n}" for n in range(3, 9)])


@functools.cache
def _module(name):
    if name.startswith("sphere"):
        return adjoint_representation(_sphere(int(name[len("sphere"):])))
    if name == "octonions":
        return adjoint_representation(maltsev_to_bol(_octonions()))
    if name == "prime-module":
        return _prime_module()
    return dict(_closure_corpus())[name]


@pytest.mark.parametrize("name", NAMES)
def test_constraint_rows_are_the_fraction_rows_made_primitive(name):
    R = _module(name)
    rows, reference = list(_constraint_rows(R)), list(fraction_constraint_rows(R))
    assert rows and len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert_primitive(row)
        assert leading_one(row) == ref
    distinct = list(dict.fromkeys(rows))
    assert list(map(leading_one, distinct)) == list(dict.fromkeys(reference))


@pytest.mark.parametrize("name", NAMES)
def test_kernel_basis_equals_the_pairwise_fill(name):
    R = _module(name)
    constraints = Mat._of_rows(cochain_dim(R.base.n, R.m),
                               tuple(dict.fromkeys(_constraint_rows(R))))
    for matrix in (constraints, coboundary_matrix(R)):
        got = kernel_basis(matrix)
        assert got == pairwise_kernel_basis(matrix)
        assert all(type(x) is F for v in got for x in v)


@pytest.mark.parametrize("name", NAMES)
def test_coboundary_and_delta_rows_equal_the_fraction_sums(name):
    R = _module(name)
    assert _coboundary_rows(R) == fraction_coboundary_rows(R)
    assert all(type(x) is F for row in _coboundary_rows(R) for _, x in row)
    DD = R.base.form[0] * R.form[0]  # the Delta rows are ints over D_A * D_R
    assert _delta_rows(R) == tuple(tuple(tuple(tuple((k, x * DD) for k, x in row) for row in delta)
                                         for delta in grid) for grid in fraction_delta_rows(R))
    assert all(type(x) is int for grid in _delta_rows(R) for delta in grid
               for row in delta for _, x in row)
