"""Every derived algebra and form is written from integer entries, against the
former coefficient route.

``algebra._entry_forms`` is the one writer of an integer form: each producer
hands it entries (args, ((k, p, q), ...)) of ints, i<j ones with their twins
or every args.  The producers that start from forms (``maltsev_to_bol``,
``representation._null_extension``, ``extension.twisted_product``,
``deformation.deformed_algebra`` and ``deformation._datum_forms``) and the
tensor readers (``BolAlgebra(n, c, t)``, ``MaltsevAlgebra(n, c)``,
``CochainPair(base, m, nu, omega)`` and ``deformation._candidate_forms``) must
give what the former route gave: every coefficient a ``Fraction``, both
halves of an antisymmetric one listed, made ints again over their lcm
(``coefficient_*`` in conftest).  Each result must equal the reference in
type, ``==``, hash and form (all ints).  The inputs are the Maltsev files of
``data/`` and of the benchmark's three workloads, the Maltsev actions of the
corpus and their random kin, twisted products over the random module corpus,
the deformation data and candidates of ``test_block_scans`` (datum 12 on a base
that fails B02, and data on bases that fail B01) and of
``test_hat_coefficients``, the tensors of the perturbed algebra corpus,
which fail B01 or B02, and twisted products of the zero module over bases
that are not antisymmetric, which both preconditions let through.  ``maltsev_to_bol`` and ``twisted_product`` build no
``Fraction``.
"""

import json
import random
import re
from fractions import Fraction as F

import pytest

from bolalg import deformation as DEFORMATION
from bolalg.algebra import (
    BolAlgebra, MaltsevAlgebra, _of_form, maltsev_to_bol, verify_bol, verify_maltsev,
)
from bolalg.cohomology import CochainPair, cochain_dim, cohomology, coords_to_cochain, is_cocycle
from bolalg.deformation import DeformationDatum, deformed_algebra
from bolalg.extension import twisted_product
from bolalg.formats import parse_algebra
from bolalg.representation import (
    Representation, _null_extension, adjoint_representation, verify_representation,
)

from .conftest import (
    DATA,
    coefficient_datum_forms,
    coefficient_deformed_algebra,
    coefficient_hat,
    coefficient_maltsev_to_bol,
    coefficient_null_extension,
    coefficient_tensor_form,
    entry_coords,
    m0_action,
    random_fraction,
    random_representation_corpus,
)
from .test_block_scans import CANDIDATES, CORPUS, DEFORMATION_DATA, OFF_ANTISYMMETRY
from .test_coboundary_matrix import _symmetric_product
from .test_hat_coefficients import DATA_CASES, _cocycle
from .test_maltsev_action import CORPUS as ACTIONS
from .test_maltsev_action import _PLAN, _adjoint_action, _random_actions
from .test_parse_forms import _jobs, assert_same


def _maltsev_files(tmp_path) -> list:
    """The Maltsev algebras of data/ and of one pass of each workload at seeds 0 and 1."""
    texts = [path.read_text() for path in sorted(DATA.glob("*.alg"))]
    jobs = _jobs()
    for seed in (0, 1):
        for workload in ("cohomology-ladder", "verify-scan", "extend-deform"):
            folder = tmp_path / f"{workload}-{seed}"
            folder.mkdir()
            for job in jobs.build_pass(workload, seed, 0, str(folder)):
                texts += [(folder / a).read_text() for a in job["argv"]
                          if a.endswith((".alg", ".mal")) and (folder / a).is_file()]
    return [parse_algebra(text) for text in dict.fromkeys(texts)
            if json.loads(text)["kind"] == "maltsev"]


def test_maltsev_to_bol_writes_the_coefficient_form(tmp_path):
    algebras = _maltsev_files(tmp_path)  # n = 2-7, in canonical and moved bases
    assert len(algebras) >= 15
    for M in algebras:
        assert_same(maltsev_to_bol(M), coefficient_maltsev_to_bol(M))


@pytest.mark.parametrize("M, rho", ACTIONS)
def test_the_null_extension_writes_the_coefficient_form(M, rho):
    assert_same(_null_extension(M, rho), coefficient_null_extension(M, rho))


@pytest.mark.parametrize("name", _PLAN)
def test_the_null_extensions_of_random_actions_write_the_coefficient_form(name):
    M, known, count, kinds = _PLAN[name]()
    rng = random.Random(f"maltsev-action-{name}")
    for M, rho in _random_actions(rng, M, [_adjoint_action(M), *known], count, kinds):
        assert_same(_null_extension(M, rho), coefficient_null_extension(M, rho))


def test_a_null_extension_of_a_non_anticommutative_product_writes_every_args():
    M = MaltsevAlgebra(2, (((0, 1), (0, 0)), ((0, 0), (F(1, 2), 0))))  # e0*e1 != -e1*e0
    rho = m0_action()
    assert_same(_null_extension(M, rho), coefficient_null_extension(M, rho))


@pytest.mark.parametrize("index", range(10))
def test_twisted_products_write_the_coefficient_hat(index):
    R = random_representation_corpus()[index]
    assert verify_representation(R).passed
    pairs = [CochainPair.zero(R.base, R.m)]
    if cohomology(R).z_basis:
        pairs += [_cocycle(R, 5), _cocycle(R, 6)]
    for c in pairs:
        assert_same(twisted_product(R, c).hat, coefficient_hat(R, c))


def _non_antisymmetric_bases() -> list:
    """Bases where e0*e0 = e1 (test_coboundary_matrix), B01 fails or B02 fails (datum 12)."""
    return [_symmetric_product().base, *OFF_ANTISYMMETRY[:3], DEFORMATION_DATA[12].base]


@pytest.mark.parametrize("B", _non_antisymmetric_bases())
def test_a_twisted_product_over_a_non_antisymmetric_base_keeps_every_args_of_it(B):
    # both preconditions pass on the zero module, and hat(B) restricts to B itself
    for m in (0, 1, 2):
        R, c = Representation.zero(B, m), CochainPair.zero(B, m)
        assert verify_representation(R).passed and is_cocycle(R, c).passed
        hat = twisted_product(R, c).hat
        assert_same(hat, coefficient_hat(R, c))
        assert [row[:B.n] for row in hat.form[1][:B.n]] == list(B.form[1])


def _off_antisymmetry_data() -> list:
    """Data over bases whose product is not antisymmetric (B01 fails), random pairs."""
    rng = random.Random(46)
    return [DeformationDatum(B, coords_to_cochain(B, B.n, tuple(
        random_fraction(rng) for _ in range(cochain_dim(B.n, B.n))))) for B in OFF_ANTISYMMETRY[:3]]


OFF_DATA = _off_antisymmetry_data()


@pytest.mark.parametrize("d", DEFORMATION_DATA + OFF_DATA)
def test_deformed_algebras_write_the_coefficient_form(d):
    for t in (F(1), F(2), F(-1, 3), F(0), 5):
        assert_same(deformed_algebra(d, t), coefficient_deformed_algebra(d, t))


def test_datum_12_and_the_off_data_have_bases_that_fail_b02_and_b01():
    assert not verify_bol(DEFORMATION_DATA[12].base)["B02"].passed
    assert not any(verify_bol(d.base)["B01"].passed for d in OFF_DATA)


@pytest.mark.parametrize("d", DEFORMATION_DATA + OFF_DATA + list(DATA_CASES.values()))
def test_the_datum_forms_are_the_coefficient_forms(d):
    forms = DEFORMATION._datum_forms(d)
    assert forms == coefficient_datum_forms(d)
    assert all(type(x) is int for x in _ints(forms))


@pytest.mark.parametrize("index", range(len(CANDIDATES)))
def test_the_candidate_forms_are_the_coefficient_forms(index):
    d = CANDIDATES[index]
    assert DEFORMATION._candidate_forms(d) == coefficient_tensor_form(
        d.n, (d.mu, 2), (d.nu, 2), (d.omega, 3))


def _as_lists(t):
    """t as nested lists of ints where an entry is integral, Fractions elsewhere."""
    if isinstance(t, tuple):
        return [_as_lists(x) for x in t]
    return int(t) if t.denominator == 1 else t


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_the_tensor_constructors_write_the_coefficient_form(index):
    B = CORPUS[index]
    n, c, t = B.n, B.c, B.t
    for tensors in ((c, t), (_as_lists(c), _as_lists(t))):
        got = BolAlgebra(n, *tensors, B.basis_names)
        want = coefficient_tensor_form(n, (tensors[0], 2), (tensors[1], 3))
        assert_same(got, _of_form(BolAlgebra, n, want, B.basis_names))
        want = coefficient_tensor_form(n, (tensors[0], 2), ((), 3))
        assert_same(MaltsevAlgebra(n, tensors[0]), _of_form(MaltsevAlgebra, n, want, None))


@pytest.mark.parametrize("index", range(len(CANDIDATES)))
def test_the_pair_tensor_constructor_reads_the_coefficient_coordinates(index):
    d = CANDIDATES[index]
    base = next(B for B in CORPUS if B.n == d.n)
    try:
        coords = entry_coords(d.n, ("nu", d.nu, 2), ("omega", d.omega, 3))
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            CochainPair(base, d.n, d.nu, d.omega)
        return
    got = CochainPair(base, d.n, d.nu, d.omega)
    assert got.coords() == coords and all(type(x) is F for x in got.coords())
    assert got == CochainPair(base, d.n, _as_lists(d.nu), _as_lists(d.omega))


def _ints(x) -> list:
    return [y for part in x for y in _ints(part)] if isinstance(x, tuple) else [x]


def _fractions_built(monkeypatch, build) -> int:
    """The number of Fractions made while build() runs."""
    built, new = [], F.__new__
    monkeypatch.setattr(F, "__new__", lambda *args, **kwargs: (
        built.append(args), new(*args, **kwargs))[1])
    build()
    monkeypatch.undo()
    return len(built)


def test_the_builders_from_forms_build_no_fraction(monkeypatch):
    # the former coefficient route built 14 and 77 Fractions here
    M = parse_algebra((DATA / "maltsev_dim4.alg").read_text())
    assert verify_maltsev(M).passed
    assert _fractions_built(monkeypatch, lambda: maltsev_to_bol(M)) == 0
    assert maltsev_to_bol(M) == coefficient_maltsev_to_bol(M)
    R = adjoint_representation(maltsev_to_bol(parse_algebra((DATA / "so3.alg").read_text())))
    z = cohomology(R).z_basis
    c = z[0] + z[1]
    assert verify_representation(R).passed
    twisted_product(R, c)  # is_cocycle's report, as the first call reads it
    assert _fractions_built(monkeypatch, lambda: twisted_product(R, c)) == 0
    assert twisted_product(R, c).hat == coefficient_hat(R, c)
