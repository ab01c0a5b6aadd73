"""The coordinate-first CochainPair against the tensor-first pair it replaced.

A ``CochainPair`` holds its canonical coordinate vector; ``zero``,
``from_entries`` and ``coords_to_cochain`` write it directly, and the
tensors nu and omega are built from it on first access.  The reference
below is the former class: it stored the tensors, recovered the
coordinates from them through ``entry_coords``, and was built from a
coordinate vector by tabulating every tensor entry.  The two are compared
on every cochain ``cohomology()`` returns, in coordinates, tensors,
equality, hashing and what the renderers print; the public constructor
keeps each of its errors.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from bolalg.algebra import entry_args, maltsev_to_bol
from bolalg.cli import _cochain_lines, _vec_text
from bolalg.cohomology import (
    CochainPair,
    _coordinate_index,
    cochain_dim,
    cohomology,
    coords_to_cochain,
)
from bolalg.formats import cochain_to_obj, render_scalar
from bolalg.linalg import zero_vec
from bolalg.representation import adjoint_representation

from .conftest import (
    entry_coords, entry_values, freeze, make_b2, make_so3, make_solvable, random_fraction,
    tabulate, tensor_from_entries, zeros,
)
from .test_acceptance import _closure_corpus
from .test_basis_change import dense_basis, transport
from .test_constraint_rows import _prime_module


@dataclass(frozen=True)
class _TensorPair:
    """The former CochainPair: coefficient tensors, coordinates rescanned."""

    base: object
    m: int
    nu: tuple
    omega: tuple

    def __post_init__(self):
        n, m = self.base.n, self.m
        if len(self.nu) != m or len(self.omega) != m:
            raise ValueError("cochain tensors must have one plane per module coordinate")
        for plane in self.nu:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("nu tensor must be m x n x n")
        for cube in self.omega:
            if len(cube) != n or any(
                len(plane) != n or any(len(row) != n for row in plane)
                for plane in cube
            ):
                raise ValueError("omega tensor must be m x n x n x n")
        self.coords()

    def coords(self):
        return entry_coords(self.base.n, ("nu", self.nu, 2), ("omega", self.omega, 3))


def _tensor_pair(base, m, coords):
    """The former coords_to_cochain: every tensor entry tabulated from the coordinates."""
    n = base.n
    index = _coordinate_index(n, m)

    def value(*args):
        start, sign = index.get(args, (0, 0))
        return tuple(sign * F(x) for x in coords[start:start + m]) if sign else zero_vec(m)
    return _TensorPair(base, m, tabulate(m, n, 2, value), tabulate(m, n, 3, value))


def _reference_obj(c):
    """The former cochain_to_obj, reading the tensors."""
    def entries(tensor, arity):
        out = []
        for args in entry_args(c.base.n, arity):
            value = {str(a): render_scalar(x)
                     for a, x in enumerate(entry_values(tensor, args)) if x}
            if value:
                out.append({"args": list(args), "value": value})
        return out
    return {"module_dimension": c.m, "nu": entries(c.nu, 2), "omega": entries(c.omega, 3)}


def _reference_lines(c):
    """The former cli._cochain_lines, reading the tensors."""
    lines = []
    for name, t, arity in (("nu", c.nu, 2), ("omega", c.omega, 3)):
        for args in entry_args(c.base.n, arity):
            val = entry_values(t, args)
            if any(val):
                slots = ",".join(f"e{x}" for x in args)
                lines.append(f"  {name}({slots}) = {_vec_text(val)}")
    return lines or ["  (zero cochain)"]


@functools.cache
def _modules():
    sol3_dense = transport(maltsev_to_bol(make_solvable(3)), dense_basis(random.Random(11), 3))
    return ([R for _, R in _closure_corpus()]
            + [adjoint_representation(maltsev_to_bol(make_so3())),
               adjoint_representation(sol3_dense), _prime_module()])


def _cochains(R):
    rep = cohomology(R)
    return rep.z_basis + rep.b_basis + rep.h_representatives


@pytest.mark.parametrize("index", range(6))
def test_every_cochain_of_cohomology_matches_the_tensor_pair(index):
    R = _modules()[index]
    cochains = _cochains(R)
    assert cochains
    refs = [_tensor_pair(R.base, R.m, c.coords()) for c in cochains]
    for c, ref in zip(cochains, refs):
        assert c.coords() == ref.coords()
        assert all(type(x) is F for x in c.coords())
        assert c.nu == ref.nu and c.omega == ref.omega
        public = CochainPair(R.base, R.m, ref.nu, ref.omega)
        assert public == c and hash(public) == hash(c)
        assert public.coords() == c.coords()
        assert cochain_to_obj(c) == _reference_obj(ref)
        assert _cochain_lines(c) == _reference_lines(ref)
    for (a, ref_a), (b, ref_b) in itertools.product(zip(cochains, refs), repeat=2):
        assert (a == b) == (ref_a == ref_b)


def test_equality_reads_base_m_and_coordinates():
    R = _modules()[0]
    c = _cochains(R)[0]
    same = coords_to_cochain(R.base, R.m, tuple(int(x) if x.denominator == 1 else x
                                                 for x in c.coords()))
    assert same == c and hash(same) == hash(c)
    moved = coords_to_cochain(R.base, R.m, (c.coords()[0] + 1,) + c.coords()[1:])
    assert moved != c
    other_base = coords_to_cochain(make_b2(-1), R.m, c.coords())
    assert other_base != c
    assert len({c, same, moved, other_base}) == 3


def test_the_tensors_are_built_once_and_kept():
    c = _cochains(_modules()[2])[0]
    assert "nu" not in c.__dict__ and "omega" not in c.__dict__
    assert c.nu is c.nu and c.omega is c.omega


def test_zero_and_from_entries_match_the_tensor_pair():
    rng = random.Random(8)
    for R in _modules():
        n, m = R.base.n, R.m
        zero = CochainPair.zero(R.base, m)
        assert zero.coords() == zero_vec(cochain_dim(n, m))
        assert zero.nu == freeze(zeros(m, n, n)) and zero.omega == freeze(zeros(m, n, n, n))
        entries = {arity: [(args, {rng.randrange(m): random_fraction(rng)})
                           for args in rng.sample(entry_args(n, arity), arity - 1)]
                   for arity in (2, 3)}
        c = CochainPair.from_entries(R.base, m, entries[2], entries[3])
        ref = _TensorPair(R.base, m, tensor_from_entries(n, m, 2, entries[2], "nu"),
                          tensor_from_entries(n, m, 3, entries[3], "omega"))
        assert c.coords() == ref.coords()
        assert c.nu == ref.nu and c.omega == ref.omega
        assert all(type(x) is F for x in c.coords())


@pytest.mark.parametrize("nu, omega", [
    ([((1, 0), {0: 1})], []),
    ([((0, 0), {0: 1})], []),
    ([((0, 1), {0: 1}), ((0, 1), {1: 1})], []),
    ([((0, 1), {2: 1})], []),
    ([((0, 2), {0: 1})], []),
    ([], [((0, 1), {0: 1})]),
    ([], [((0, 0, 1), {0: 1})]),
    ([], [((1, 0, 1), {0: 1})]),
    ([((0, 1), {0: "x"})], []),
])
def test_from_entries_raises_the_tensor_errors(nu, omega):
    base, m = make_b2(1), 2
    errors = []
    for build in (lambda: CochainPair.from_entries(base, m, nu, omega),
                  lambda: (tensor_from_entries(2, m, 2, nu, "nu"),
                           tensor_from_entries(2, m, 3, omega, "omega"))):
        with pytest.raises(ValueError) as info:
            build()
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def _nested(t):
    return [_nested(x) for x in t] if isinstance(t, tuple) else t


def _bad_tensors():
    base = make_b2(1)
    c = coords_to_cochain(base, 2, tuple(F(k + 1) for k in range(cochain_dim(2, 2))))
    nu, omega = _nested(c.nu), _nested(c.omega)
    diagonal = _nested(c.nu)
    diagonal[1][0][0] = F(1)
    unpaired = _nested(c.omega)
    unpaired[0][1][0][1] += 1
    return base, [
        (c.nu[:1], c.omega),
        (c.nu, c.omega + c.omega[:1]),
        ((c.nu[0], c.nu[1][:1]), c.omega),
        ((c.nu[0], (c.nu[1][0][:1], c.nu[1][1])), c.omega),
        (c.nu, (c.omega[0], c.omega[1][:1])),
        (c.nu, (c.omega[0], ((c.omega[1][0][0][:1], c.omega[1][0][1]), c.omega[1][1]))),
        (freeze(diagonal), c.omega),
        (c.nu, freeze(unpaired)),
        (freeze(nu[::-1]), freeze(omega)),  # a valid pair: no error
    ]


def test_the_public_constructor_keeps_each_error():
    # a bad shape is named by the shape check shared with the algebra constructors;
    # every other outcome is the former pair's
    base, cases = _bad_tensors()
    messages = []
    for k, (nu, omega) in enumerate(cases):
        outcomes = []
        for build in (CochainPair, _TensorPair):
            try:
                outcomes.append(build(base, 2, nu, omega).coords())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert k < 6 or outcomes[0] == outcomes[1]
        messages.append(outcomes[0])
    assert messages[:-1] == [
        "nu tensor must be 2 x 2 x 2",
        "omega tensor must be 2 x 2 x 2 x 2",
        "nu tensor must be 2 x 2 x 2",
        "nu tensor must be 2 x 2 x 2",
        "omega tensor must be 2 x 2 x 2 x 2",
        "omega tensor must be 2 x 2 x 2 x 2",
        "nu is not antisymmetric in its first two slots at a=1, args (0,0)",
        "omega is not antisymmetric in its first two slots at a=0, args (0,1,1)",
    ]
    assert isinstance(messages[-1], tuple)
