"""tools/cohomology_oracle.py on Bol algebra files, against cohomology().

The oracle imports nothing from bolalg and takes sympy ranks, so it checks
the constraint rows and the elimination from outside.  The files are
written here with bolalg's own renderer, or read from data/.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from bolalg.algebra import (
    BolAlgebra, maltsev_to_bol, verify_bol,
)
from bolalg.cohomology import cohomology
from bolalg.formats import parse_algebra, render_algebra
from bolalg.linalg import vec_sub, zero_vec
from bolalg.representation import adjoint_representation

from .conftest import DATA, make_so3, make_solvable, tabulate, unit_vec
from .test_basis_change import dense_basis, transport

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location(
        "cohomology_oracle", ROOT / "tools" / "cohomology_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, name, algebra):
    B = algebra if isinstance(algebra, BolAlgebra) else maltsev_to_bol(algebra)
    path = tmp_path / f"{name}.alg"
    path.write_text(render_algebra(B))
    rep = cohomology(adjoint_representation(B))
    return path, (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H)


def test_so3_from_the_command_line(oracle, tmp_path, capsys):
    path, dims = _write(tmp_path, "so3", make_so3())
    assert dims == (36, 6, 6, 0)
    oracle.main(["--algebra", str(path)])
    assert capsys.readouterr().out == f"{path}: dim_C=36 dim_Z=6 dim_B=6 dim_H=0\n"


def test_solvable3_dimensions(oracle, tmp_path):
    path, dims = _write(tmp_path, "solvable3", make_solvable(3))
    assert oracle.algebra_dims(*oracle.read_algebra(path)) == dims == (36, 13, 5, 8)


def test_b2_lambda_5_3_dimensions(oracle):
    # the ternary constant 5/3 makes the integer statement's D_A = 3
    path = ROOT / "data" / "b2_lambda_5_3.alg"
    B = parse_algebra(path.read_text())
    assert B.form[0] == 3
    rep = cohomology(adjoint_representation(B))
    dims = (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H)
    assert oracle.algebra_dims(*oracle.read_algebra(path)) == dims == (6, 5, 3, 2)


def _nonzeros(tensor):
    return [x for part in tensor
            for x in (_nonzeros(part) if isinstance(part, tuple) else (part,)) if x]


def test_so3_in_a_dense_basis(oracle, tmp_path):
    sparse = maltsev_to_bol(make_so3())
    moved = transport(sparse, dense_basis(random.Random(5), 3))
    for before, after in ((sparse.c, moved.c), (sparse.t, moved.t)):
        assert len(_nonzeros(after)) >= 3 * len(_nonzeros(before))
    assert any(x.denominator > 1 for x in _nonzeros(moved.c) + _nonzeros(moved.t))
    path, dims = _write(tmp_path, "so3_dense", moved)
    _, sparse_dims = _write(tmp_path, "so3", sparse)
    assert oracle.algebra_dims(*oracle.read_algebra(path)) == dims == sparse_dims == (36, 6, 6, 0)


def _sphere(n):
    """The sphere Lie triple system: [x,y,z] = <y,z>x - <x,z>y, zero product."""
    zero = zero_vec(n)
    return BolAlgebra(n, tabulate(n, n, 2, lambda i, j: zero),
                      tabulate(n, n, 3, lambda i, j, k: vec_sub(
                          unit_vec(n, i) if j == k else zero,
                          unit_vec(n, j) if i == k else zero)))


@pytest.mark.parametrize("n", range(4, 9))
def test_sphere_system_closed_form(n):
    # dim C = n(C(n,2) + n C(n,2)), dim Z = dim B = n(n+3)/2 and H = 0
    pairs = n * (n - 1) // 2
    rep = cohomology(adjoint_representation(_sphere(n)))
    assert (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H) == (
        n * (pairs + n * pairs), n * (n + 3) // 2, n * (n + 3) // 2, 0)


def test_the_committed_sphere_file_is_the_sphere_system_at_n10():
    # data/sphere10.alg lists the 90 i<j entries [e_i,e_j,e_j] = e_i, [e_i,e_j,e_i] = -e_j
    B = parse_algebra((DATA / "sphere10.alg").read_text())
    assert B == _sphere(10)
    T = B.form[2]
    assert sum(1 for plane in T for row in plane for terms in row if terms) == 180


def test_sphere_system_at_n3(oracle, tmp_path):
    B = _sphere(3)
    assert verify_bol(B).passed
    path, dims = _write(tmp_path, "sphere3", B)
    assert oracle.algebra_dims(*oracle.read_algebra(path)) == dims == (36, 9, 9, 0)
