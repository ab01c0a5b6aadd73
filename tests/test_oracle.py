"""tools/cohomology_oracle.py on Bol algebra files, against cohomology().

The oracle imports nothing from bolalg and takes sympy ranks, so it checks
the constraint rows and the elimination from outside.  The files are
written here with bolalg's own renderer, or read from data/.
"""

import importlib.util
from pathlib import Path

import pytest

from bolalg.algebra import maltsev_to_bol
from bolalg.cohomology import cohomology
from bolalg.algebra import _integer_terms
from bolalg.formats import parse_algebra, render_algebra
from bolalg.representation import adjoint_representation

from .conftest import make_so3, make_solvable

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location(
        "cohomology_oracle", ROOT / "tools" / "cohomology_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, name, maltsev):
    B = maltsev_to_bol(maltsev)
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
    assert _integer_terms(B)[0] == 3
    rep = cohomology(adjoint_representation(B))
    dims = (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H)
    assert oracle.algebra_dims(*oracle.read_algebra(path)) == dims == (6, 5, 3, 2)
