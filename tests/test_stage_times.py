"""tools/stage_times.py times the parse of the file and its axiom scan and
runs cohomology() with the stages it names rebound in ``bolalg.cohomology``;
for a Bol file it splits the axiom check with functions of ``bolalg.algebra``
rebound, and on kernel_basis's mod-p route it splits that with functions of
``bolalg.linalg`` rebound.  Every name must still be bound there, and is
restored after."""

import importlib
import importlib.util
import random
from pathlib import Path

from bolalg.algebra import BolAlgebra, MaltsevAlgebra, maltsev_to_bol, verify_maltsev
from bolalg.formats import render_algebra

from .conftest import make_solvable
from .test_basis_change import dense_basis, transport

ROOT = Path(__file__).resolve().parent.parent
COHOMOLOGY = importlib.import_module("bolalg.cohomology")
ALGEBRA = importlib.import_module("bolalg.algebra")
LINALG = importlib.import_module("bolalg.linalg")


def _stage_times():
    spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(lines):
    """{stage: calls} of the stage lines, between the header and the route line."""
    return {line.split()[0]: int(line.split()[1]) for line in lines[1:-2]}


def test_stage_times_on_so3(capsys):
    tool = _stage_times()
    before = {name: getattr(COHOMOLOGY, name) for name in tool.STAGES}
    assert tool.main([str(ROOT / "data" / "so3.alg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["kernel_basis route: exact", "dims C/Z/B/H: 36/6/6/0"]
    timed = _timed(lines)
    assert all(timed[name] >= 1 for name in tool.STAGES)
    assert list(timed)[-4:] == ["other", "cohomology", "parse", "verify"]
    assert timed["parse"] == timed["verify"] == 1
    assert all(getattr(COHOMOLOGY, name) is fn for name, fn in before.items())


def test_stage_times_times_the_identity_scan_of_a_maltsev_file(capsys, monkeypatch):
    tool = _stage_times()
    scanned = []
    monkeypatch.setattr(tool, "verify_maltsev", lambda M: scanned.append(M) or verify_maltsev(M))
    assert tool.main([str(ROOT / "data" / "maltsev_dim4.alg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[-4:-2]] == [["parse", "1"], ["verify", "1"]]
    assert len(scanned) == 1 and isinstance(scanned[0], MaltsevAlgebra)


def test_stage_times_splits_the_axiom_check_of_a_bol_file(capsys):
    tool = _stage_times()
    before = {name: getattr(ALGEBRA, name) for name in tool.AXIOM_STAGES}
    assert tool.main([str(ROOT / "data" / "b2_lambda1.alg")]) == 0
    timed = _timed(capsys.readouterr().out.splitlines())
    assert list(timed)[-6:] == ["parse", "verify", "forms", "B01/B02/B1", "B2", "B3"]
    # the form is written once, from the parsed entries, by the writer the parser calls;
    # B01 and B02 pass by construction and are not scanned: B1 and one block scan each
    assert [name for name, stage in tool.AXIOM_STAGES.items() if stage == "forms"] == [
        "_entry_forms"]
    assert (timed["forms"], timed["B01/B02/B1"], timed["B2"], timed["B3"]) == (1, 1, 1, 1)
    assert all(getattr(ALGEBRA, name) is fn for name, fn in before.items())


def test_stage_times_scans_the_antisymmetry_of_a_tensor_built_algebra(capsys, monkeypatch):
    """An algebra built from its tensors has no antisymmetry guaranteed: B01, B02 and B1."""
    tool = _stage_times()
    parse = tool.parse_algebra
    monkeypatch.setattr(tool, "parse_algebra", lambda text: (B := parse(text)) and BolAlgebra(
        B.n, B.c, B.t, B.basis_names))
    assert tool.main([str(ROOT / "data" / "b2_lambda1.alg")]) == 0
    timed = _timed(capsys.readouterr().out.splitlines())
    assert (timed["forms"], timed["B01/B02/B1"], timed["B2"], timed["B3"]) == (2, 3, 1, 1)


def test_stage_times_splits_the_mod_p_route_of_kernel_basis(capsys, tmp_path):
    """Solvable n=3 in a dense basis: 111 distinct constraint rows of rank 23."""
    tool = _stage_times()
    before = {name: getattr(LINALG, name) for name in tool.KERNEL_STAGES}
    moved = transport(maltsev_to_bol(make_solvable(3)), dense_basis(random.Random(11), 3))
    path = tmp_path / "sol3_dense.alg"
    path.write_text(render_algebra(moved))
    assert tool.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["kernel_basis route: mod-p, 23 of 111 rows kept, 1 prime(s)",
                          "dims C/Z/B/H: 36/13/5/8"]
    timed = _timed(lines)
    assert list(timed)[-3:] == ["selection", "elimination", "certificate"]
    assert (timed["selection"], timed["elimination"], timed["certificate"]) == (1, 1, 1)
    assert all(getattr(LINALG, name) is fn for name, fn in before.items())
    assert COHOMOLOGY.kernel_basis is LINALG.kernel_basis
