"""Golden CLI reports: every subcommand, text and --json, pinned by digest.

Each case runs ``bolalg.cli.main`` in-process and hashes the exit code,
stdout, stderr and any file written with ``-o``.  Cases on the sample
inputs run from the repository root with relative ``data/...`` paths;
cases that need built files (representation files, extension bundles)
run inside a scratch workspace holding a copy of ``data/`` plus those
files, again with relative paths, so no pinned report names a temporary
directory.

To re-record the digests after an intended report change, run from the
repository root:

    PYTHONPATH=src python -m tests.test_golden_cli
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from bolalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

A1 = "data/b2_lambda1.alg"
A0 = "data/b2_lambda0.alg"
AM1 = "data/b2_lambda_minus1.alg"
A53 = "data/b2_lambda_5_3.alg"
BROKEN = "data/broken_b2.alg"
M0 = "data/maltsev_m0.alg"
M4 = "data/maltsev_dim4.alg"
SO3 = "data/so3.alg"
ACTION = "data/action_m0.rep"
SCALE = "data/scale_b2.cochain"
NU = "data/nu_e0.cochain"
OMEGA = "data/omega_e0.cochain"

# (argv, files written by the command) for runs from the repository root
REPO_CASES = [
    (("verify", A1), ()),
    (("verify", A53), ()),
    (("verify", BROKEN), ()),
    (("verify", M4), ()),
    (("verify", SO3), ()),
    (("verify", "data/missing.alg"), ()),
    (("maltsev-to-bol", M0), ()),
    (("maltsev-to-bol", M4), ()),
    (("maltsev-to-bol", A1), ()),
    (("adjoint", A1), ()),
    (("adjoint", BROKEN), ()),
    (("induce-rep", M0, ACTION), ()),
    (("induce-rep", M4, ACTION), ()),
    (("delta-check", A1, "--adjoint"), ()),
    (("delta-check", A53, "--adjoint"), ()),
    (("delta-check", BROKEN, "--adjoint"), ()),
    (("pseudoderivations", A1, "--adjoint"), ()),
    (("pseudoderivations", A0, "--adjoint"), ()),
    (("cohomology", A1, "--adjoint"), ()),
    (("cohomology", A0, "--adjoint"), ()),
    (("cohomology", AM1, "--adjoint"), ()),
    (("cohomology", A53, "--adjoint"), ()),
    (("is-cocycle", A1, SCALE, "--adjoint"), ()),
    (("is-cocycle", A1, NU, "--adjoint"), ()),
    (("is-cocycle", A1, OMEGA, "--adjoint"), ()),
    (("is-cocycle", AM1, OMEGA, "--adjoint"), ()),
    (("is-coboundary", A1, SCALE, "--adjoint"), ()),
    (("is-coboundary", A1, NU, "--adjoint"), ()),
    (("is-coboundary", A0, NU, "--adjoint"), ()),
    (("deform-check", A1, SCALE), ()),
    (("deform-check", A1, NU), ()),
    (("deform-check", A1, OMEGA), ()),
    (("deform-check", BROKEN, SCALE), ()),
    (("deform-formal", A1, SCALE), ()),
    (("deform-formal", A1, NU), ()),
    (("deform-formal", A1, OMEGA), ()),
    (("deform-equiv", A1, SCALE, SCALE), ()),
    (("deform-equiv", A1, SCALE, NU), ()),
    (("deform-equiv", A0, SCALE, NU), ()),
    (("extend-build", A1, SCALE, "--adjoint"), ()),
    (("extend-build", A1, NU, "--adjoint"), ()),
    (("extend-build", A1, OMEGA, "--adjoint"), ()),
]

# (argv, files written by the command) for runs inside the workspace
WORK_CASES = [
    (("verify", "pair_fail.alg"), ()),
    (("maltsev-to-bol", "pair_fail.alg"), ()),
    (("induce-rep", M0, "bad_action.rep"), ()),
    (("maltsev-to-bol", M0, "-o", "out.alg"), ("out.alg",)),
    (("adjoint", A1, "-o", "out.rep"), ("out.rep",)),
    (("induce-rep", M0, ACTION, "-o", "out.rep"), ("out.rep",)),
    (("verify-rep", A1, "adj1.rep"), ()),
    (("verify-rep", AM1, "adj1.rep"), ()),
    (("verify-rep", "m0_bol.alg", "ex28.rep"), ()),
    (("verify-rep", BROKEN, "adj1.rep"), ()),
    (("verify-rep", "m4_bol.alg", "adj4.rep"), ()),
    (("delta-check", "m0_bol.alg", "--rep", "ex28.rep"), ()),
    (("delta-check", AM1, "--rep", "adj1.rep"), ()),
    (("delta-check", "m4_bol.alg", "--adjoint"), ()),
    (("pseudoderivations", "m0_bol.alg", "--rep", "ex28.rep"), ()),
    (("cohomology", "m0_bol.alg", "--rep", "ex28.rep"), ()),
    (("cohomology", A1, "--rep", "adj1.rep"), ()),
    (("is-cocycle", "m0_bol.alg", NU, "--rep", "ex28.rep"), ()),
    (("is-cocycle", "m0_bol.alg", OMEGA, "--rep", "ex28.rep"), ()),
    (("is-coboundary", "m0_bol.alg", SCALE, "--rep", "ex28.rep"), ()),
    (("extend-build", "m0_bol.alg", "zero2.cochain", "--rep", "ex28.rep"), ()),
    (("extend-build", A1, SCALE, "--adjoint", "-o", "out.ext"), ("out.ext",)),
    (("extend-analyze", "scale.ext"), ()),
    (("extend-analyze", "nu.ext"), ()),
    (("extend-analyze", "ex28.ext"), ()),
    (("extend-analyze", "bad.ext"), ()),
    (("extend-analyze", "i_binary.ext"), ()),
    (("extend-analyze", "i_ternary.ext"), ()),
    (("extend-analyze", "ideal.ext"), ()),
    (("extend-analyze", "p_binary.ext"), ()),
    (("extend-analyze", "p_ternary.ext"), ()),
    (("extend-analyze", "scale.ext", "-o", "analysis.json"), ("analysis.json",)),
    (("extend-equiv", "scale.ext", "scale.ext"), ()),
    (("extend-equiv", "scale.ext", "zero.ext"), ()),
    (("extend-equiv", "scale.ext", "nu.ext"), ()),
    (("extend-equiv", "nu.ext", "moved.ext"), ()),
    (("extend-equiv", "zero.ext", "zero_m1.ext"), ()),
    (("extend-equiv", "scale.ext", "bad.ext"), ()),
]


def _invoke(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def build_workspace(work: Path) -> None:
    """Copy data/ into ``work`` and build the files the workspace cases read."""
    shutil.copytree(ROOT / "data", work / "data")
    zero = '{"module_dimension": 2, "nu": [], "omega": []}\n'
    (work / "zero2.cochain").write_text(zero)
    # anticommutative; the Maltsev identity holds at every basis x but
    # fails at x = e0 + e1
    (work / "pair_fail.alg").write_text(json.dumps({
        "kind": "maltsev", "dimension": 4,
        "binary": [{"args": [0, 2], "value": {"2": "-1"}},
                   {"args": [1, 3], "value": {"0": "-1"}}]}))
    (work / "bad_action.rep").write_text(json.dumps({
        "module_dimension": 2,
        "rho": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]]}))
    steps = [
        ("maltsev-to-bol", M0, "-o", "m0_bol.alg"),
        ("maltsev-to-bol", M4, "-o", "m4_bol.alg"),
        ("induce-rep", M0, ACTION, "-o", "ex28.rep"),
        ("adjoint", A1, "-o", "adj1.rep"),
        ("adjoint", "m4_bol.alg", "-o", "adj4.rep"),
        ("extend-build", A1, SCALE, "--adjoint", "-o", "scale.ext"),
        ("extend-build", A1, NU, "--adjoint", "-o", "nu.ext"),
        ("extend-build", A1, "zero2.cochain", "--adjoint", "-o", "zero.ext"),
        ("extend-build", AM1, "zero2.cochain", "--adjoint", "-o", "zero_m1.ext"),
        ("extend-build", "m0_bol.alg", "zero2.cochain", "--rep", "ex28.rep",
         "-o", "ex28.ext"),
    ]
    with _cwd(work):
        for argv in steps:
            code, _, err = _invoke(argv)
            if code != 0:
                raise RuntimeError(f"workspace step {argv} failed: {err}")
        bundle = json.loads(Path("nu.ext").read_text())
        # sigma(e0) += i(e1): another section of the same extension
        bundle["sigma"][3][0] = "1"
        Path("moved.ext").write_text(json.dumps(bundle))
        bundle = json.loads(Path("scale.ext").read_text())
        bundle["sigma"][0][0] = "5"  # no longer a section
        Path("bad.ext").write_text(json.dumps(bundle))
        # hat products that break one extension invariant each
        for name, block, args, value in (
                ("i_binary", "binary", [2, 3], {"2": "1"}),
                ("i_ternary", "ternary", [2, 3, 2], {"3": "1"}),
                ("ideal", "ternary", [0, 2, 3], {"2": "1"}),
                ("p_binary", "binary", [0, 1], {"0": "1", "1": "-1"}),
                ("p_ternary", "ternary", [0, 1, 1], {"0": "1"})):
            bundle = json.loads(Path("scale.ext").read_text())
            entries = [e for e in bundle["hat"][block] if e["args"] != args]
            bundle["hat"][block] = entries + [{"args": args, "value": value}]
            Path(f"{name}.ext").write_text(json.dumps(bundle))


def _cases():
    for where, table in (("repo", REPO_CASES), ("work", WORK_CASES)):
        for argv, written in table:
            for mode in ((), ("--json",)):
                yield f"{where}: {' '.join(argv + mode)}", where, argv + mode, written


CASES = list(_cases())


def case_digest(where: str, argv, written, work: Path) -> str:
    with _cwd(ROOT if where == "repo" else work):
        for name in written:
            Path(name).unlink(missing_ok=True)
        code, out, err = _invoke(argv)
        blob = f"exit={code}\n--stdout--\n{out}--stderr--\n{err}"
        for name in written:
            blob += f"--file {name}--\n" + Path(name).read_text()
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    build_workspace(work)
    return work


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case_and_subcommand(golden):
    from bolalg.cli import build_parser

    assert sorted(golden) == sorted(case_id for case_id, *_ in CASES)
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for _, _, argv, _ in CASES} == set(sub.choices)


@pytest.mark.parametrize("case_id,where,argv,written", CASES,
                         ids=[c[0] for c in CASES])
def test_report_matches_golden_digest(case_id, where, argv, written, workspace,
                                      golden):
    assert case_digest(where, argv, written, workspace) == golden[case_id]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        build_workspace(work)
        digests = {case_id: case_digest(where, argv, written, work)
                   for case_id, where, argv, written in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
