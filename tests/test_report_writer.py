"""The one report writer, ``formats._dumps``, against ``json.dumps(obj, indent=2)``.

Every report and every file the library writes goes through ``_dumps``,
which must give exactly the text of ``json.dumps(obj, indent=2) + "\\n"``.
It is checked on every object that the golden CLI cases and one seed-0
pass of each benchmark workload hand to it (collected by wrapping it), on
a seeded random corpus of nested objects (escapes, empty containers, mixed
lists, large ints), and on the values it must refuse as ``json`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from bolalg import cli, formats
from bolalg.formats import _dumps

from .test_golden_cli import CASES, GOLDEN, ROOT, build_workspace, case_digest

_REPORT_TYPES = {dict, list, str, int, bool, type(None)}


def _reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _types(obj) -> set:
    if isinstance(obj, dict):
        return {dict}.union(*map(_types, obj), *map(_types, obj.values()))
    if isinstance(obj, list):
        return {list}.union(*map(_types, obj))
    return {type(obj)}


@pytest.fixture
def handed(monkeypatch):
    """Every object handed to _dumps while the test runs, through either module's name."""
    seen = []

    def recording(obj):
        seen.append(obj)
        return _dumps(obj)
    monkeypatch.setattr(cli, "_dumps", recording)
    monkeypatch.setattr(formats, "_dumps", recording)
    return seen


def _check_handed(seen: list) -> None:
    for obj in seen:
        assert _types(obj) <= _REPORT_TYPES
        assert _dumps(obj) == _reference(obj)


def test_every_golden_report_and_file_is_written_as_json_writes_it(handed, tmp_path):
    build_workspace(tmp_path)
    for _, where, argv, written in CASES:
        case_digest(where, argv, written, tmp_path)
    assert len(handed) > len(CASES) / 2  # every --json case and each -o file
    _check_handed(handed)


@pytest.mark.parametrize("workload", ["cohomology-ladder", "verify-scan", "extend-deform"])
def test_every_benchmark_report_is_written_as_json_writes_it(handed, tmp_path, monkeypatch,
                                                             workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs  # the benchmark's job lists, from its own directory

    pass_jobs = jobs.build_pass(workload, 0, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(job["argv"]) for job in pass_jobs]
    assert set(codes) <= {0, 1} and len(handed) >= len(pass_jobs)
    _check_handed(handed)


# ---------------------------------------------------------------------------
# a seeded random corpus

_CHARS = ('"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
          "a", "Z", "0", " ", "é", "é", "ß", "中", " ",
          "\ud800", "\U0001f600", "\U00010348")


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return rng.randrange(-10, 10)
    if kind == 2:
        return rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(1, 400))
    if kind == 3:
        return rng.choice((True, False))
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice(([], {}, [[]], [{}], {"": []}, {"k": {}}))
    return rng.choice(("0", "-3/4", "1"))


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return _scalar(rng)
    size = rng.randrange(5)
    if kind == 1:  # one scalar type, as a matrix row or an args list
        make = rng.choice((_string, lambda r: r.randrange(-99, 99),
                           lambda r: r.choice((True, False)), lambda r: None))
        return [make(rng) for _ in range(size)]
    if kind == 2:  # mixed, with an int beside a bool
        return [rng.choice((1, True, 0, False, "1", None))] + [
            _value(rng, depth - 1) for _ in range(size)]
    if kind == 3:  # a value map of str to str
        return {_string(rng): rng.choice(("1", "-2/3", _string(rng))) for _ in range(size)}
    return {_string(rng): _value(rng, depth - 1) for _ in range(size)}


@pytest.mark.parametrize("seed", range(40))
def test_a_random_object_is_written_as_json_writes_it(seed):
    rng = random.Random(seed)
    for _ in range(25):
        obj = {_string(rng): _value(rng, 4) for _ in range(rng.randrange(4))}
        assert _dumps(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {}, {"a": []}, {"a": {}}, {"a": [[], {}, [[]], [{}]]}, {"": ""},
    {"mixed": [1, True, False, 0, None, "1"]}, {"bools": [True, False]},
    {"ints": [0, -1, 2 ** 64, -(10 ** 300)]}, {"none": [None, None]},
    {"escapes": ["\"\\\b\f\n\r\t\x00\x1f\x7f", "é中\U0001f600\ud800"]},
    {"\n\"key\"": {"\U0001f600": "\\"}}, {"nested": {"a": {"b": {"c": [1, [2, [3]]]}}}},
    [], [[1, "a"], {"b": None}], "top", -7, True, None,
], ids=repr)
def test_the_edges_are_written_as_json_writes_them(obj):
    assert _dumps(obj) == _reference(obj)


# ---------------------------------------------------------------------------
# what the writer refuses


@pytest.mark.parametrize("obj", [
    {"a": 0.5}, {"a": [1, 2.0]}, {"a": (1, 2)}, {"a": [Fraction(1, 2)]},
    {"a": {"b": Fraction(3)}}, {1: "a"}, {"a": {None: 1}}, {"a": [{(0, 1): "x"}]},
    {"a": {"b", "c"}}, [1.5], (), Fraction(1, 2),
], ids=repr)
def test_a_value_no_report_holds_raises_type_error(obj):
    with pytest.raises(TypeError):
        _dumps(obj)


@pytest.mark.parametrize("obj", [
    {"a": 10 ** 4300}, {"a": [1, -(10 ** 5000)]}, {"a": [True, 10 ** 4300]},
], ids=["scalar", "int-list", "mixed-list"])
def test_an_int_over_the_digit_limit_raises_as_json_does(obj):
    with pytest.raises(ValueError) as ours:
        _dumps(obj)
    with pytest.raises(ValueError) as theirs:
        _reference(obj)
    assert str(ours.value) == str(theirs.value)


# ---------------------------------------------------------------------------
# a --json report builds no text


_JSON_CASES = [case for case in CASES if "--json" in case[2]]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    work = tmp_path_factory.mktemp("text")
    build_workspace(work)
    return work


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id,where,argv,written", _JSON_CASES,
                         ids=[c[0] for c in _JSON_CASES])
def test_a_json_report_builds_no_text_lines(case_id, where, argv, written, workspace,
                                            golden, monkeypatch):
    def refuse(*_):
        raise AssertionError("text built for a --json report")
    for name in ("_cochain_lines", "_check_lines", "_mat_text", "_vec_text"):
        monkeypatch.setattr(cli, name, refuse)
    assert case_digest(where, argv, written, workspace) == golden[case_id]
