import json
from importlib import resources

import jsonschema
import pytest

import bolalg.algebra as algebra
import bolalg.cli as cli
import bolalg.extension as extension
import bolalg.representation as representation
from bolalg.cli import main

from .conftest import DATA


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("bolalg") / "schemas" / "report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def run(capsys, schema):
    """Invoke the CLI in-process; validate every --json report on the fly."""

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        if "--json" in argv:
            obj = json.loads(captured.out)
            jsonschema.validate(obj, schema)
            return code, obj, captured.err
        return code, captured.out, captured.err

    return _run


ALG1 = str(DATA / "b2_lambda1.alg")
ALG_M1 = str(DATA / "b2_lambda_minus1.alg")
BROKEN = str(DATA / "broken_b2.alg")
M0 = str(DATA / "maltsev_m0.alg")
M4 = str(DATA / "maltsev_dim4.alg")
ACTION = str(DATA / "action_m0.rep")
SCALE = str(DATA / "scale_b2.cochain")
NU_E0 = str(DATA / "nu_e0.cochain")          # a cocycle, not a coboundary
OMEGA_E0 = str(DATA / "omega_e0.cochain")    # not a cocycle


class TestVerify:
    def test_pass(self, run):
        code, out, _ = run("verify", ALG1)
        assert code == 0
        assert "B01: pass" in out and "result: PASS" in out

    def test_fail_names_axiom_and_witness(self, run):
        code, out, _ = run("verify", BROKEN)
        assert code == 1
        assert "B2: FAIL at witness=(0, 1, 0, 1)" in out

    def test_maltsev_kind(self, run):
        code, out, _ = run("verify", M4)
        assert code == 0
        assert "maltsev-identity: pass" in out

    def test_json_report(self, run):
        code, obj, _ = run("verify", ALG1, "--json")
        assert code == 0
        assert obj["status"] == "pass"
        assert [c["name"] for c in obj["checks"]] == [
            "B01", "B02", "B1", "B2", "B3"]

    def test_missing_file_is_input_error(self, run):
        code, _, err = run("verify", str(DATA / "does_not_exist.alg"))
        assert code == 2
        assert "cannot read file" in err

    def test_malformed_file_is_input_error(self, run, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text('{"kind": "bol", "dimension": 2, "binary": '
                       '[{"args": [1, 1], "value": {"0": "1"}}], "ternary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert "diagonal binary entry" in err


    def test_numeral_over_the_digit_limit_is_input_error_with_its_path(self, run, tmp_path):
        bad = tmp_path / "huge.alg"
        bad.write_text('{"kind": "bol", "dimension": 2, "binary": [{"args": [0, 1], '
                       '"value": {"0": "' + "1" * 4301 + '"}}], "ternary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert err == ("error: binary[0].value.0: rational has a numerator or "
                       "denominator longer than 4300 digits\n")
        code, obj, _ = run("verify", str(bad), "--json")
        assert code == 2 and obj["status"] == "error"

    def test_integer_literal_over_the_digit_limit_is_input_error(self, run, tmp_path):
        bad = tmp_path / "huge-int.alg"
        bad.write_text('{"kind": "bol", "dimension": 1' + "0" * 5000 + ', "binary": [], '
                       '"ternary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert err == "error: invalid JSON: an integer literal is longer than 4300 digits\n"
        code, obj, _ = run("verify", str(bad), "--json")
        assert code == 2 and obj["status"] == "error"
        assert obj["message"] == "invalid JSON: an integer literal is longer than 4300 digits"

    def test_repeated_key_is_input_error(self, run, tmp_path):
        bad = tmp_path / "twice.alg"
        bad.write_text('{"kind": "maltsev", "dimension": 2, "dimension": 3, '
                       '"binary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert err == "error: file.dimension: duplicate key\n"
        code, obj, _ = run("verify", str(bad), "--json")
        assert code == 2 and obj["status"] == "error"

    def test_unknown_field_is_input_error(self, run, tmp_path):
        bad = tmp_path / "misspelt.alg"
        bad.write_text('{"kind": "maltsev", "dimension": 2, "basis_name": ["a", "b"], '
                       '"binary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert err == "error: file.basis_name: unknown field\n"
        code, obj, _ = run("verify", str(bad), "--json")
        assert code == 2 and obj["status"] == "error"
        assert obj["message"] == "file.basis_name: unknown field"

    def test_aliased_index_key_is_input_error(self, run, tmp_path):
        bad = tmp_path / "alias.alg"
        bad.write_text('{"kind": "bol", "dimension": 2, "binary": [{"args": '
                       '[0, 1], "value": {"1": "-1", "01": "5"}}], "ternary": []}')
        code, _, err = run("verify", str(bad))
        assert code == 2
        assert "binary[0].value.01" in err


class TestConstructions:
    def test_maltsev_to_bol_writes_verifiable_file(self, run, tmp_path):
        out = tmp_path / "m0_bol.alg"
        code, text, _ = run("maltsev-to-bol", M0, "-o", str(out))
        assert code == 0 and out.exists()
        code, _, _ = run("verify", str(out))
        assert code == 0

    def test_unwritable_output_is_input_error(self, run, tmp_path):
        target = tmp_path / "missing-dir" / "m.alg"
        code, _, err = run("maltsev-to-bol", M0, "-o", str(target))
        assert code == 2
        assert err == f"error: {target}: cannot write file: No such file or directory\n"

    def test_maltsev_to_bol_rejects_bol_input(self, run):
        code, _, err = run("maltsev-to-bol", ALG1)
        assert code == 2
        assert "expected a maltsev algebra" in err

    def test_adjoint_then_verify_rep(self, run, tmp_path):
        rep = tmp_path / "adj.rep"
        code, _, _ = run("adjoint", ALG1, "-o", str(rep))
        assert code == 0
        code, out, _ = run("verify-rep", ALG1, str(rep))
        assert code == 0
        assert "R33: pass" in out

    def test_induce_rep_pipeline(self, run, tmp_path):
        bol = tmp_path / "m0_bol.alg"
        rep = tmp_path / "ex28.rep"
        assert run("maltsev-to-bol", M0, "-o", str(bol))[0] == 0
        code, obj, _ = run("induce-rep", M0, ACTION, "-o", str(rep), "--json")
        assert code == 0
        assert obj["representation"]["rho"][0] == [["-1", "0"], ["0", "1"]]
        assert run("verify-rep", str(bol), str(rep))[0] == 0

    def test_induce_rep_keeps_the_module_dimension_of_the_zero_algebra(self, run, tmp_path):
        # no action matrix carries m when the algebra has dimension 0
        zero, action = tmp_path / "zero.alg", tmp_path / "zero.rep"
        zero.write_text('{"kind": "maltsev", "dimension": 0, "binary": []}\n')
        action.write_text('{"module_dimension": 2, "rho": []}\n')
        rep = tmp_path / "out.rep"
        code, obj, _ = run("induce-rep", str(zero), str(action), "-o", str(rep), "--json")
        assert code == 0
        assert obj["module_dimension"] == obj["representation"]["module_dimension"] == 2
        assert json.loads(rep.read_text())["module_dimension"] == 2

    def test_verify_rep_fails_on_mismatched_representation(self, run, tmp_path):
        rep = tmp_path / "adj.rep"
        assert run("adjoint", ALG1, "-o", str(rep))[0] == 0
        # the lambda=1 adjoint grids do not represent the lambda=-1 algebra
        code, out, _ = run("verify-rep", ALG_M1, str(rep))
        assert code == 1
        assert "FAIL" in out


class TestAnalysis:
    def test_delta_check(self, run):
        code, out, _ = run("delta-check", ALG1, "--adjoint")
        assert code == 0
        assert "delta-identity: pass" in out

    def test_pseudoderivations(self, run):
        code, obj, _ = run("pseudoderivations", ALG1, "--adjoint", "--json")
        assert code == 0
        assert obj["pseudoderivation_dimension"] == 3
        assert len(obj["pseudoderivation_basis"]) == 3

    def test_cohomology_text_and_json(self, run):
        code, out, _ = run("cohomology", ALG1, "--adjoint")
        assert code == 0
        assert "dim_Z = 5" in out and "dim_B = 3" in out and "dim_H = 2" in out
        code, obj, _ = run("cohomology", ALG1, "--adjoint", "--json")
        assert code == 0
        assert (obj["dim_C"], obj["dim_Z"], obj["dim_B"], obj["dim_H"]) == (6, 5, 3, 2)
        assert len(obj["z_basis"]) == 5
        assert len(obj["h_representatives"]) == 2

    def test_cohomology_with_rep_file(self, run, tmp_path):
        rep = tmp_path / "adj.rep"
        assert run("adjoint", ALG1, "-o", str(rep))[0] == 0
        code, obj, _ = run("cohomology", ALG1, "--rep", str(rep), "--json")
        assert code == 0
        assert obj["dim_H"] == 2

    def test_is_cocycle(self, run):
        assert run("is-cocycle", ALG1, SCALE, "--adjoint")[0] == 0
        assert run("is-cocycle", ALG1, NU_E0, "--adjoint")[0] == 0
        code, obj, _ = run("is-cocycle", ALG1, OMEGA_E0, "--adjoint", "--json")
        assert code == 1
        assert obj["status"] == "fail"

    def test_is_coboundary(self, run):
        code, obj, _ = run("is-coboundary", ALG1, SCALE, "--adjoint", "--json")
        assert code == 0
        assert obj["coboundary"] is True and obj["witness"] is not None
        code, obj, _ = run("is-coboundary", ALG1, NU_E0, "--adjoint", "--json")
        assert code == 1
        assert obj["witness"] is None


class TestDeformationCommands:
    def test_deform_check_pass(self, run):
        code, obj, _ = run("deform-check", ALG1, SCALE, "--json")
        assert code == 0
        assert obj["routes_agree"] is True
        assert all(s["passed"] for s in obj["sampling"])

    def test_deform_check_fail_still_agrees(self, run):
        code, obj, _ = run("deform-check", ALG1, OMEGA_E0, "--json")
        assert code == 1
        assert obj["routes_agree"] is True
        assert not all(s["passed"] for s in obj["sampling"])

    def test_deform_formal(self, run):
        code, obj, _ = run("deform-formal", ALG1, SCALE, "--json")
        assert code == 0
        assert [c["name"] for c in obj["checks"]] == [
            "CC1", "CC2", "CC3", "B2'", "B3'", "o3"]

    def test_deform_equiv(self, run):
        code, obj, _ = run("deform-equiv", ALG1, SCALE, SCALE, "--json")
        assert code == 0
        assert obj["equivalent"] is True
        code, obj, _ = run("deform-equiv", ALG1, SCALE, NU_E0, "--json")
        assert code in (0, 1)

    def test_deform_rejects_non_adjoint_module(self, run, tmp_path):
        bad = tmp_path / "bad.cochain"
        bad.write_text('{"module_dimension": 3, "nu": [], "omega": []}')
        code, _, err = run("deform-check", ALG1, str(bad))
        assert code == 2
        assert "adjoint coefficients" in err


class TestExtensionCommands:
    def test_build_analyze_equiv_pipeline(self, run, tmp_path):
        ext = tmp_path / "e.ext"
        code, obj, _ = run("extend-build", ALG1, SCALE, "--adjoint",
                           "-o", str(ext), "--json")
        assert code == 0
        assert obj["extension"]["hat"]["dimension"] == 4

        code, obj, _ = run("extend-analyze", str(ext), "--json")
        assert code == 0
        assert all(c["passed"] for c in obj["checks"])
        # round trip: the induced cocycle equals the input cocycle
        with open(SCALE) as fh:
            assert obj["cochain"] == json.load(fh)

        code, obj, _ = run("extend-equiv", str(ext), str(ext), "--json")
        assert code == 0
        assert obj["equivalence_status"] == "equivalent"

    def test_extend_build_rejects_non_cocycle(self, run):
        code, obj, _ = run("extend-build", ALG1, OMEGA_E0, "--adjoint", "--json")
        assert code == 1
        assert obj["status"] == "fail"
        assert any(not c["passed"] for c in obj["checks"])

    def test_extend_analyze_output_file(self, run, tmp_path):
        ext = tmp_path / "e.ext"
        out = tmp_path / "analysis.json"
        assert run("extend-build", ALG1, SCALE, "--adjoint",
                   "-o", str(ext))[0] == 0
        code, _, _ = run("extend-analyze", str(ext), "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"representation", "cochain"}

    def test_extend_analyze_rejects_corrupt_bundle(self, run, tmp_path):
        ext = tmp_path / "e.ext"
        assert run("extend-build", ALG1, SCALE, "--adjoint",
                   "-o", str(ext))[0] == 0
        obj = json.loads(ext.read_text())
        obj["sigma"][0][0] = "5"  # no longer a section
        bad = tmp_path / "bad.ext"
        bad.write_text(json.dumps(obj))
        code, out, _ = run("extend-analyze", str(bad))
        assert code == 1
        assert "section: FAIL" in out

    def test_extend_equiv_base_mismatch_is_error(self, run, tmp_path):
        e1 = tmp_path / "e1.ext"
        e2 = tmp_path / "e2.ext"
        zero = tmp_path / "zero.cochain"
        zero.write_text('{"module_dimension": 2, "nu": [], "omega": []}\n')
        assert run("extend-build", ALG1, str(zero), "--adjoint",
                   "-o", str(e1))[0] == 0
        assert run("extend-build", ALG_M1, str(zero), "--adjoint",
                   "-o", str(e2))[0] == 0
        code, _, err = run("extend-equiv", str(e1), str(e2))
        assert code == 2
        assert "different base" in err


class TestEachVerificationRunsOnce:
    def test_adjoint_command_scans_the_algebra_once(self, run, monkeypatch):
        calls = []
        original = algebra._b3_scan

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_b3_scan", counting)
        assert run("delta-check", ALG1, "--adjoint")[0] == 0
        assert len(calls) == 1  # one B3 scan

    def test_extend_build_verifies_the_representation_once(self, run, monkeypatch,
                                                           tmp_path):
        rep = tmp_path / "adj.rep"
        assert run("adjoint", ALG1, "-o", str(rep))[0] == 0
        scanned = []
        original = representation._scan

        def counting(name, *args):
            scanned.append(name)
            return original(name, *args)

        monkeypatch.setattr(representation, "_scan", counting)
        assert run("extend-build", ALG1, SCALE, "--rep", str(rep))[0] == 0
        assert scanned == ["R1", "R21", "R22", "R31", "R32", "R33"]


class TestCliPlumbing:
    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--nope", ALG1])
        assert exc.value.code == 2

    def test_error_reports_validate_in_json_mode(self, run):
        code, obj, _ = run("verify", str(DATA / "missing.alg"), "--json")
        assert code == 2
        assert obj["status"] == "error"

    def test_fail_reports_validate_in_json_mode(self, run, tmp_path):
        # precondition failure: adjoint of a non-Bol algebra
        code, obj, _ = run("adjoint", BROKEN, "--json")
        assert code == 1
        assert obj["status"] == "fail"
        assert any(not c["passed"] for c in obj["checks"])

    def test_internal_error_exits_3_with_a_report(self, run, monkeypatch):
        def broken(R):
            raise AssertionError("coboundary rank/nullity bookkeeping is wrong")

        monkeypatch.setattr(cli, "cohomology", broken)
        code, obj, err = run("cohomology", ALG1, "--adjoint", "--json")
        assert code == 3
        assert obj == {"command": "cohomology", "status": "internal-error",
                       "message": "AssertionError: coboundary rank/nullity "
                                  "bookkeeping is wrong"}
        assert "Traceback" in err
        code, out, err = run("cohomology", ALG1, "--adjoint")
        assert code == 3 and out == ""
        assert err.endswith("internal error: AssertionError: coboundary rank/nullity "
                            "bookkeeping is wrong\n")

    def test_a_singular_frame_after_validation_is_an_internal_error(self, run, monkeypatch,
                                                                     tmp_path):
        # sigma = 0 fails the section check; past a validation that passed it, the
        # singular frame [sigma | i] is a library fault, not a failing bundle
        ext = tmp_path / "e.ext"
        assert run("extend-build", ALG1, SCALE, "--adjoint", "-o", str(ext), "--json")[0] == 0
        obj = json.loads(ext.read_text())
        obj["sigma"] = [["0"] * len(row) for row in obj["sigma"]]
        ext.write_text(json.dumps(obj))
        passed = algebra.CheckReport(())
        monkeypatch.setattr(cli, "validate_extension", lambda E: passed)
        monkeypatch.setattr(extension, "validate_extension", lambda E: passed)
        code, obj, err = run("extend-analyze", str(ext), "--json")
        assert code == 3
        assert obj == {"command": "extend-analyze", "status": "internal-error",
                       "message": "AssertionError: section and injection do not split hat(B)"}
        assert "Traceback" in err

    def test_result_too_long_to_render_is_an_internal_error(self, run, tmp_path):
        # a valid input whose ternary product has numerals of about 6,000 digits
        lie = tmp_path / "huge.alg"
        lie.write_text('{"kind": "maltsev", "dimension": 2, "binary": [{"args": [0, 1], '
                       '"value": {"1": "1' + "0" * 3000 + '"}}]}')
        message = ("RenderOverflowError: the result has a numerator or denominator "
                   "over 4,300 digits")
        code, out, err = run("maltsev-to-bol", str(lie))
        assert code == 3 and out == ""
        assert err.endswith(f"internal error: {message}\n")
        code, obj, _ = run("maltsev-to-bol", str(lie), "--json")
        assert code == 3
        assert obj == {"command": "maltsev-to-bol", "status": "internal-error",
                       "message": message}

    def test_identical_invocations_are_byte_identical(self, capsys):
        main(["cohomology", ALG1, "--adjoint", "--json"])
        first = capsys.readouterr().out
        main(["cohomology", ALG1, "--adjoint", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_every_command_emits_schema_valid_json(self, run, tmp_path):
        """One --json invocation per subcommand; the fixture validates each
        report against the packaged schema."""
        ext = tmp_path / "e.ext"
        rep = tmp_path / "adj.rep"
        assert run("adjoint", ALG1, "-o", str(rep), "--json")[0] == 0
        assert run("extend-build", ALG1, SCALE, "--adjoint", "-o", str(ext),
                   "--json")[0] == 0
        battery = [
            ("verify", ALG1),
            ("maltsev-to-bol", M0),
            ("induce-rep", M0, ACTION),
            ("verify-rep", ALG1, str(rep)),
            ("delta-check", ALG1, "--adjoint"),
            ("pseudoderivations", ALG1, "--adjoint"),
            ("cohomology", ALG1, "--adjoint"),
            ("is-cocycle", ALG1, SCALE, "--adjoint"),
            ("is-coboundary", ALG1, SCALE, "--adjoint"),
            ("deform-check", ALG1, SCALE),
            ("deform-formal", ALG1, SCALE),
            ("deform-equiv", ALG1, SCALE, SCALE),
            ("extend-analyze", str(ext)),
            ("extend-equiv", str(ext), str(ext)),
        ]
        for argv in battery:
            code, obj, _ = run(*argv, "--json")
            assert code == 0, argv
            assert obj["command"] == argv[0]


def test_the_kept_parser_prints_help_at_the_current_width(monkeypatch, capsys):
    """main reuses one parser; its help still follows COLUMNS at print time,
    as that of a parser built for the call, and so does the help of a
    subcommand whose parser is first built after COLUMNS changed."""
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    unparsed = [cli.build_parser.__wrapped__() for _ in range(3)]
    shown = {}
    for columns, late in zip(("80", "40", "80"), unparsed):
        monkeypatch.setenv("COLUMNS", columns)
        for parse in (main, cli.build_parser.__wrapped__().parse_args, late.parse_args):
            with pytest.raises(SystemExit):
                parse(["cohomology", "--help"])
        kept, fresh, first_built = capsys.readouterr().out.split("usage:")[1:]
        assert kept == fresh == first_built
        shown.setdefault(columns, kept)
        assert kept == shown[columns]
    assert shown["40"] != shown["80"]
