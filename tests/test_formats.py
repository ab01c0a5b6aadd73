import json
import re
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bolalg.algebra import (
    BolAlgebra, MaltsevAlgebra, bilinear_eval, maltsev_to_bol, trilinear_eval,
)
from bolalg.cohomology import CochainPair, cohomology
from bolalg.extension import semidirect_product, twisted_product
from bolalg.formats import (
    MAX_DIMENSION,
    ParseError,
    RenderOverflowError,
    _ratio_text,
    parse_algebra,
    parse_action,
    parse_cochain,
    parse_extension,
    parse_representation,
    parse_scalar,
    render_algebra,
    render_cochain,
    render_extension,
    render_representation,
    render_scalar,
)
from bolalg.linalg import Mat
from bolalg.representation import adjoint_representation

from .conftest import DATA, leaves, make_b2


class TestScalars:
    @pytest.mark.parametrize("text,value", [
        ("0", F(0)),
        ("-7", F(-7)),
        ("3/2", F(3, 2)),
        ("-5/3", F(-5, 3)),
        ("2/4", F(1, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("bad", ["", "1.5", "+1", " 1", "1/ 2", "a",
                                     "1/-2", "--1", "1e2", "00x"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError) as info:
            parse_scalar(bad)
        assert str(info.value) == f"value: malformed rational {bad!r}"

    def test_zero_denominator(self):
        for text in ("1/0", "-0/0", "7/000"):
            with pytest.raises(ParseError) as info:
                parse_scalar(text, "file.value")
            assert str(info.value) == f"file.value: zero denominator in {text!r}"

    def test_parse_is_the_fraction_of_the_text(self):
        import random

        rng = random.Random(17)
        corpus = ["0", "-0", "-0/5", "4/6", "007", "-007/014", "12/1", "1/12", "0/3",
                  "9" * 4300, "-" + "9" * 4300, "1/" + "3" * 4300,
                  "-" + "9" * 4300 + "/" + "1" * 4300]
        corpus += [f"{rng.randint(-10 ** 6, 10 ** 6)}/{rng.randint(1, 10 ** 6)}"
                   for _ in range(200)]
        for text in corpus:
            got = parse_scalar(text)
            assert type(got) is F and got == F(text), text

    def test_the_text_zero_is_one_shared_fraction(self):
        # "0" is most scalars of a dense file; other spellings of zero still parse
        zero = parse_scalar("0")
        assert type(zero) is F and zero == 0 and parse_scalar("0", "file.value") is zero
        for text in ("-0", "0/5", "00", "-0/3"):
            got = parse_scalar(text)
            assert type(got) is F and got == F(text) == 0, text
        with pytest.raises(ParseError, match="zero denominator"):
            parse_scalar("0/0")

    def test_numbers_are_rejected(self):
        with pytest.raises(ParseError, match="string"):
            parse_scalar(1)

    @pytest.mark.parametrize("bad", ["\u0661", "\u00b2", "1/\u0662", "-\u0663",
                                     "\uff11", "1\u0660"])
    def test_non_ascii_digits_are_malformed(self, bad):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_scalar(bad)

    @pytest.mark.parametrize("text", ["1" * 4301, "-1/" + "7" * 4301, "7" * 4301 + "/3"],
                             ids=["numerator", "denominator", "numerator-of-fraction"])
    def test_numerals_over_the_digit_limit_are_rejected_with_their_path(self, text):
        with pytest.raises(ParseError, match="longer than 4300 digits") as info:
            parse_scalar(text, "file.value")
        assert info.value.path == "file.value"

    def test_numerals_at_the_digit_limit_parse(self):
        assert parse_scalar("-" + "9" * 4300 + "/" + "1" * 4300) == F(
            -(10 ** 4300 - 1), (10 ** 4300 - 1) // 9)

    @pytest.mark.parametrize("value", [F(10 ** 4300), F(1, 10 ** 4300)],
                             ids=["numerator", "denominator"])
    def test_results_over_the_digit_limit_are_no_input_error(self, value):
        with pytest.raises(RenderOverflowError, match="over 4,300 digits") as info:
            render_scalar(value)
        assert not isinstance(info.value, ValueError)
        assert render_scalar(F(10 ** 4299 - 1)) == "9" * 4299

    def test_a_ratio_of_two_ints_is_rendered_as_its_fraction(self):
        import random

        rng = random.Random(11)
        for _ in range(500):
            D = rng.choice([1, 2, 6, 12, 35, 10 ** 20, rng.randint(1, 10 ** 6)])
            c = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 30))
            assert _ratio_text(c, D) == render_scalar(F(c, D))

    @pytest.mark.parametrize("render", [render_algebra, lambda B: render_representation(
        adjoint_representation(B)), lambda B: render_cochain(CochainPair.from_entries(
            B, 1, [((0, 1), {0: F(1, 10 ** 4300)})], []))],
        ids=["algebra", "representation", "cochain"])
    def test_every_renderer_refuses_a_result_over_the_digit_limit(self, render):
        # a product entry of 3,001 digits, so bracket entries of about 6,000
        M = parse_algebra('{"kind": "maltsev", "dimension": 2, "binary": [{"args": [0, 1], '
                          '"value": {"1": "1' + "0" * 3000 + '"}}]}')
        with pytest.raises(RenderOverflowError, match="over 4,300 digits") as info:
            render(maltsev_to_bol(M))
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_round_trip_is_identity(self):
        import random

        rng = random.Random(9)
        for _ in range(50):
            s = F(rng.randint(-40, 40), rng.randint(1, 12))
            assert parse_scalar(render_scalar(s)) == s


class TestAlgebraFiles:
    def test_worked_example_file(self):
        text = (DATA / "b2_lambda1.alg").read_text()
        B = parse_algebra(text)
        assert isinstance(B, BolAlgebra)
        assert B.product(0, 1) == (F(0), F(-1))
        assert B.triple(0, 1, 0) == (F(0), F(1))
        assert B.basis_names == ("e1", "e2")

    def test_rational_parameter_file(self):
        B = parse_algebra((DATA / "b2_lambda_5_3.alg").read_text())
        assert B.triple(0, 1, 0) == (F(0), F(5, 3))

    def test_parse_render_round_trip(self):
        for name in ("b2_lambda1.alg", "maltsev_dim4.alg", "so3.alg"):
            text = (DATA / name).read_text()
            obj = parse_algebra(text)
            assert render_algebra(obj) == text
            assert parse_algebra(render_algebra(obj)) == obj

    def test_render_of_parse_is_canonical(self):
        messy = json.dumps({
            "kind": "bol",
            "dimension": 2,
            "binary": [{"args": [0, 1], "value": {"1": "-2/2"}}],
            "ternary": [],
        })
        B = parse_algebra(messy)
        again = parse_algebra(render_algebra(B))
        assert again == B
        assert '"-1"' in render_algebra(B)

    def test_diagonal_entry_rejected(self):
        bad = json.dumps({"kind": "bol", "dimension": 2,
                          "binary": [{"args": [1, 1], "value": {"0": "1"}}],
                          "ternary": []})
        with pytest.raises(ParseError, match="diagonal binary entry"):
            parse_algebra(bad)

    def test_zero_denominator_in_file(self):
        bad = json.dumps({"kind": "bol", "dimension": 2,
                          "binary": [{"args": [0, 1], "value": {"0": "1/0"}}],
                          "ternary": []})
        with pytest.raises(ParseError, match="zero denominator"):
            parse_algebra(bad)

    def test_unordered_args_rejected(self):
        bad = json.dumps({"kind": "maltsev", "dimension": 2,
                          "binary": [{"args": [1, 0], "value": {"0": "1"}}]})
        with pytest.raises(ParseError, match="i<j"):
            parse_algebra(bad)

    def test_duplicate_entry_rejected(self):
        bad = json.dumps({"kind": "maltsev", "dimension": 2,
                          "binary": [{"args": [0, 1], "value": {"0": "1"}},
                                     {"args": [0, 1], "value": {"1": "1"}}]})
        with pytest.raises(ParseError, match="duplicate"):
            parse_algebra(bad)

    def test_index_out_of_range(self):
        bad = json.dumps({"kind": "maltsev", "dimension": 2,
                          "binary": [{"args": [0, 5], "value": {"0": "1"}}]})
        with pytest.raises(ParseError, match="out of range"):
            parse_algebra(bad)

    def test_kind_mismatch(self):
        bad = json.dumps({"kind": "maltsev", "dimension": 2, "binary": [],
                          "ternary": []})
        with pytest.raises(ParseError, match="ternary"):
            parse_algebra(bad)
        with pytest.raises(ParseError, match="unknown kind"):
            parse_algebra(json.dumps({"kind": "lie", "dimension": 1,
                                      "binary": []}))

    def test_integer_literal_over_the_digit_limit_is_a_parse_error(self):
        text = ('{"kind": "bol", "dimension": 2, "binary": [{"args": [0, 1' + "0" * 4301
                + '], "value": {}}], "ternary": []}')
        with pytest.raises(ParseError) as info:
            parse_algebra(text)
        assert info.value.path == ""
        assert str(info.value) == "invalid JSON: an integer literal is longer than 4300 digits"
        # at the limit the literal is read, and its field says what is wrong
        with pytest.raises(ParseError, match=r"binary\[0\]\.args: index 1"):
            parse_algebra(text.replace("0" * 4301, "0" * 4299))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_algebra("{nope")

    def test_error_messages_carry_field_paths(self):
        bad = json.dumps({"kind": "bol", "dimension": 2,
                          "binary": [{"args": [0, 1], "value": {"0": "x"}}],
                          "ternary": []})
        with pytest.raises(ParseError, match=r"binary\[0\].value.0"):
            parse_algebra(bad)


class TestIndexKeys:
    @staticmethod
    def _binary(value: str) -> str:
        return ('{"kind": "maltsev", "dimension": 2, "binary": '
                '[{"args": [0, 1], "value": ' + value + '}]}')

    @pytest.mark.parametrize("key", ["01", "00", "-0", "--1", "+1", " 1", "1 ",
                                     "\u0661", "\u00b2", "1.0", ""])
    def test_non_canonical_key_rejected_with_path(self, key):
        value = json.dumps({key: "1"})
        with pytest.raises(ParseError, match=r"binary\[0\]\.value\."):
            parse_algebra(self._binary(value))

    def test_leading_zero_cannot_alias_an_index(self):
        # "01" must not silently overwrite e0*e1 = -e1 with 5 e1
        with pytest.raises(ParseError, match=r"binary\[0\]\.value\.01"):
            parse_algebra(self._binary('{"1": "-1", "01": "5"}'))

    def test_repeated_index_rejected_with_path(self):
        with pytest.raises(ParseError, match=r"binary\[0\]\.value\.1: duplicate index"):
            parse_algebra(self._binary('{"1": "-1", "1": "5"}'))

    def test_repeated_module_coordinate_in_cochain(self, b2_1):
        text = ('{"module_dimension": 2, "nu": [], "omega": '
                '[{"args": [0, 1, 0], "value": {"0": "1", "1": "2", "0": "3"}}]}')
        with pytest.raises(ParseError, match=r"omega\[0\]\.value\.0: duplicate index"):
            parse_cochain(text, b2_1)

    def test_negative_canonical_key_is_out_of_range(self):
        with pytest.raises(ParseError, match=r"value\.-1: index out of range"):
            parse_algebra(self._binary('{"-1": "1"}'))

    def test_canonical_keys_still_parse(self):
        A = parse_algebra(self._binary('{"0": "2", "1": "-1"}'))
        assert A.product(0, 1) == (F(2), F(-1))


class TestRepeatedKeys:
    def test_top_level_key(self):
        with pytest.raises(ParseError, match=r"^file\.dimension: duplicate key$"):
            parse_algebra('{"kind": "maltsev", "dimension": 2, "dimension": 3, '
                          '"binary": []}')

    def test_entry_key(self):
        text = ('{"kind": "maltsev", "dimension": 2, "binary": [{"args": [0, 1], '
                '"value": {"1": "-1"}, "value": {"0": "1"}}]}')
        with pytest.raises(ParseError, match=r"^binary\[0\]\.value: duplicate key$"):
            parse_algebra(text)

    def test_representation_and_cochain_files(self, b2_1, adj_1):
        text = render_representation(adj_1)
        with pytest.raises(ParseError, match=r"^file\.module_dimension: duplicate key$"):
            parse_representation(text.replace('"rho"', '"module_dimension": 2, "rho"'),
                                 b2_1)
        with pytest.raises(ParseError, match=r"^file\.nu: duplicate key$"):
            parse_cochain('{"module_dimension": 2, "nu": [], "omega": [], "nu": []}',
                          b2_1)

    def test_bundle_keys(self, adj_1):
        text = render_extension(semidirect_product(adj_1))
        top = text.replace('"fiber_dimension"', '"p": [], "fiber_dimension"')
        with pytest.raises(ParseError, match=r"^file\.p: duplicate key$"):
            parse_extension(top)
        nested = text.replace('"base": {', '"base": {"dimension": 2,', 1)
        with pytest.raises(ParseError, match=r"^base\.dimension: duplicate key$"):
            parse_extension(nested)


class TestEntryPaths:
    """Entry paths and missing fields name the algebra of a bundle they sit in."""

    @staticmethod
    def _bundle(adj_1) -> dict:
        return json.loads(render_extension(semidirect_product(adj_1)))

    def test_entry_path_in_hat(self, adj_1):
        obj = self._bundle(adj_1)
        obj["hat"]["binary"][0]["value"] = {"9": "1"}
        with pytest.raises(ParseError,
                           match=r"^hat\.binary\[0\]\.value\.9: index out of range \[0, 4\)$"):
            parse_extension(json.dumps(obj))

    def test_entry_path_in_base(self, adj_1):
        obj = self._bundle(adj_1)
        obj["base"]["ternary"][0]["args"] = [1, 0, 0]
        with pytest.raises(ParseError, match=r"^base\.ternary\[0\]\.args: "):
            parse_extension(json.dumps(obj))
        obj["base"]["ternary"] = {}
        with pytest.raises(ParseError, match=r"^base\.ternary: must be a list of entries$"):
            parse_extension(json.dumps(obj))

    def test_missing_entries_in_bundle(self, adj_1):
        obj = self._bundle(adj_1)
        del obj["base"]["ternary"]
        with pytest.raises(ParseError, match=r"^base: missing field 'ternary'$"):
            parse_extension(json.dumps(obj))

    def test_missing_entries_in_file(self, b2_1):
        with pytest.raises(ParseError, match=r"^file: missing field 'ternary'$"):
            parse_algebra('{"kind": "bol", "dimension": 2, "binary": []}')
        with pytest.raises(ParseError, match=r"^file: missing field 'omega'$"):
            parse_cochain('{"module_dimension": 2, "nu": []}', b2_1)

    def test_top_level_entry_paths_are_unchanged(self):
        text = ('{"kind": "maltsev", "dimension": 2, "binary": '
                '[{"args": [0, 1], "value": {"9": "1"}}]}')
        with pytest.raises(ParseError,
                           match=r"^binary\[0\]\.value\.9: index out of range \[0, 2\)$"):
            parse_algebra(text)


class TestUnknownFields:
    def test_misspelt_top_level_field(self):
        text = ('{"kind": "maltsev", "dimension": 2, "basis_name": ["a", "b"], '
                '"binary": []}')
        with pytest.raises(ParseError, match=r"^file\.basis_name: unknown field$"):
            parse_algebra(text)

    def test_entry_field(self):
        text = ('{"kind": "maltsev", "dimension": 2, "binary": '
                '[{"args": [0, 1], "value": {"1": "-1"}, "values": {}}]}')
        with pytest.raises(ParseError, match=r"^binary\[0\]\.values: unknown field$"):
            parse_algebra(text)

    def test_representation_action_and_cochain_files(self, b2_1, adj_1):
        obj = json.loads(render_representation(adj_1))
        with pytest.raises(ParseError, match=r"^file\.Theta: unknown field$"):
            parse_representation(json.dumps({**obj, "Theta": []}), b2_1)
        # an action file carries module_dimension and rho only
        with pytest.raises(ParseError, match=r"^file\.D: unknown field$"):
            parse_action(json.dumps(obj), 2)
        with pytest.raises(ParseError, match=r"^file\.mu: unknown field$"):
            parse_cochain('{"module_dimension": 2, "nu": [], "omega": [], "mu": []}',
                          b2_1)

    def test_bundle_fields(self, adj_1):
        obj = json.loads(render_extension(semidirect_product(adj_1)))
        with pytest.raises(ParseError, match=r"^file\.tau: unknown field$"):
            parse_extension(json.dumps({**obj, "tau": []}))
        for part in ("base", "hat"):
            bad = json.loads(json.dumps(obj))
            bad[part]["binary"][0]["note"] = "x"
            with pytest.raises(ParseError,
                               match=rf"^{part}\.binary\[0\]\.note: unknown field$"):
                parse_extension(json.dumps(bad))
            bad = json.loads(json.dumps(obj))
            bad[part]["names"] = []
            with pytest.raises(ParseError, match=rf"^{part}\.names: unknown field$"):
                parse_extension(json.dumps(bad))

    def test_documented_optional_fields_still_parse(self):
        A = parse_algebra('{"kind": "bol", "dimension": 1, "basis_names": ["e"], '
                          '"binary": [], "ternary": []}')
        assert A.basis_names == ("e",)


class TestRepresentationFiles:
    def test_round_trip(self, b2_1, adj_1):
        text = render_representation(adj_1)
        again = parse_representation(text, b2_1)
        assert again == adj_1
        assert render_representation(again) == text

    def test_action_file(self):
        M0 = parse_algebra((DATA / "maltsev_m0.alg").read_text())
        m, rho = parse_action((DATA / "action_m0.rep").read_text(), M0.n)
        assert m == 2 and len(rho) == 2
        assert rho[0].row(0) == (F(-1), F(0))
        assert all(type(x) is F for mat in rho for x in mat.entries)

    @pytest.mark.parametrize("rows, path", [
        ([["1", "x"], ["0"]], "rho[0][0][1]: malformed rational"),   # row 0's scalars first
        ([["1"], ["0", "x"]], "rho[0][0]: row must have 2 entries"),  # then row 1
        ([["1", "0"], ["0"]], "rho[0][1]: row must have 2 entries"),
        ([["1", "0"], ["0", 1]], "rho[0][1][1]: rational must be a string"),
        ([["1", "0"]], "rho[0]: matrix must have 2 rows"),
    ])
    def test_a_matrix_is_read_row_by_row(self, rows, path):
        text = json.dumps({"module_dimension": 2, "rho": [rows]})
        with pytest.raises(ParseError, match=re.escape(path)):
            parse_action(text, 1)

    def test_a_zero_dimensional_module_has_empty_matrices(self):
        assert parse_action(json.dumps({"module_dimension": 0, "rho": [[], []]}), 2) == (
            0, (Mat.zeros(0, 0), Mat.zeros(0, 0)))

    def test_shape_mismatch(self, b2_1):
        obj = {"module_dimension": 2,
               "rho": [[["0", "0"], ["0", "0"]]],    # only one matrix
               "D": [], "theta": []}
        with pytest.raises(ParseError, match="one 2x2 matrix per basis"):
            parse_representation(json.dumps(obj), b2_1)


class TestCochainFiles:
    def test_round_trip(self, b2_1, adj_1):
        for c in cohomology(adj_1).z_basis:
            text = render_cochain(c)
            assert parse_cochain(text, b2_1) == c

    def test_sample_file(self, b2_1):
        c = parse_cochain((DATA / "scale_b2.cochain").read_text(), b2_1)
        assert bilinear_eval(c.nu, 0, 1, 2) == (F(0), F(-1))
        assert trilinear_eval(c.omega, 0, 1, 0, 2) == (F(0), F(1))

    def test_module_dimension_out_of_range_coordinate(self, b2_1):
        bad = json.dumps({"module_dimension": 1,
                          "nu": [{"args": [0, 1], "value": {"1": "1"}}],
                          "omega": []})
        with pytest.raises(ParseError, match="out of range"):
            parse_cochain(bad, b2_1)


class TestExtensionFiles:
    def test_round_trip(self, adj_1):
        E = twisted_product(adj_1, cohomology(adj_1).z_basis[0])
        text = render_extension(E)
        again = parse_extension(text)
        assert again == E
        assert render_extension(again) == text

    def test_dimension_consistency_enforced(self, adj_1):
        E = semidirect_product(adj_1)
        obj = json.loads(render_extension(E))
        obj["fiber_dimension"] = 3
        with pytest.raises(ParseError, match="base dimension \\+ fiber"):
            parse_extension(json.dumps(obj))

    def test_base_must_be_bol(self, adj_1):
        E = semidirect_product(adj_1)
        obj = json.loads(render_extension(E))
        obj["base"] = {"kind": "maltsev", "dimension": 2,
                       "binary": obj["base"]["binary"]}
        with pytest.raises(ParseError, match="must be a bol algebra"):
            parse_extension(json.dumps(obj))


def test_every_parsed_entry_is_a_plain_fraction(adj_1):
    """Each parser stores exactly a Fraction in every slot, whatever the spelling."""
    B = parse_algebra(json.dumps({
        "kind": "bol", "dimension": 2,
        "binary": [{"args": [0, 1], "value": {"0": "4/6", "1": "-0"}}],
        "ternary": [{"args": [0, 1, 0], "value": {"0": "007", "1": "-0/5"}}]}))
    M = parse_algebra((DATA / "maltsev_dim4.alg").read_text())
    R = parse_representation(render_representation(adj_1), adj_1.base)
    c = parse_cochain((DATA / "scale_b2.cochain").read_text(), make_b2(1))
    E = parse_extension(render_extension(twisted_product(adj_1, cohomology(adj_1).z_basis[0])))
    parsed = (B.c, B.t, M.c, R.rho, R.D, R.theta, c.coords(), c.nu, c.omega,
              E.base.c, E.base.t, E.hat.c, E.hat.t, E.i, E.p, E.sigma)
    scalars = leaves(parsed)
    assert len(scalars) > 500 and all(type(x) is F for x in scalars)
    assert B.c[0][0][1] == F(2, 3) and B.c[0][1][0] == F(-2, 3) and B.t[0][0][1][0] == 7


def test_every_checked_in_data_file_round_trips():
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        if path.suffix == ".alg":
            assert render_algebra(parse_algebra(text)) == text
        elif path.suffix == ".cochain":
            base = make_b2(1)
            assert render_cochain(parse_cochain(text, base)) == text
        elif path.suffix == ".rep":
            from bolalg.formats import render_action

            m, rho = parse_action(text, 2)
            assert render_action(m, rho) == text
        else:
            raise AssertionError(f"unknown data file type: {path.name}")


class TestDimensionLimit:
    """A declared dimension over MAX_DIMENSION is refused before any tensor is built."""

    @staticmethod
    def _algebra(kind: str, n: int) -> str:
        obj = {"kind": kind, "dimension": n, "binary": []}
        return json.dumps(dict(obj, ternary=[]) if kind == "bol" else obj)

    @pytest.mark.parametrize("kind", ["bol", "maltsev"])
    def test_the_largest_dimension_parses_and_the_next_is_refused(self, kind):
        assert MAX_DIMENSION == 64
        assert parse_algebra(self._algebra(kind, 64)).n == 64
        with pytest.raises(ParseError, match=r"^file\.dimension: must be at most 64$"):
            parse_algebra(self._algebra(kind, 65))

    def test_module_dimensions_are_limited_alike(self):
        base = BolAlgebra.zero(1)
        zeros = lambda m: [["0"] * m for _ in range(m)]
        rep = lambda m: json.dumps({"module_dimension": m, "rho": [zeros(m)],
                                    "D": [[zeros(m)]], "theta": [[zeros(m)]]})
        cochain = lambda m: json.dumps({"module_dimension": m, "nu": [], "omega": []})
        action = lambda m: json.dumps({"module_dimension": m, "rho": [zeros(m)]})
        assert parse_representation(rep(64), base).m == 64
        assert parse_cochain(cochain(64), make_b2(1)).m == 64
        assert parse_action(action(64), 1)[0] == 64
        for parse, text, over in ((parse_representation, rep(65), base),
                                  (parse_cochain, cochain(400), make_b2(1)),
                                  (parse_action, action(65), 1)):
            with pytest.raises(ParseError, match=r"^file\.module_dimension: must be at most 64$"):
                parse(text, over)

    def test_a_huge_dimension_is_an_input_error_under_a_memory_limit(self, tmp_path):
        # 400 MB of address space: building the declared tensors would run out of memory
        path = tmp_path / "big.alg"
        path.write_text(self._algebra("bol", 400))
        limit = 400 * 2 ** 20
        proc = subprocess.run(
            [sys.executable, "-m", "bolalg.cli", "verify", str(path)], capture_output=True,
            text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2
        assert "dimension: must be at most 64" in proc.stderr
