"""Command-line interface: subcommands, exit codes, JSON contracts."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qglrtt.cli import main
from qglrtt.scalars import QScalar

ROOT = Path(__file__).resolve().parents[1]


def child_env():
    # child interpreters import qglrtt from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestClassify:
    def test_verdict_with_diagram(self, capsys):
        code, data, err = run_json(
            capsys, "classify", "--s", "001", "--weights", "+q^3,+q^1,+q^0"
        )
        assert code == 0
        assert data["finite"] is True
        assert data["kac_dimension"] == 12
        assert "ascii" in data["diagram"]
        assert "finite" in err

    def test_expect_match_and_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "classify", "--s", "001", "--weights",
            "+q^3,+q^1,+q^0", "--expect", "finite",
        )
        assert code == 0
        code, data, _ = run_json(
            capsys, "classify", "--s", "001", "--weights",
            "+q^3,+q^1,+q^0", "--expect", "infinite",
        )
        assert code == 1
        assert data["finite"] is True  # report still emitted

    def test_infinite_weight_verdict(self, capsys):
        code, data, _ = run_json(
            capsys, "classify", "--s", "00", "--weights", "+q^0,+q^2"
        )
        assert code == 0  # a verdict, not a failure
        assert data["finite"] is False
        assert data["witness"]

    def test_bad_weight_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--s", "00", "--weights", "xyz")
        assert code == 2

    def test_bad_sequence_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "classify", "--s", "02", "--weights", "+q^1,+q^1"
        )
        assert code == 2

    def test_negative_first_entry_joined_with_equals(self, capsys):
        code, data, _ = run_json(
            capsys, "classify", "--s", "11", "--weights=-q^1,+q^0"
        )
        assert code == 0
        assert data["weight"] == "-q^1,+q^0"
        # a separate argument starting with '-' reads as an option
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--s", "11", "--weights", "-q^1,+q^0"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestYbe:
    def test_three_pass_lines(self, capsys):
        code, data, err = run_json(capsys, "ybe", "--m", "2", "--n", "1")
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("ybe ")]
        assert len(lines) == 3
        assert all(l.endswith("pass") for l in lines)
        assert data["pass"] is True
        assert len(data["reports"]) == 6  # constant + spectral per sequence
        assert {r["sequence"] for r in data["reports"]} == {
            "001", "010", "100"
        }

    def test_constant_only(self, capsys):
        code, data, _ = run_json(
            capsys, "ybe", "--m", "1", "--n", "1", "--no-spectral"
        )
        assert code == 0
        assert [r["identity"] for r in data["reports"]] == [
            "constant-ybe", "constant-ybe"
        ]

    def test_bad_size_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ybe", "--m", "0", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("m, n", [(4, 3), (7, 0), (50, 50)])
    def test_too_many_indices_is_usage_error(self, capsys, m, n):
        code, out, err = run(capsys, "ybe", "--m", str(m), "--n", str(n))
        assert code == 2
        assert out == ""
        assert "m + n is at most 6, got %d" % (m + n) in err


class TestNormalize:
    def test_straightens_expression(self, capsys):
        code, data, _ = run_json(
            capsys, "normalize", "--s", "01", "--element",
            "tb[1,2] t[2,1]",
        )
        assert code == 0
        assert data["sequence"] == "01"
        assert data["terms"]
        assert "normal_form" in data

    def test_deterministic(self, capsys):
        argv = ["normalize", "--s", "01", "--element", "t[2,1] tb[1,2]^2"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_mixed_denominators(self, capsys):
        # a coefficient over a power of q keeps its value beside one over
        # another polynomial
        code, data, _ = run_json(
            capsys, "normalize", "--s", "00", "--element",
            "t[2,1] + (1/(1-q)) tb[1,2]",
        )
        assert code == 0
        assert data["normal_form"] == "(1) t[2,1] + (1/(-q + 1)) tb[1,2]"

    def test_parse_error_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "normalize", "--s", "01", "--element", "t[3,1]"
        )
        assert code == 2

    def test_coefficient_past_a_cap_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "normalize", "--s", "01", "--element", "(q^65) t[2,1]"
        )
        assert code == 2
        assert "exponent 65 exceeds the cap of 64" in err

    def test_coefficient_product_is_capped(self, capsys):
        # the factors of a term are multiplied inside the scalar parser
        code, data, _ = run_json(
            capsys, "normalize", "--s", "01", "--element",
            "((1+q)^32)((1+q)^32) t[2,1]",
        )
        assert code == 0
        code, out, err = run(
            capsys, "normalize", "--s", "01", "--element",
            "((1+q)^64)((1+q)^64) t[2,1]",
        )
        assert code == 2
        assert out == ""
        assert "degree 128 exceeds the cap of 64" in err
        code, data, _ = run_json(
            capsys, "normalize", "--s", "01", "--element", "2 3 t[2,1]"
        )
        assert code == 0
        assert [t["coeff"] for t in data["terms"]] == ["6"]

    def test_coefficient_nesting_is_capped(self, capsys):
        nested = "(" * 64 + "q" + ")" * 64
        code, _, _ = run(
            capsys, "normalize", "--s", "01", "--element", nested + " t[2,1]"
        )
        assert code == 0
        code, out, err = run(
            capsys, "normalize", "--s", "01", "--element", "(%s) t[2,1]" % nested
        )
        assert code == 2
        assert out == ""
        assert "nesting depth 65 exceeds the cap of 64" in err

    def test_letter_exponent_is_capped(self, capsys):
        # the parser bounds the exponent, so that a long power word is
        # refused before any straightening starts
        code, data, _ = run_json(
            capsys, "normalize", "--s", "00", "--element",
            "tb[1,2] t[2,1]^64 tb[1,1]^-64",
        )
        assert code == 0
        assert len(data["terms"]) == 3
        for element, e in (
            ("t[2,1]^65", 65),
            ("tb[1,1]^-65", -65),
            ("tb[1,2] t[2,1]^100000", 100000),
        ):
            code, out, err = run(
                capsys, "normalize", "--s", "00", "--element", element
            )
            assert code == 2
            assert out == ""
            assert "exponent %d exceeds the cap of 64" % e in err

    def test_default_budget_has_a_ceiling(self, capsys, monkeypatch):
        # the word takes 42,433 units, so the patched default budget of
        # 1,000 refuses it
        from qglrtt import rtt

        monkeypatch.setattr(rtt, "_MAX_WORK", 1000)
        element = "tb[1,3]^16 t[3,1]^16"
        code, data, _ = run_json(
            capsys, "normalize", "--s", "000", "--element", element
        )
        assert code == 1
        assert data == {
            "error": "straightening exceeded 1000 units of work",
            "input": element,
        }

    # tb[1,3]^12 t[3,1]^12 takes 14,561 units of work, and ^10 7,481
    WORD_12, WORD_10 = "tb[1,3]^12 t[3,1]^12", "tb[1,3]^10 t[3,1]^10"

    def test_terms_share_one_budget(self, capsys, monkeypatch):
        # either term fits 20,000 units alone, and both together do not
        from qglrtt import rtt

        monkeypatch.setattr(rtt, "_MAX_WORK", 20000)
        element = self.WORD_12 + " + " + self.WORD_10
        code, data, _ = run_json(
            capsys, "normalize", "--s", "000", "--element", element
        )
        assert code == 1
        assert data == {
            "error": "straightening exceeded 20000 units of work",
            "input": element,
        }

    @pytest.mark.parametrize("sign, count", [("+", 91), ("-", 0)])
    def test_equal_words_merge_before_straightening(
        self, capsys, monkeypatch, sign, count
    ):
        # a repeated word is straightened once; a cancelled one is not
        # straightened at all, and the product of no words is zero
        from qglrtt import rtt

        monkeypatch.setattr(rtt, "_MAX_WORK", 20000)
        element = "%s %s %s" % (self.WORD_12, sign, self.WORD_12)
        code, data, _ = run_json(
            capsys, "normalize", "--s", "000", "--element", element
        )
        assert code == 0
        assert len(data["terms"]) == count
        if not count:
            assert data["normal_form"] == "0"


class TestBraidVerify:
    def test_single_position(self, capsys):
        code, data, err = run_json(capsys, "braid-verify", "--s", "01")
        assert code == 0
        assert data["pass"] is True
        rep = data["reports"][0]
        assert rep["source"] == "01" and rep["target"] == "10"
        assert rep["relation_failures"] == []
        assert "pass" in err

    def test_all_positions(self, capsys):
        code, data, _ = run_json(capsys, "braid-verify", "--s", "001")
        assert code == 0
        assert len(data["reports"]) == 2
        assert all(r["pass"] for r in data["reports"])

    def test_position_out_of_range(self, capsys):
        code, _, _ = run(capsys, "braid-verify", "--s", "01", "--i", "2")
        assert code == 2


class TestModule:
    def test_dump_and_verify(self, capsys):
        code, data, _ = run_json(
            capsys, "module", "--s", "01", "--weights", "+q^1,+q^1",
            "--verify",
        )
        assert code == 0
        assert data["module"]["dimension"] == 2
        assert data["module"]["matrices"]
        assert data["verification"]["pass"] is True

    def test_failed_verification_exits_1(self, capsys, monkeypatch):
        # a module whose raising matrix moves the maximal vector
        from qglrtt import weights

        build = weights.build_irreducible

        def broken(s, weight, level_cap):
            rep = build(s, weight, level_cap)
            rep.matrices[("tb", 1, 2)].set(1, 0, QScalar.one())
            return rep

        monkeypatch.setattr(weights, "build_irreducible", broken)
        code, data, err = run_json(
            capsys, "module", "--s", "01", "--weights", "+q^1,+q^1",
            "--verify",
        )
        assert code == 1
        assert data["verification"]["pass"] is False
        assert data["verification"]["failures"][0] == (
            "raising tb[1,2] does not annihilate the maximal vector (rows [1])"
        )
        assert "VERIFICATION FAILED" in err

    def test_infinite_weight_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "module", "--s", "00", "--weights", "+q^0,+q^2"
        )
        assert code == 1
        assert data["module"] is None
        assert data["classification"]["finite"] is False

    def test_insufficient_cap_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "module", "--s", "001", "--weights", "+q^2,+q^1,+q^1",
            "--level-cap", "1",
        )
        assert code == 1
        assert data["error"] == "did not stabilize"

    @pytest.mark.parametrize("command", ["module", "evalrep"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_usage_error(self, capsys, command, cap):
        code, out, err = run(
            capsys, command, "--s", "01", "--weights", "+q^1,+q^1",
            "--level-cap", cap,
        )
        assert code == 2
        assert out == ""
        assert "--level-cap must be >= 1, got %s" % cap in err

    def test_weight_denominator_past_the_cap_is_usage_error(self, capsys):
        # every scalar would be stretched by the denominator 100000
        code, out, err = run(
            capsys, "module", "--s", "001", "--weights",
            "+q^100001/100000,+q^-99999/100000,+q^1",
        )
        assert code == 2
        assert out == ""
        assert "exponent denominator 100000 exceeds the cap of 64" in err


class TestEvalrep:
    def test_dump_relations_series(self, capsys):
        code, data, err = run_json(
            capsys, "evalrep", "--s", "01", "--weights", "+q^1,+q^1",
            "--a", "q^2",
        )
        assert code == 0
        assert data["relations"]["pass"] is True
        assert data["representation"]["dim"] == 2
        assert set(data["representation"]["modes"]) == {"t", "tb"}
        assert data["series"]["unique"] is True
        assert "relations pass" in err

    def test_infinite_weight_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "evalrep", "--s", "00", "--weights", "+q^0,+q^2"
        )
        assert code == 1
        assert data["representation"] is None

    def test_zero_parameter_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "evalrep", "--s", "01", "--weights", "+q^1,+q^1",
            "--a", "0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "a, message",
        [
            ("q^65", "exponent 65 exceeds the cap of 64"),
            ("(1+q)^40 * (1+q)^40", "degree 80 exceeds the cap of 64"),
            ("1/0", "division by zero"),
            pytest.param(
                "(" * 65 + "q" + ")" * 65,
                "nesting depth 65 exceeds the cap of 64",
                id="depth-65",
            ),
        ],
    )
    def test_scalar_past_a_cap_is_usage_error(self, capsys, a, message):
        code, out, err = run(
            capsys, "evalrep", "--s", "01", "--weights", "+q^1,+q^1",
            "--a", a,
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_non_decimal_digit_is_usage_error(self, capsys):
        # '²' is a digit to str.isdigit but not an integer literal
        code, out, err = run(
            capsys, "evalrep", "--s", "01", "--weights", "+q^1,+q^1",
            "--a", "1²",
        )
        assert code == 2
        assert out == ""
        assert "unexpected character '²'" in err


class TestParserFuzz:
    # short texts from a bounded alphabet of well-formed and broken pieces;
    # element exponents go up to 9, where the straightening budget, which
    # counts work done, ends a long power word in bounded time
    ELEMENT_PIECES = [
        "t[2,1]", "tb[1,2]", "t[1,1]", "tb[2,2]^-1", "t[3,1]^2", "tb[2,3]",
        "t[3,1]^9", "tb[1,3]^9", "t[1,2]", "t[9,1]", "t[", "]", ",", "^",
        "^-1", "^2", "^9", "^ -1", "+", "-", "*", "/", " ", "(", ")", "q",
        "0", "2", "(q - q^-1)", "(0)^-2", "((0)^-2)", "((1+q)^40)", "²", "٣",
        "x",
    ]
    SCALAR_PIECES = [
        "q", "^", "-", "+", "*", "/", "(", ")", " ", "0", "1", "2", "64",
        "65", "(1+q)^9", "2^100", "1" * 40, "²", "٣", "x", "t[2,1]",
    ]
    WEIGHT_ENTRIES = [
        "+q^1", "-q^0", "q^-3", "q^1/2", "+q^3/2", "q^1/64", "q^65/65",
        "q^1/65", "q^1/0", "+q^x", "q^²", "q^٣", "+q^99999999999", "q^",
        "", " -q^2 ", "+-q^1",
    ]

    @staticmethod
    def exit_code(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                return main(list(argv))

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.sampled_from(["01", "000", "0011"]),
        text=st.lists(st.sampled_from(ELEMENT_PIECES), max_size=6).map("".join),
    )
    def test_normalize_element(self, s, text):
        assert self.exit_code("normalize", "--s", s, "--element=" + text) in (
            0, 1, 2
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(SCALAR_PIECES), max_size=5).map("".join))
    def test_evalrep_parameter(self, text):
        code = self.exit_code(
            "evalrep", "--s", "01", "--weights", "+q^1,+q^0", "--a=" + text
        )
        assert code in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(WEIGHT_ENTRIES), min_size=1, max_size=4).map(
            ",".join
        )
    )
    def test_classify_weights(self, text):
        code = self.exit_code("classify", "--s", "001", "--weights=" + text)
        assert code in (0, 1, 2)


def write_factors(tmp_path, payload):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTensor:
    def test_certificate_and_spans(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {
                "sequence": "01",
                "factors": [
                    {"weights": "+q^1,+q^1", "a": "1"},
                    {"weights": "+q^2,+q^1", "a": "1"},
                ],
            },
        )
        code, data, _ = run_json(capsys, "tensor", "--factors", path)
        assert code == 0
        assert data["dim"] == 4
        assert data["certificate_kind"] == "T1"
        assert data["certificate"]["K"] == 2
        assert data["span_from_maximal"] == 4
        assert data["span_from_minimal"] == 4
        assert data["irreducible"] is True

    def test_scan_table_dichotomy(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {
                "sequence": "01",
                "factors": [
                    {"weights": "+q^1,+q^1", "a": "1"},
                    {"weights": "+q^2,+q^1", "a": "1"},
                ],
            },
        )
        code, data, _ = run_json(
            capsys, "tensor", "--factors", path, "--scan-a=-7..5"
        )
        assert code == 0
        rows = {r["exponent"]: r for r in data["scan"]}
        assert len(rows) == 13
        assert rows[-6]["span_from_maximal"] == 2
        assert rows[-6]["irreducible"] is False
        assert rows[4]["span_from_minimal"] == 2
        assert rows[4]["irreducible"] is False
        for k in rows:
            if k not in (-6, 4):
                assert rows[k]["irreducible"] is True, k

    def test_verify_flag(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {
                "sequence": "01",
                "factors": [
                    {"weights": "+q^1,+q^1", "a": "1"},
                    {"weights": "+q^2,+q^1", "a": "q^1"},
                ],
            },
        )
        code, data, _ = run_json(
            capsys, "tensor", "--factors", path, "--verify"
        )
        assert code == 0
        assert data["relations"]["pass"] is True

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "tensor", "--factors", str(tmp_path / "nope.json")
        )
        assert code == 2

    def test_bad_schema_is_usage_error(self, capsys, tmp_path):
        path = write_factors(tmp_path, {"sequence": "01"})
        code, _, _ = run(capsys, "tensor", "--factors", path)
        assert code == 2

    def test_scan_needs_two_factors(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {"sequence": "01", "factors": [{"weights": "+q^1,+q^1"}]},
        )
        code, _, _ = run(
            capsys, "tensor", "--factors", path, "--scan-a", "1..3"
        )
        assert code == 2

    def test_bad_scan_range_is_usage_error(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {
                "sequence": "01",
                "factors": [
                    {"weights": "+q^1,+q^1"},
                    {"weights": "+q^2,+q^1"},
                ],
            },
        )
        code, _, _ = run(
            capsys, "tensor", "--factors", path, "--scan-a", "5..1"
        )
        assert code == 2

    def test_factor_dimensions_are_capped(self, capsys, tmp_path, monkeypatch):
        # six two-dimensional factors on 01 (64) are refused after the
        # factors are built and before any tensor product is formed
        from qglrtt import affine, cli

        def no_tensor(*args):
            raise AssertionError("tensor product formed past the cap")

        monkeypatch.setattr(affine, "tensor", no_tensor)
        six = [{"weights": "+q^2,+q^1", "a": "q^%d" % k} for k in range(6)]
        path = write_factors(tmp_path, {"sequence": "01", "factors": six})
        code, out, err = run(capsys, "tensor", "--factors", path)
        assert code == 2
        assert out == ""
        assert "the product of the factor dimensions is at most 32, got 64" in err
        # the cap itself is accepted: the README factors multiply to 4
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_TENSOR_DIM", 4)
        path = write_factors(tmp_path, TestGoldenOutput.README_FACTORS)
        code, data, _ = run_json(capsys, "tensor", "--factors", path)
        assert (code, data["dim"]) == (0, 4)
        three = {"sequence": "01", "factors": six[:3]}
        path = write_factors(tmp_path, three)
        code, out, _ = run(capsys, "tensor", "--factors", path)
        assert (code, out) == (2, "")

    def test_factor_count_is_capped(self, capsys, tmp_path, monkeypatch):
        # one-dimensional factors keep the product at 1, so the number of
        # factors has its own cap, checked before any factor is built
        from qglrtt import cli

        trivial = {"weights": "+q^0,+q^0"}
        path = write_factors(
            tmp_path, {"sequence": "01", "factors": [trivial] * 32}
        )
        code, data, _ = run_json(capsys, "tensor", "--factors", path)
        assert (code, data["dim"]) == (0, 1)

        def no_build(*args):
            raise AssertionError("factor built past the cap")

        monkeypatch.setattr(cli, "_build_eval", no_build)
        for n in (33, 600):
            path = write_factors(
                tmp_path, {"sequence": "01", "factors": [trivial] * n}
            )
            code, out, err = run(capsys, "tensor", "--factors", path)
            assert (code, out) == (2, "")
            assert "tensor takes at most 32 factors, got %d" % n in err

    def test_dimension_cap_stops_the_builds(
        self, capsys, tmp_path, monkeypatch
    ):
        # the product of six two-dimensional factors on 00 passes the cap,
        # so the infinite-dimensional seventh factor is never built
        from qglrtt import cli

        built = []
        build = cli._build_eval

        def counted(s, wtext, atext):
            built.append(wtext)
            return build(s, wtext, atext)

        monkeypatch.setattr(cli, "_build_eval", counted)
        six = [{"weights": "+q^1,+q^0", "a": "q^%d" % k} for k in range(6)]
        factors = six + [{"weights": "+q^0,+q^2"}]
        path = write_factors(tmp_path, {"sequence": "00", "factors": factors})
        code, out, err = run(capsys, "tensor", "--factors", path)
        assert (code, out) == (2, "")
        assert "the product of the factor dimensions is at most 32, got 64" in err
        assert built == ["+q^1,+q^0"] * 6

    def test_scan_points_times_dimension_are_capped(
        self, capsys, tmp_path, monkeypatch
    ):
        # five two-dimensional factors on 01 (32) at nine scan points (288)
        # are refused before any tensor product is formed
        from qglrtt import affine, cli

        def no_tensor(*args):
            raise AssertionError("tensor product formed past the cap")

        monkeypatch.setattr(affine, "tensor", no_tensor)
        five = [{"weights": "+q^2,+q^1", "a": "q^%d" % k} for k in range(5)]
        path = write_factors(tmp_path, {"sequence": "01", "factors": five})
        for scan in ("0..8", "-500..499"):
            code, out, err = run(
                capsys, "tensor", "--factors", path, "--scan-a=" + scan
            )
            assert (code, out) == (2, "")
        assert "at most 256, got 1000 x 32" in err
        # the cap itself is accepted: the README factors multiply to 4
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_SCAN_DIM", 8)
        path = write_factors(tmp_path, TestGoldenOutput.README_FACTORS)
        code, data, _ = run_json(
            capsys, "tensor", "--factors", path, "--scan-a=0..1"
        )
        assert (code, len(data["scan"])) == (0, 2)
        code, out, _ = run(capsys, "tensor", "--factors", path, "--scan-a=0..2")
        assert (code, out) == (2, "")

    def test_infinite_factor_fails(self, capsys, tmp_path):
        path = write_factors(
            tmp_path,
            {"sequence": "00", "factors": [{"weights": "+q^0,+q^2"}]},
        )
        code, data, _ = run_json(capsys, "tensor", "--factors", path)
        assert code == 1
        assert "error" in data


class TestPlumbing:
    LAYERS = {p.stem for p in (ROOT / "src" / "qglrtt").glob("*.py")} - {
        "__init__", "__main__", "cli"
    }

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        ["normalize", "classify", "module", "evalrep", "braid-verify", "tensor"],
    )
    def test_every_command_caps_the_indices(self, capsys, tmp_path, command):
        # seven indices are refused before any work; six are accepted
        weights = lambda s: ",".join(["+q^0"] * len(s))
        s = "0101010"
        argv = {
            "normalize": ["--s", s, "--element", "tb[1,2] t[2,1]"],
            "braid-verify": ["--s", s],
            "tensor": [
                "--factors",
                write_factors(
                    tmp_path,
                    {"sequence": s, "factors": [{"weights": weights(s)}] * 2},
                ),
            ],
        }.get(command, ["--s", s, "--weights", weights(s)])
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert "at most 6 indices, got 7" in err
        if command == "classify":
            code, data, _ = run_json(
                capsys, command, "--s", s[:6], "--weights", weights(s[:6])
            )
            assert code == 0
            assert data["finite"] is True

    @pytest.mark.parametrize(
        "argv, code, allowed",
        [
            # importing the CLI loads no layer, and neither does a usage error
            ([], 2, set()),
            (
                ["classify", "--s", "01", "--weights", "+q^1,+q^1"],
                0, {"parity", "scalars", "weights"},
            ),
            (
                ["normalize", "--s", "01", "--element", "tb[1,2] t[2,1]"],
                0, LAYERS - {"affine", "weights", "linalg", "reflections"},
            ),
            (["ybe", "--m", "1", "--n", "1"], 0, LAYERS - {"rtt"}),
        ],
        ids=["none", "classify", "normalize", "ybe"],
    )
    def test_commands_load_only_their_layers(self, argv, code, allowed):
        # each run compiles what it imports, as a fresh command does
        env = dict(child_env(), PYTHONDONTWRITEBYTECODE="1")
        script = (
            "import json, sys\n"
            "import qglrtt.cli\n"
            "code = qglrtt.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script] + argv,
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        got, modules = json.loads(proc.stdout.splitlines()[-1])
        assert got == code
        loaded = {m[len("qglrtt."):] for m in modules if m.startswith("qglrtt.")}
        assert loaded - {"cli"} <= allowed

    @pytest.mark.parametrize("command", ["evalrep", "tensor"])
    def test_affine_error_is_usage_error(
        self, capsys, tmp_path, monkeypatch, command
    ):
        from qglrtt import affine

        def refuse(*args, **kwargs):
            raise affine.AffineError("refused for the test")

        monkeypatch.setattr(affine, "evaluation_rep", refuse)
        if command == "evalrep":
            argv = ["evalrep", "--s", "01", "--weights", "+q^1,+q^1"]
        else:
            path = write_factors(tmp_path, TestGoldenOutput.README_FACTORS)
            argv = ["tensor", "--factors", path]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: refused for the test" in err
        assert "Traceback" not in err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "classify", "--s", "01", "--weights", "+q^1,+q^1",
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["finite"] is True

    def test_byte_identical_reruns(self, capsys, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (o1, o2):
            run(
                capsys, "evalrep", "--s", "01", "--weights", "+q^1,+q^1",
                "--a", "q^2", "--out", str(out),
            )
        assert o1.read_bytes() == o2.read_bytes()

    def test_json_round_trip(self, capsys):
        _, data, _ = run_json(
            capsys, "classify", "--s", "010", "--weights", "+q^1,+q^1,+q^0"
        )
        assert json.loads(json.dumps(data)) == data

    def test_module_entry_point(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "qglrtt", "classify",
                "--s", "01", "--weights", "+q^1,+q^1",
            ],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["finite"] is True

    def test_console_script(self):
        # The `qglrtt` executable only exists after an install, so run the
        # declared `[project.scripts]` target through the same wrapper the
        # installer generates; a source checkout then tests it too.
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["qglrtt"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        wrapper = (
            "import sys\n"
            "from %s import %s\n"
            "sys.argv[0] = 'qglrtt'\n"
            "sys.exit(%s())\n" % (module, attr, attr)
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper,
             "ybe", "--m", "1", "--n", "1", "--no-spectral"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True


class TestGoldenOutput:
    # sha256 of stdout, fixed from the hand-written relation checkers that
    # the R-matrix expansion replaced, from the scalar kernel that ran the
    # full gcd on every value, and from the hand-written straightening rules
    # and three-leg embedding; reports and canonical strings must not move.
    # The k=4 power word exceeded the budget of the stack-based straightener,
    # so its digest is of the letter-by-letter product printed the same way
    README_FACTORS = {
        "sequence": "01",
        "factors": [
            {"weights": "+q^1,+q^1", "a": "1"},
            {"weights": "+q^2,+q^1", "a": "1"},
        ],
    }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["evalrep", "--s", "01", "--weights", "+q^1,+q^1", "--a", "q^2"],
                "30aeed50dd021a409b8690047fc05a69d7e97812b62fc9f917787163e2738da2",
            ),
            (
                ["tensor", "--factors", None, "--verify"],
                "91f021a48cb31478944c4afde66c221fb5c2f503e1ff410fd354cabf2534d67f",
            ),
            (
                ["braid-verify", "--s", "001"],
                "9d6d6d23fe59d45a046c4fa3eacd88b45a481536ef7373e643b2e5760bf20221",
            ),
            (
                ["evalrep", "--s", "001", "--weights", "+q^2,+q^1,+q^1",
                 "--a", "q^1"],
                "1074fa1783c75f3054ee961f081dcda9297c1814ff0349a916798dff62cddb99",
            ),
            (
                ["module", "--s", "001", "--weights", "+q^2,+q^1,+q^1",
                 "--verify"],
                "ac3791c5c5aebe713788574b73719fe24ed6254148bf56d6db655ddbeb2710b9",
            ),
            (
                ["module", "--s", "001", "--weights", "+q^3/2,+q^1/2,+q^1/2",
                 "--verify"],
                "06fabea5bfc5de89f73aba12fbdf96a9213f2ca9c4191d08dd725c6dc723be5c",
            ),
            (
                ["module", "--s", "0011", "--weights", "+q^1,+q^0,+q^0,+q^0"],
                "4629cf0fcf6c3c6f2074d8185d10be745d39647588279ff06ba0acdd37537e0f",
            ),
            (
                ["module", "--s", "0000", "--weights", "+q^0,+q^0,+q^0,+q^0"],
                "a037673976d7899def35810981ef1dd87d74025616254bdb759e4f4b24ebe6b6",
            ),
            (
                # a deep cap bounds the build; it is not the work done
                ["module", "--s", "0000", "--weights", "+q^0,+q^0,+q^0,+q^0",
                 "--level-cap", "40"],
                "a037673976d7899def35810981ef1dd87d74025616254bdb759e4f4b24ebe6b6",
            ),
            (
                ["normalize", "--s", "0011", "--element",
                 "tb[1,2]^3 tb[3,4]^3 t[2,1]^3 t[4,3]^3"],
                "067f7358d3df0fdb7fe5bc3a434bd1086d3d1919699dfce9ed3214dfbb101483",
            ),
            (
                ["normalize", "--s", "0011", "--element",
                 "tb[1,2]^4 tb[3,4]^4 t[2,1]^4 t[4,3]^4"],
                "dafe11a270442668de67658d1633c72b95f2d98c3ee11744e78e1e0f15d77b62",
            ),
            (
                ["normalize", "--s", "0001", "--element",
                 "tb[1,2]^3 tb[3,4] t[2,1]^3 t[4,3]"],
                "1db9dc0732bf573567aea7ce8e1b7405f3c3184eee78619db02b648757a2f733",
            ),
            (
                ["braid-verify", "--s", "0101"],
                "23b9221996fe6d8b0b80428842474fa174203405fa0771d62355d3c524bfc7ee",
            ),
            (
                # reaches i = 3, where both branch families are nonempty
                ["braid-verify", "--s", "00101"],
                "0b233d77b5a01060433a92885f21824997722ba795f1f1476b956842e45dcd89",
            ),
            (
                ["ybe", "--m", "2", "--n", "1"],
                "8adad0c16cd567fab990a1c34a3cd1acb3e0ee98550d17ea2faa73d0485fa490",
            ),
            (
                ["tensor", "--factors", None, "--scan-a=-7..5"],
                "322c5078a6a453acb365eec6fa91e2a34f299c99c564dac0412df5189936fe19",
            ),
        ],
        ids=["evalrep", "tensor-verify", "braid-verify", "evalrep-001",
             "module-001-verify", "module-001-half-verify", "module-0011",
             "module-0000-trivial", "module-0000-trivial-cap40",
             "normalize-0011", "normalize-0011-k4", "normalize-0001",
             "braid-verify-0101", "braid-verify-00101", "ybe-2-1",
             "tensor-scan"],
    )
    def test_stdout_digest(self, capsys, tmp_path, argv, digest):
        path = write_factors(tmp_path, self.README_FACTORS)
        argv = [path if a is None else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # tensor products whose certificates are T2 and T3; the digests were
    # taken before the mode sums of affine.tensor dropped cancelled modes
    @pytest.mark.parametrize(
        "factors, flags, digest",
        [
            (
                {"sequence": "00", "factors": [
                    {"weights": "+q^1,+q^0", "a": "1"},
                    {"weights": "+q^2,+q^0", "a": "q^3"}]},
                ["--verify"],
                "c9c43ff05328fd923fb20df23792e635fc59ed2c0a99f7269997f105e560f42d",
            ),
            (
                {"sequence": "001", "factors": [
                    {"weights": "+q^2,+q^1,+q^1", "a": "1"},
                    {"weights": "+q^1,+q^1,+q^0", "a": "q^2"}]},
                [],
                "69617015449df8aca81c6d85e97a27429e78b01eafae8462eb87bdac79aee7ee",
            ),
        ],
        ids=["tensor-T2-verify", "tensor-T3"],
    )
    def test_tensor_stdout_digest(self, capsys, tmp_path, factors, flags,
                                  digest):
        path = write_factors(tmp_path, factors)
        code, out, _ = run(capsys, "tensor", "--factors", path, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
