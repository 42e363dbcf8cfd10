"""End-to-end tests for the command-line interface.

Each test drives main() in process and inspects exit code and JSON output;
one test goes through a real subprocess to cover the module entry point.
"""

import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from detlam import chowmodel, cli, combinat, exactalg, grrcheck, kexpr, quotientlab
from detlam.chowmodel import model_pn_x_pm
from detlam.cli import main
from detlam.kexpr import MAX_NESTING
from detlam.quotientlab import MAX_BOUND, MAX_VARIABLES


# The environment of a child ``python -m detlam...``: this checkout's src
# directory first on its path, so the child imports the code under test
# whether or not detlam is installed.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_usage_error(capsys, *argv):
    """Run argv, expect exit 2, no report and stderr in one of the two
    usage-error shapes: one ``error:`` line from a command's handler, or
    argparse's ``usage:`` block whose last line is ``detlam <cmd>: error:
    ...`` (``detlam: error: ...`` from the top-level parser)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err
    if not err.startswith("error: "):
        assert err.startswith("usage: detlam")
        assert re.match(r"detlam( [a-z0-9-]+)?: error: ", err.splitlines()[-1])
    return err


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class _Reached(Exception):
    """Raised by a stub that stands in for the expensive part of a command."""


# P1xP1 model files with one field malformed: integer fields that are not JSON
# integers, list fields given as strings, and generator records of the wrong
# shape. Each must be refused, never coerced into a model.
def _p1xp1_with(edit):
    obj = model_pn_x_pm(1, 1).to_obj()
    edit(obj)
    return obj


MALFORMED_MODELS = {
    "generator-names": _p1xp1_with(lambda o: o.update(generators=["h", "s"])),
    "generator-strings": _p1xp1_with(lambda o: o.update(generators=["h1", "s1"])),
    "generator-triple": _p1xp1_with(lambda o: o.update(generators=[["h", 1, 1], ["s", 1]])),
    "weight-true": _p1xp1_with(lambda o: o["generators"][0].update(weight=True)),
    "weight-float": _p1xp1_with(lambda o: o["generators"][0].update(weight=1.0)),
    "lead-float": _p1xp1_with(lambda o: o["relations"][0].update(lead=[2.7, 0])),
    "rel-dim-float": _p1xp1_with(lambda o: o.update(rel_dim=1.9)),
    "total-dim-string": _p1xp1_with(lambda o: o.update(total_dim="2")),
    "point-class-float": _p1xp1_with(lambda o: o.update(point_class=[1.5, 1])),
    "point-class-string": _p1xp1_with(lambda o: o.update(point_class="11")),
    "base-string": _p1xp1_with(lambda o: o.update(base_generators="s")),
    "tangent-exponent-float": _p1xp1_with(lambda o: o["tangent_chern"][1].update(exponents=[1.2, 0])),
    "tangent-coeff-float": _p1xp1_with(lambda o: o["tangent_chern"][1].update(coeff=0.5)),
}


class TestCoeffs:
    def test_dim1_json(self, capsys):
        code, obj = run_json(capsys, "coeffs", "--dim", "1")
        assert code == 0
        assert obj["entries"] == ["7", "-4", "1"]
        assert obj["lhs_exponent"] == "16"

    def test_dim2(self, capsys):
        code, obj = run_json(capsys, "coeffs", "--dim", "2")
        assert code == 0
        assert obj["entries"] == ["31", "-26", "16", "-6", "1"]

    def test_text_mode(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--dim", "1", "--text")
        assert code == 0
        assert "entries" in out and "7" in out

    def test_bad_dim_is_usage_error(self, capsys):
        run_usage_error(capsys, "coeffs", "--dim", "0")

    def test_dim_ceiling(self, capsys, monkeypatch):
        assert combinat.MAX_COEFF_DIM >= grrcheck.MAX_UNIVERSAL_DIM

        def reached(*args):
            raise _Reached

        monkeypatch.setattr(combinat, "comb", reached)  # the table's first product
        with pytest.raises(_Reached):
            main(["coeffs", "--dim", str(combinat.MAX_COEFF_DIM)])
        # cap + 1 first: without the check it reaches the table here
        for dim in (combinat.MAX_COEFF_DIM + 1, 10**12):
            err = run_usage_error(capsys, "coeffs", "--dim", str(dim))
            assert f"MAX_COEFF_DIM = {combinat.MAX_COEFF_DIM}" in err


class TestPolyId:
    def test_default_range(self, capsys):
        code, obj = run_json(capsys, "polyid")
        assert code == 0
        assert obj["ok"] is True
        assert obj["max_k"] == 64
        assert obj["failures"] == []

    def test_small_range(self, capsys):
        code, obj = run_json(capsys, "polyid", "--max-k", "5")
        assert code == 0 and obj["ok"]

    def test_negative_max_k_is_usage_error(self, capsys):
        run_usage_error(capsys, "polyid", "--max-k", "-5")

    def test_max_k_ceiling(self, capsys, monkeypatch):
        checked = []
        monkeypatch.setattr(cli, "pk_identity_check", lambda k: checked.append(k) or True)
        code, obj = run_json(capsys, "polyid", "--max-k", str(cli.MAX_POLYID_K))
        assert code == 0 and obj["ok"]
        assert checked == list(range(cli.MAX_POLYID_K + 1))
        checked.clear()
        for max_k in (cli.MAX_POLYID_K + 1, 10**12):
            err = run_usage_error(capsys, "polyid", "--max-k", str(max_k))
            assert f"MAX_POLYID_K = {cli.MAX_POLYID_K}" in err
        assert checked == []  # rejected before the sweep starts


class TestUniversal:
    def test_main_d1(self, capsys):
        code, obj = run_json(capsys, "universal", "--dim", "1")
        assert code == 0
        assert obj["top_degree_zero"] is True

    def test_main_d2(self, capsys):
        code, obj = run_json(capsys, "universal", "--dim", "2")
        assert code == 0

    def test_deligne(self, capsys):
        code, obj = run_json(capsys, "universal", "--dim", "1", "--combo", "deligne")
        assert code == 0
        assert obj["top_degree_zero"] is True

    def test_deligne_needs_dim1(self, capsys):
        run_usage_error(capsys, "universal", "--dim", "2", "--combo", "deligne")

    def test_degenerate_dim_is_usage_error(self, capsys):
        run_usage_error(capsys, "universal", "--dim", "0")

    def test_dim_ceiling(self, capsys, monkeypatch):
        cap = grrcheck.MAX_UNIVERSAL_DIM
        assert cap >= cli.MAX_VERIFY_DIM
        combos = []

        def reached(d, allow_degenerate=False):
            combos.append(d)
            raise _Reached

        monkeypatch.setattr(grrcheck, "main_combo", reached)  # the first step past the checks
        with pytest.raises(_Reached):
            main(["universal", "--dim", str(cap)])
        assert combos == [cap]
        combos.clear()
        for dim in (cap + 1, 10**12):
            started = time.perf_counter()
            err = run_usage_error(capsys, "universal", "--dim", str(dim))
            assert time.perf_counter() - started < 0.5
            assert f"MAX_UNIVERSAL_DIM = {cap}" in err
        assert combos == []  # rejected before any ring is built


class TestDucrot:
    def test_full_block_trivial(self, capsys):
        code, obj = run_json(capsys, "ducrot", "--dim", "1")
        assert code == 0
        assert obj["is_zero"] is True
        assert obj["factors"] == 3

    def test_short_block_fails_verified(self, capsys):
        code, obj = run_json(capsys, "ducrot", "--dim", "1", "--factors", "2")
        assert code == 1
        assert obj["is_zero"] is False
        assert obj["defect"]

    def test_negative_factor_count_is_usage_error(self, capsys):
        run_usage_error(capsys, "ducrot", "--dim", "1", "--factors", "-3")

    def test_verify_all_row_reads_its_control_from_the_chain(self, monkeypatch):
        # a chain whose (d+1)-factor prefix is zero fails the row's control
        chain = grrcheck._ducrot_chain

        def zero_prefix(d, factors):
            *head, short, full = chain(d, factors)
            return [*head, short * 0, full]

        assert cli._chk_ducrot(2) is None
        monkeypatch.setattr(grrcheck, "_ducrot_chain", zero_prefix)
        assert cli._chk_ducrot(2) == {
            "dim": 2,
            "factors": 3,
            "error": "short block unexpectedly trivial",
        }

    def test_dim_and_factor_ceilings(self, capsys, monkeypatch):
        dim, factors = grrcheck.MAX_DUCROT_DIM, grrcheck.MAX_DUCROT_FACTORS
        assert factors >= dim + 2
        tables = []

        def reached(variables):
            tables.append(len(variables))
            raise _Reached

        monkeypatch.setattr(grrcheck, "VarTable", reached)  # the product's ring
        with pytest.raises(_Reached):
            main(["ducrot", "--dim", str(dim), "--factors", str(factors)])
        assert tables == [factors]
        tables.clear()
        # cap + 1 first: without the checks it reaches the ring here
        for big in (dim + 1, 10**12):
            err = run_usage_error(capsys, "ducrot", "--dim", str(big))
            assert f"MAX_DUCROT_DIM = {dim}" in err
        for big in (factors + 1, 10**12):
            err = run_usage_error(capsys, "ducrot", "--dim", "1", "--factors", str(big))
            assert f"MAX_DUCROT_FACTORS = {factors}" in err
        assert tables == []


class TestModelCommands:
    def test_c1lambda_product(self, capsys):
        code, obj = run_json(
            capsys, "c1lambda", "--model", "P1xP1", "--line", "1,1"
        )
        assert code == 0
        assert obj["degree"] == "2"

    def test_verify_main_headline(self, capsys):
        code, obj = run_json(
            capsys, "verify-main", "--model", "P1xP1", "--line", "1,1"
        )
        assert code == 0
        assert obj["ok"] is True
        assert obj["lhs"] == "32" and obj["rhs"] == "32"

    def test_verify_main_negative_line(self, capsys):
        code, obj = run_json(
            capsys, "verify-main", "--model", "P1xP1", "--line=-2,-1"
        )
        assert code == 0 and obj["ok"]

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["c1lambda", "--model", "P1xP1"], "-1,2"),
            (["verify-main", "--model", "P3xP1"], "-3,2"),
            (["euler", "--model", "P2"], "-3"),
        ],
        ids=["c1lambda", "verify-main", "euler"],
    )
    def test_negative_line_value_after_a_space(self, capsys, argv, value):
        joined = run_cli(capsys, *argv, f"--line={value}")
        spaced = run_cli(capsys, *argv, "--line", value)
        assert joined[0] == spaced[0] == 0
        assert spaced[1] == joined[1] != ""

    def test_verify_main_hirzebruch(self, capsys):
        code, obj = run_json(
            capsys, "verify-main", "--model", "Hirzebruch", "--e", "2", "--line", "0,0"
        )
        assert code == 0 and obj["ok"]

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_pn_x_pm(1, 1).to_obj()), encoding="utf-8")
        code, obj = run_json(
            capsys, "verify-main", "--model-file", str(path), "--line", "1,1"
        )
        assert code == 0 and obj["ok"]

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_malformed_model_file_is_usage_error(self, capsys, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(MALFORMED_MODELS[case]), encoding="utf-8")
        err = run_usage_error(capsys, "verify-main", "--model-file", str(path), "--line", "1,1")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, build, line",
        [
            ("verify-main", lambda: model_pn_x_pm(1, 1), "1,1"),
            ("c1lambda", lambda: chowmodel.model_hirzebruch(1), "1,1"),
            ("euler", lambda: chowmodel.model_pn(2), "1"),
        ],
    )
    def test_zero_denominator_in_a_model_file_is_usage_error(
        self, capsys, tmp_path, command, build, line
    ):
        # in the tangent class and in a rule's replacement alike; the
        # coefficient is read before the replacement's exponents are checked
        for place in ("tangent_chern", "replace"):
            obj = build().to_obj()
            if place == "tangent_chern":
                obj["tangent_chern"][0]["coeff"] = "1/0"
            else:
                zero = [0] * len(obj["generators"])
                obj["relations"][0]["replace"] = [{"exponents": zero, "coeff": "1/0"}]
            path = tmp_path / f"{place}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            err = run_usage_error(capsys, command, "--model-file", str(path), "--line", line)
            assert err == "error: malformed model description: zero denominator in '1/0'\n"

    @pytest.mark.parametrize(
        "model, flags, line",
        [(f"P{n}xP1", [], "2,-1") for n in (1, 2, 3)]
        + [("Hirzebruch", ["--e", str(e)], "2,-1") for e in range(4)]
        + [("P2", [], "3")],
    )
    @pytest.mark.parametrize("command", ["verify-main", "c1lambda", "euler"])
    def test_model_file_reports_match_the_builtin_model(
        self, capsys, tmp_path, command, model, flags, line
    ):
        built = chowmodel.builtin_model(model, e=int(flags[1]) if flags else None)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(built.to_obj()), encoding="utf-8")
        builtin = run_cli(capsys, command, "--model", model, *flags, "--line", line)
        from_file = run_cli(capsys, command, "--model-file", str(path), "--line", line)
        assert from_file == builtin
        # euler needs a point base, the other two a one-dimensional one
        assert (builtin[0] == 0) == ((command == "euler") == (model == "P2"))

    def test_model_file_with_rational_tangent_class(self, capsys, tmp_path):
        # c(T) = 1 + h/3 on P1xP1 gives a non-integral determinant degree
        obj = model_pn_x_pm(1, 1).to_obj()
        obj["tangent_chern"] = [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1/3"},
        ]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(
            capsys, "verify-main", "--model-file", str(path), "--line", "1,1"
        )
        assert "determinant degree came out non-integral (7/6)" in err

    @pytest.mark.parametrize(
        "command, line", [("verify-main", "1,1"), ("c1lambda", "1,1"), ("euler", "0,0")]
    )
    def test_model_file_with_a_tangent_class_above_rel_dim(self, capsys, tmp_path, command, line):
        # c(T_f) = 1 + 2h + 5hs on P1 x P1 -> P1: c_2 of a rank-one sheaf
        # is zero, so the file is refused at load, before any verdict
        obj = model_pn_x_pm(1, 1).to_obj()
        obj["tangent_chern"].append({"exponents": [1, 1], "coeff": "5"})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(capsys, command, "--model-file", str(path), "--line", line)
        assert err == (
            "error: tangent_chern has a nonzero degree-2 component in normal form, "
            "above rel_dim = 1; c_i(T_f) = 0 for i > rel_dim\n"
        )

    def test_duplicate_generator_error_does_not_depend_on_the_tangent_class(
        self, capsys, tmp_path
    ):
        errs = []
        for keep_tangent in (True, False):
            obj = model_pn_x_pm(1, 1).to_obj()
            obj["generators"][1]["name"] = "h"
            if not keep_tangent:
                del obj["tangent_chern"]
            path = tmp_path / "model.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            argv = ["verify-main", "--model-file", str(path), "--line", "1,1"]
            errs.append(run_usage_error(capsys, *argv))
        assert errs == ["error: duplicate variable names\n"] * 2

    def test_euler_p2(self, capsys):
        code, obj = run_json(capsys, "euler", "--model", "Pn", "--n", "2", "--line", "2")
        assert code == 0
        assert obj["chi"] == "6"

    def test_euler_rejects_family_model(self, capsys):
        run_usage_error(capsys, "euler", "--model", "P1xP1", "--line", "1,1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-main", "--model", "P1_0xP1", "--line", "1,1"],
            ["verify-main", "--model", "P+2xP1", "--line", "1,1"],
            ["c1lambda", "--model", "P 2xP1", "--line", "1,1"],
            ["verify-main", "--model", "P\u0661xP\u0661", "--line", "1,1"],
            ["euler", "--model", "P\u0663", "--line", "1"],
        ],
    )
    def test_model_name_outside_ascii_digits_is_usage_error(self, capsys, argv):
        err = run_usage_error(capsys, *argv)
        assert err.startswith("error: unknown model ")

    def test_missing_model_is_usage_error(self, capsys):
        run_usage_error(capsys, "c1lambda", "--line", "1,1")

    def test_non_json_model_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "notjson.json"
        path.write_text("not json {", encoding="utf-8")
        err = run_usage_error(
            capsys, "verify-main", "--model-file", str(path), "--line", "1,1"
        )
        assert "notjson.json" in err

    def test_wrong_line_arity(self, capsys):
        run_usage_error(capsys, "c1lambda", "--model", "P1xP1", "--line", "1")

    @pytest.mark.parametrize(
        "at_cap, above",
        [
            (["--model", "Pn", "--n", "{cap}"], [["--model", "Pn", "--n", "{big}"], ["--model", "P{big}"]]),
            (
                ["--model", "PnxPm", "--n", "{cap_1}", "--m", "1"],
                [
                    ["--model", "PnxPm", "--n", "{cap}", "--m", "1"],
                    ["--model", "PnxPm", "--n", "1", "--m", "{big}"],
                    ["--model", "PnxPm", "--n", "{big}", "--m", "1"],
                    ["--model", "P{big}xP1"],
                ],
            ),
        ],
        ids=["Pn", "PnxPm"],
    )
    def test_model_dim_ceiling(self, capsys, monkeypatch, at_cap, above):
        cap = chowmodel.MAX_MODEL_DIM
        tables = []

        def reached(variables):
            tables.append(variables)
            raise _Reached

        def argv(template, big):
            fill = {"cap": cap, "cap_1": cap - 1, "big": big}
            return ["verify-main", *(a.format(**fill) for a in template), "--line", "1,1"]

        monkeypatch.setattr(chowmodel, "VarTable", reached)  # the model's ring
        with pytest.raises(_Reached):
            main(argv(at_cap, None))
        assert len(tables) == 1
        tables.clear()
        # cap + 1 first: without the check it reaches the ring here
        for big in (cap + 1, 10**12):
            for template in above:
                started = time.perf_counter()
                err = run_usage_error(capsys, *argv(template, big))
                assert time.perf_counter() - started < 0.5
                assert f"MAX_MODEL_DIM = {cap}" in err
        assert tables == []

    @staticmethod
    def _cube_model(k):
        # k weight-one generators with g_i^3 = 0 over a point: dimension 2k
        rules = [{"lead": [3 * (i == j) for j in range(k)], "replace": []} for i in range(k)]
        return {
            "name": f"cube{k}",
            "generators": [{"name": f"g{i}", "weight": 1} for i in range(k)],
            "relations": rules,
            "rel_dim": 2 * k,
            "total_dim": 2 * k,
            "base_generators": [],
            "point_class": [2] * k,
        }

    @staticmethod
    def _deep_chain_model(k, top):
        # k weight-one generators over a point, total_dim top: every monomial
        # of degree top - 1 and top but the last in lex order rewrites to the
        # next one, g_(k-1)^(top+1) = 0, and c(T) = 1 + g0^(top-1), whose
        # normal form walks the whole degree-(top - 1) chain
        def chain(degree):
            monomials = sorted(chowmodel._exponents_of_degree((1,) * k, degree), reverse=True)
            return [
                {"lead": list(a), "replace": [{"exponents": list(b), "coeff": "1"}]}
                for a, b in zip(monomials, monomials[1:])
            ]

        def power(i, a):
            return [a * (j == i) for j in range(k)]

        return {
            "name": f"chain{k}",
            "generators": [{"name": f"g{i}", "weight": 1} for i in range(k)],
            "relations": chain(top - 1)
            + chain(top)
            + [{"lead": power(k - 1, top + 1), "replace": []}],
            "rel_dim": top,
            "total_dim": top,
            "base_generators": [],
            "tangent_chern": [
                {"exponents": power(0, 0), "coeff": "1"},
                {"exponents": power(0, top - 1), "coeff": "1"},
            ],
            "point_class": power(k - 1, top),
        }

    @pytest.mark.parametrize(
        "case, fragment",
        [
            ("P256", "MAX_MODEL_DIM = 32"),
            ("cube10", "MAX_MODEL_WINDOW"),
            ("heavy", "degree"),
            ("chain4", "MAX_MODEL_LEAD_TESTS = "),
        ],
    )
    def test_model_file_ceilings(self, capsys, tmp_path, case, fragment):
        if case == "chain4":
            obj = self._deep_chain_model(4, 20)  # 3,310 rules, 35 million lead tests
        elif case == "P256":
            obj = chowmodel.model_pn(1).to_obj()
            obj.update(name="P256", total_dim=256, rel_dim=256, point_class=[256])
            obj["relations"][0]["lead"] = [257]
        elif case == "cube10":
            obj = self._cube_model(10)  # 44 million monomials to validate
        else:  # P1 with a generator g = 0 of weight 10^9
            obj = {
                "name": "heavy",
                "generators": [{"name": "h", "weight": 1}, {"name": "g", "weight": 10**9}],
                "relations": [{"lead": [2, 0], "replace": []}, {"lead": [0, 1], "replace": []}],
                "rel_dim": 1,
                "total_dim": 1,
                "base_generators": [],
                "point_class": [1, 0],
            }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        line = ",".join("0" * len(obj["generators"]))
        started = time.perf_counter()
        err = run_usage_error(capsys, "euler", "--model-file", str(path), "--line", line)
        assert time.perf_counter() - started < 1.0
        assert err.count("\n") == 1 and fragment in err

    def test_model_files_under_the_ceilings_load(self, capsys, tmp_path):
        cap = chowmodel.MAX_MODEL_DIM
        for model in (chowmodel.model_pn(cap), model_pn_x_pm(cap - 1, 1)):
            obj = model.to_obj()
            assert chowmodel.load_model(obj).to_obj() == obj
        # six generators: 27,132 monomials in the window
        path = tmp_path / "cube6.json"
        path.write_text(json.dumps(self._cube_model(6)), encoding="utf-8")
        assert chowmodel.load_model_file(str(path)).total_dim == 12

    @staticmethod
    def _many_model_file(tmp_path, k):
        # k weight-one generators g_i = 0 over a point: k + 1 monomials in
        # the window
        obj = {
            "name": "many",
            "generators": [[f"g{i}", 1] for i in range(k)],
            "relations": [{"lead": [int(i == j) for j in range(k)], "replace": []} for i in range(k)],
            "rel_dim": 0,
            "total_dim": 0,
            "point_class": [0] * k,
        }
        path = tmp_path / "many.json"
        path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
        return path

    def test_deep_rewrite_chain_loads_without_recursion(self, capsys, tmp_path):
        # 1,088 rules, under every ceiling: the tangent's normal form is a
        # chain of 527 rewrites, and the point-class check reduces each
        # degree-32 monomial along a chain of up to 560
        obj = self._deep_chain_model(3, 32)
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run_json(capsys, "euler", "--model-file", str(path), "--line", "0,0,0")
        assert code == 0 and out["chi"] == "0"

    def test_deep_rewrite_chain_lead_tests(self, monkeypatch, tmp_path):
        # the lead entries that loading the chain file reads, each bucket of
        # the lead index wrapped in a counting list: a bucket's scan stops at
        # its first divisor or past the first rule found so far
        reads = 0

        class Counting(list):
            def __iter__(self):
                nonlocal reads
                for entry in super().__iter__():
                    reads += 1
                    yield entry

        parse = chowmodel.ChowModel._parse_rules

        def counted(self, relations):
            rules, index, packed = parse(self, relations)
            return rules, {i: Counting(leads) for i, leads in index.items()}, packed

        monkeypatch.setattr(chowmodel.ChowModel, "_parse_rules", counted)
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps(self._deep_chain_model(3, 32)), encoding="utf-8")
        chowmodel.load_model_file(str(path))
        assert reads == 832_741

    def test_many_generators_load_without_recursion(self, tmp_path):
        # 1,500 generators: under both ceilings
        k = 1500
        path = self._many_model_file(tmp_path, k)
        proc = subprocess.run(
            [sys.executable, "-m", "detlam", "euler", "--model-file", str(path), "--line", ",".join("0" * k)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=60,
        )
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            assert json.loads(proc.stdout)["chi"] == "1"

    @pytest.mark.parametrize(
        "k, names",
        [
            (8, "g0, g1, g2, g3, g4, g5, g6, g7"),
            (9, "g0, g1, g2, ..., g8"),
            (300, "g0, g1, g2, ..., g299"),
        ],
    )
    def test_line_count_error_names_the_ends_of_a_long_generator_list(
        self, capsys, tmp_path, k, names
    ):
        path = self._many_model_file(tmp_path, k)
        err = run_usage_error(capsys, "euler", "--model-file", str(path), "--line", "0")
        assert err == f"error: --line needs {k} integers for generators {names}\n"
        assert len(err.encode("utf-8")) < 200

    @pytest.mark.parametrize(
        "k, line, want",
        [
            (2, "1,x", "'1,x'"),
            (
                1500,
                ",".join(["0"] * 1499 + ["x"]),
                "'0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0...0,0,0,0,0,0,0,0,0,x' (2999 characters)",
            ),
            # int() alone reads these as (3, 10), (10, 1) and (1, 2)
            (2, "\u0663,1_0", "'\u0663,1_0'"),
            (2, "1_0,1", "'1_0,1'"),
            (2, "+1,2", "'+1,2'"),
        ],
        ids=["short", "1500-generators", "arabic-indic-digit", "underscore", "plus"],
    )
    def test_bad_line_error_echoes_the_ends_of_a_long_value(
        self, capsys, tmp_path, k, line, want
    ):
        path = self._many_model_file(tmp_path, k)
        err = run_usage_error(capsys, "euler", "--model-file", str(path), "--line", line)
        assert err == f"error: bad --line value {want}\n"
        assert len(err.encode("utf-8")) < 200

    def test_spaces_around_line_values_are_read(self, capsys):
        spaced = run_cli(capsys, "verify-main", "--model", "P1xP1", "--line", " -3 , 2 ")
        assert spaced == run_cli(capsys, "verify-main", "--model", "P1xP1", "--line=-3,2")
        assert spaced[0] == 0


class TestPicard:
    def test_preset_mumford_goal_holds(self, capsys):
        code, obj = run_json(
            capsys, "picard", "--preset", "mumford", "--goal", "l2 = 13*l1"
        )
        assert code == 0
        assert obj["derivable"] is True

    def test_preset_mumford_goal_fails(self, capsys):
        code, obj = run_json(
            capsys, "picard", "--preset", "mumford", "--goal", "l2 = 12*l1"
        )
        assert code == 1
        assert obj["derivable"] is False

    def test_elliptic_torsion(self, capsys):
        code, obj = run_json(
            capsys, "picard", "--preset", "elliptic", "--goal", "12*l1 = 0"
        )
        assert code == 0 and obj["derivable"]

    def test_custom_symbols_and_relations(self, capsys):
        code, obj = run_json(
            capsys,
            "picard",
            "--symbols",
            "a,b",
            "--relations",
            "2*a = 0; b = a",
            "--goal",
            "4*a = 0",
        )
        assert code == 0 and obj["derivable"]

    def test_needs_preset_or_symbols(self, capsys):
        run_usage_error(capsys, "picard", "--goal", "l1 = 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--symbols", "a,b", "--relations", "a =", "--goal", "a"],
            ["--symbols", "a,b", "--relations", "2*a = 0; = b", "--goal", "a"],
            ["--preset", "mumford", "--goal", ""],
        ],
    )
    def test_empty_side_is_a_usage_error(self, capsys, argv):
        # read as 0, the empty side of "a =" would derive the goal a
        err = run_usage_error(capsys, "picard", *argv)
        assert err.startswith("error: empty side in ")

    @pytest.mark.parametrize(
        "relations, message",
        [
            ("a b = 0", "missing operator before 'b'"),
            ("a 2 b = 0", "missing operator before '2'"),
            ("\u0663 a = 0", "unexpected token '\u0663'"),
        ],
    )
    def test_term_where_an_operator_belongs_is_a_usage_error(self, capsys, relations, message):
        # read as a + b = 0, "a b = 0" would derive the goal a = -b
        err = run_usage_error(
            capsys, "picard", "--symbols", "a,b", "--relations", relations, "--goal", "a = -b"
        )
        assert err.startswith(f"error: {message} in ")


class TestRewrite:
    def test_chain_passes(self, capsys):
        code, obj = run_json(capsys, "rewrite", "--chain", "invfunc-a-k")
        assert code == 0
        assert obj["ok"] is True and obj["endpoint_ok"] is True

    def test_chain_higher_dim(self, capsys):
        code, obj = run_json(capsys, "rewrite", "--chain", "invfunc-l-p", "--dim", "3")
        assert code == 0 and obj["ok"]

    def test_corrupt_step_six(self, capsys):
        code, obj = run_json(
            capsys, "rewrite", "--chain", "invfunc-a-k", "--corrupt", "6"
        )
        assert code == 1
        assert obj["failed_step"] == 6
        assert obj["steps"][-1]["witness"]

    @pytest.mark.parametrize("chain", ["invfunc-a-k", "invfunc-l-p"])
    def test_dim_ceiling(self, capsys, monkeypatch, chain):
        cap = kexpr.MAX_CHAIN_DIM
        make_script = "script_" + chain.replace("-", "_")
        dims = []

        def reached(dim):
            dims.append(dim)
            raise _Reached

        monkeypatch.setattr(kexpr, make_script, reached)  # the chain's construction
        with pytest.raises(_Reached):
            main(["rewrite", "--chain", chain, "--dim", str(cap)])
        assert dims == [cap]
        dims.clear()
        for dim in (cap + 1, 10**12):
            started = time.perf_counter()
            err = run_usage_error(capsys, "rewrite", "--chain", chain, "--dim", str(dim))
            assert time.perf_counter() - started < 0.5
            assert f"MAX_CHAIN_DIM = {cap}" in err
        assert dims == []

    def test_corrupt_out_of_range(self, capsys):
        run_usage_error(capsys, "rewrite", "--chain", "multadd-d1", "--corrupt", "99")

    def test_script_file(self, capsys):
        path = os.path.join(os.path.dirname(kexpr.__file__), "data", "chain_multadd_d1.json")
        code, rep = run_json(capsys, "rewrite", "--script", path)
        assert code == 0 and rep["ok"]

    def test_missing_script_file_is_usage_error(self, capsys, tmp_path):
        err = run_usage_error(capsys, "rewrite", "--script", str(tmp_path / "missing.json"))
        assert "missing.json" in err

    def test_too_deeply_nested_script_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        run_usage_error(capsys, "rewrite", "--script", str(path))

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
    def test_nesting_cap(self, capsys, tmp_path, depth):
        # (lam (dual ... (dual A) ...) 1) nests depth forms: lam and depth - 1 duals
        expr = "(lam " + "(dual " * (depth - 1) + "A" + ")" * (depth - 1) + " 1)"
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"start": expr, "end": expr, "steps": []}), encoding="utf-8")
        if depth <= MAX_NESTING:
            code, rep = run_json(capsys, "rewrite", "--script", str(path))
            assert code == 0 and rep["ok"]
        else:
            err = run_usage_error(capsys, "rewrite", "--script", str(path))
            assert "nests deeper" in err and "Traceback" not in err

    @pytest.mark.parametrize("width", [16, 17])
    def test_wide_tensor_of_sums_is_usage_error(self, capsys, tmp_path, width):
        # a tensor of n two-term sums distributes 2^n monomials
        body = " ".join(f"(lin 1 A{i} 1 B{i})" for i in range(width))
        expr = f"(lam (* {body}) 1)"
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"start": expr, "end": expr, "steps": []}), encoding="utf-8")
        t0 = time.perf_counter()
        err = run_usage_error(capsys, "rewrite", "--script", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert f"MAX_MONOMIALS = {kexpr.MAX_MONOMIALS}" in err

    def test_monomial_cap_leaves_shipped_chains_unchanged(self, capsys, monkeypatch):
        data = os.path.join(os.path.dirname(kexpr.__file__), "data")
        runs = [["--script", os.path.join(data, f)] for f in sorted(os.listdir(data))]
        for name in kexpr.builtin_chain_names():
            steps = len(kexpr.get_chain(name).steps)
            runs.append(["--chain", name])
            runs += [["--chain", name, "--corrupt", str(k)] for k in range(1, steps + 1)]
        capped = [run_cli(capsys, "rewrite", *argv) for argv in runs]
        monkeypatch.setattr(kexpr, "MAX_MONOMIALS", float("inf"))
        assert capped == [run_cli(capsys, "rewrite", *argv) for argv in runs]
        assert {code for code, _out in capped} == {0, 1}

    # start, one step (axiom, args), and the expected display, which is also the end
    CANCELLING = {
        "zero-exponent": ("(lam A 1)", "cancel", {}, "(prod (lam A 1) (lam B 0))"),
        "subst-cancels": (
            "(lam (lin 1 A -1 B) 1)", "iso-subst", {"src": "B", "dst": "A"}, "(prod)"
        ),
        "descent-cancels": (
            "(lam (lin 1 A -1 B) 1)",
            "quotient-descent",
            {"map": {"A": ["C", 0, 1], "B": ["C", 0, 1]}},
            "(prod)",
        ),
        "zero-coefficient": ("(lam (lin 0 A) 1)", "cancel", {}, "(lam O 0)"),
    }

    @staticmethod
    def _one_step_script(tmp_path, start, axiom, args, expected):
        path = tmp_path / "one-step.json"
        step = {"axiom": axiom, "position": 0, "args": args, "expected": expected}
        obj = {"start": start, "end": expected, "steps": [step]}
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("case", sorted(CANCELLING))
    def test_cancelling_rewrites_verify(self, capsys, tmp_path, case):
        # lambda(0) and lambda(F)^0 are trivial, so each script holds
        path = self._one_step_script(tmp_path, *self.CANCELLING[case])
        code, rep = run_json(capsys, "rewrite", "--script", path)
        assert code == 0 and rep["ok"] is True and rep["endpoint_ok"] is True

    def test_cancelling_rewrite_with_a_wrong_target_fails(self, capsys, tmp_path):
        path = self._one_step_script(
            tmp_path, "(lam (lin 1 A -1 B) 1)", "iso-subst", {"src": "B", "dst": "C"}, "(prod)"
        )
        code, rep = run_json(capsys, "rewrite", "--script", path)
        assert code == 1
        assert rep["failed_step"] == 1 and rep["reason"] == "display mismatch"

    COLLAPSE = {"restrict": "iM", "binder": "Nt", "base": "bM"}

    # start, one step (axiom, args), and a fragment of the one error line
    MALFORMED = {
        "outside-fragment": (
            "(lam (sym 2 (lin 1 A 1 B)) 1)", "cancel", {}, "Sym of a formal sum"
        ),
        "args-not-an-object": ("(lam A 1)", "cancel", [1], "malformed script"),
        "subst-without-dst": ("(lam A 1)", "iso-subst", {"src": "A"}, "axiom 'iso-subst'"),
        "short-descent-image": (
            "(lam A 1)", "ideal-descent", {"map": {"A": ["B", 0]}}, "axiom 'ideal-descent'"
        ),
        "others-not-a-list": (
            "(lam A 1)",
            "multadd-split",
            {"a": "A", "b": "B", "others": 5},
            "axiom 'multadd-split'",
        ),
        "non-string-atom": (
            "(lam A 1)", "iso-subst", {"src": "A", "dst": 5}, "atom names must be strings"
        ),
        "collapse-k-200": (
            "(lam A 1)", "cartier-collapse", dict(COLLAPSE, k=200), f"MAX_CHAIN_DIM = {kexpr.MAX_CHAIN_DIM}"
        ),
        "collapse-k-100000": (
            "(lam A 1)", "cartier-collapse", dict(COLLAPSE, k=100000), f"MAX_CHAIN_DIM = {kexpr.MAX_CHAIN_DIM}"
        ),
        "collapse-k-negative": (
            "(lam A 1)", "cartier-collapse", dict(COLLAPSE, k=-3), f"MAX_CHAIN_DIM = {kexpr.MAX_CHAIN_DIM}"
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_step_is_usage_error(self, capsys, tmp_path, case):
        start, axiom, args, fragment = self.MALFORMED[case]
        path = self._one_step_script(tmp_path, start, axiom, args, start)
        started = time.perf_counter()
        err = run_usage_error(capsys, "rewrite", "--script", path)
        assert time.perf_counter() - started < 1.0
        assert err.count("\n") == 1 and "Traceback" not in err
        assert fragment in err

    def test_script_numeral_past_the_int_digit_limit_is_usage_error(self, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts text of any length to int")
        start = f"(lam A {'1' * (limit + 1)})"
        path = self._one_step_script(tmp_path, start, "cancel", {}, start)
        err = run_usage_error(capsys, "rewrite", "--script", path)
        assert err == f"error: a numeral of {limit + 1} digits is too long\n"

    def test_script_error_inside_an_axiom_passes_through(self, capsys, tmp_path):
        wide = "(* " + " ".join(f"(lin 1 A{i} 1 B{i})" for i in range(17)) + ")"
        args = {"map": {"A": ["B", 0, 1]}, "multiplier": {"expr": wide}}
        path = self._one_step_script(tmp_path, "(lam A 1)", "ideal-descent", args, "(lam A 1)")
        err = run_usage_error(capsys, "rewrite", "--script", path)
        assert err.startswith("error: a tensor product would distribute")
        assert "axiom" not in err

    def test_collapse_k_ceiling(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(kexpr, "MAX_CHAIN_DIM", 3)

        def collapse(k):
            args = dict(self.COLLAPSE, k=k)
            return self._one_step_script(tmp_path, "(lam A 1)", "cartier-collapse", args, "(lam A 1)")

        code, rep = run_json(capsys, "rewrite", "--script", collapse(3))
        assert code == 1 and rep["reason"] == "factor is not the pushed polynomial block"
        err = run_usage_error(capsys, "rewrite", "--script", collapse(4))
        assert "MAX_CHAIN_DIM = 3" in err

    def test_collapse_refuses_an_argument_it_does_not_read(self, capsys, tmp_path):
        # the shipped invfunc-l-p script, its collapse step given a "pulled" atom
        path = os.path.join(os.path.dirname(kexpr.__file__), "data", "chain_invfunc_l_p.json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        (step,) = [s for s in obj["steps"] if s["axiom"] == "cartier-collapse"]
        step["args"]["pulled"] = "zz"
        edited = tmp_path / "pulled.json"
        edited.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(capsys, "rewrite", "--script", str(edited))
        assert "restrict, binder, base and k" in err

    def test_every_axiom_refuses_an_argument_it_does_not_read(self, capsys, tmp_path):
        # the shipped invfunc-l-p script with an unread key on its cancel
        # step (which reads none) and on its iso-subst step
        path = os.path.join(os.path.dirname(kexpr.__file__), "data", "chain_invfunc_l_p.json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        for step in obj["steps"]:
            if step["axiom"] == "cancel":
                step["args"] = {"zz": 1}
            elif step["axiom"] == "iso-subst":
                step["args"]["extra"] = "zz"
        edited = tmp_path / "extra.json"
        edited.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(capsys, "rewrite", "--script", str(edited))
        assert err == "error: axiom 'cancel' takes no arguments; got 'zz'\n"
        (cancel,) = [s for s in obj["steps"] if s["axiom"] == "cancel"]
        cancel["args"] = {}
        edited.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(capsys, "rewrite", "--script", str(edited))
        assert err == "error: axiom 'iso-subst' takes only src and dst; got 'extra'\n"

    @pytest.mark.parametrize(
        "obj",
        [
            {"start": "(lam A 1)", "end": "A", "steps": []},
            {
                "start": "(lam A 1)",
                "end": "(lam A 1)",
                "steps": [{"axiom": "cancel", "position": float("inf"), "expected": "(lam A 1)"}],
            },
        ],
        ids=["sheaf-end", "infinite-position"],
    )
    def test_malformed_script_fields_are_usage_errors(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        err = run_usage_error(capsys, "rewrite", "--script", str(path))
        assert err.count("\n") == 1

    def test_non_string_script_name_is_a_label(self, capsys, tmp_path):
        path = tmp_path / "named.json"
        obj = {"name": [1], "start": "(lam A 1)", "end": "(lam A 1)", "steps": []}
        obj["steps"].append({"axiom": "cancel", "position": 0, "expected": "(lam A 1)"})
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, rep = run_json(capsys, "rewrite", "--script", str(path), "--corrupt", "1")
        assert code == 1 and rep["name"] == "[1]#corrupt1" and rep["failed_step"] == 1

    @pytest.mark.parametrize("dim", ["5", "0", "-3"])
    def test_multadd_chain_exists_only_at_dim_one(self, capsys, dim):
        started = time.perf_counter()
        err = run_usage_error(capsys, "rewrite", "--chain", "multadd-d1", f"--dim={dim}")
        assert time.perf_counter() - started < 1.0
        assert err.count("\n") == 1 and "'multadd-d1'" in err

    # one step, its start and expected display, and the field the error names;
    # before script numbers were checked, each value was coerced to an integer
    NON_INTEGERS = {
        "position-float": ("cancel", 0.9, {}, "(lam A 1)", "step position"),
        "position-bool": ("cancel", True, {}, "(prod (lam A 1) (lam A 1))", "step position"),
        "twist-float": ("ideal-descent", 0, {"map": {"A": ["B", 0.5, 1]}}, "(lam B 1)", "map twist"),
        "sign-string": ("ideal-descent", 0, {"map": {"A": ["B", 0, "1"]}}, "(lam B 1)", "map sign"),
        "collapse-k-float": (
            "cartier-collapse", 0, dict(COLLAPSE, k=1.0), "(lam A 1)", "cartier-collapse k"
        ),
    }

    @pytest.mark.parametrize("case", sorted(NON_INTEGERS))
    def test_script_numbers_must_be_integers(self, capsys, tmp_path, case):
        axiom, position, args, expected, field = self.NON_INTEGERS[case]
        start = "(prod (lam A 1) (lam A 1))" if case == "position-bool" else "(lam A 1)"
        step = {"axiom": axiom, "position": position, "args": args, "expected": expected}
        path = tmp_path / "numbers.json"
        obj = {"start": start, "end": expected, "steps": [step]}
        path.write_text(json.dumps(obj), encoding="utf-8")
        started = time.perf_counter()
        err = run_usage_error(capsys, "rewrite", "--script", str(path))
        assert time.perf_counter() - started < 1.0
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{field} must be an integer" in err

    def test_needs_chain_or_script(self, capsys):
        run_usage_error(capsys, "rewrite")

    def test_unknown_chain_rejected_by_parser(self, capsys):
        run_usage_error(capsys, "rewrite", "--chain", "bogus")


class TestQuotient:
    def test_free(self, capsys):
        code, obj = run_json(capsys, "quotient", "--vars", "x:1:odd")
        assert code == 0
        assert obj["verdict"] == "FREE"
        assert obj["basis"] == ["1", "x"]
        assert obj["cartier"] is True
        assert "conormal_degree_zero" not in obj

    def test_not_free_is_conclusive(self, capsys):
        code, obj = run_json(capsys, "quotient", "--vars", "x:1:odd,y:1:odd")
        assert code == 0
        assert obj["verdict"] == "NOT-FREE"
        assert obj["cartier"] is False

    def test_inconclusive_exits_one(self, capsys):
        code, obj = run_json(
            capsys, "quotient", "--vars", "x:30:odd,y:30:odd", "--bound", "40"
        )
        assert code == 1
        assert obj["verdict"] == "INCONCLUSIVE"

    def test_bad_vars(self, capsys):
        run_usage_error(capsys, "quotient", "--vars", "x:one:odd")

    def test_degree_must_be_ascii_digits(self, capsys):
        # int() alone reads "1_0" as 10
        err = run_usage_error(capsys, "quotient", "--vars", "x:1_0:odd")
        assert "bad degree" in err

    def test_bound_ceiling(self, capsys):
        code, obj = run_json(capsys, "quotient", "--vars", "x:1:odd", "--bound", str(MAX_BOUND))
        assert code == 0 and obj["bound"] == MAX_BOUND
        # cap + 1 first: without the check it fails here at a small bound
        for bound in (MAX_BOUND + 1, 10**12):
            err = run_usage_error(capsys, "quotient", "--vars", "x:1:odd", "--bound", str(bound))
            assert f"MAX_BOUND = {MAX_BOUND}" in err

    def test_many_odd_variables_stay_fast(self, capsys):
        spec = ",".join(f"x{i}:100:odd" for i in range(40))
        start = time.perf_counter()
        code, obj = run_json(capsys, "quotient", "--vars", spec, "--bound", "40")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and obj["verdict"] == "INCONCLUSIVE"

    def test_variable_ceiling(self, capsys):
        spec = ",".join(f"x{i}:1:even" for i in range(MAX_VARIABLES))
        code, obj = run_json(capsys, "quotient", "--vars", spec)
        assert code == 0 and len(obj["variables"]) == MAX_VARIABLES
        for n in (MAX_VARIABLES + 1, 5000):
            spec = ",".join(f"x{i}:1:odd" for i in range(n))
            start = time.perf_counter()
            err = run_usage_error(capsys, "quotient", "--vars", spec, "--bound", str(MAX_BOUND))
            assert time.perf_counter() - start < 1.0
            assert f"MAX_VARIABLES = {MAX_VARIABLES}" in err


class TestVerifyAll:
    def test_max_dim_one(self, capsys):
        code, out = run_cli(capsys, "verify-all", "--max-dim", "1")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        summary = rows[-1]
        assert summary["overall"] is True
        assert summary["failed"] == []
        names = [r["name"] for r in rows[:-1]]
        assert names[0] == "coeff-tables"
        assert names[-1] == "quotient-verdicts"
        assert "universal-defect-d1" in names
        assert summary["checks"] == len(names)
        assert all(r["ok"] for r in rows[:-1])
        assert all(r["law"] for r in rows[:-1])

    def test_deterministic_output(self, capsys):
        _, one = run_cli(capsys, "verify-all", "--max-dim", "1")
        _, two = run_cli(capsys, "verify-all", "--max-dim", "1")
        assert one == two

    @pytest.mark.parametrize("jobs", ["2", "0", "-3"])
    def test_jobs_flag_is_usage_error(self, capsys, jobs):
        # verify-all has one sequential path and no --jobs option
        err = run_usage_error(capsys, "verify-all", "--max-dim", "1", "--jobs", jobs)
        assert f"unrecognized arguments: --jobs {jobs}" in err

    def test_import_starts_no_process_pool_machinery(self):
        probe = (
            "import sys, detlam.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("max_dim", ["0", "-1"])
    def test_max_dim_below_one_is_usage_error(self, capsys, max_dim):
        run_usage_error(capsys, "verify-all", "--max-dim", max_dim)

    @pytest.mark.parametrize("max_dim", [cli.MAX_VERIFY_DIM + 1, 10**12])
    def test_max_dim_above_the_cap_is_usage_error(self, capsys, monkeypatch, max_dim):
        built = []
        monkeypatch.setattr(cli, "_build_registry", built.append)
        err = run_usage_error(capsys, "verify-all", "--max-dim", str(max_dim))
        assert f"MAX_VERIFY_DIM = {cli.MAX_VERIFY_DIM}" in err
        assert built == []  # rejected before any check is registered

    def test_max_dim_at_the_cap_is_accepted(self, capsys, monkeypatch):
        assert cli.MAX_VERIFY_DIM == 4
        assert len(cli._build_registry(4)) == 17  # every check, none run here
        built = []
        monkeypatch.setattr(cli, "_build_registry", lambda d: built.append(d) or [])
        code, out = run_cli(capsys, "verify-all", "--max-dim", "4")
        assert code == 0 and built == [4]
        assert json.loads(out) == {"overall": True, "checks": 0, "failed": []}

    def test_crashed_check_is_reported_as_error(self, capsys, monkeypatch):
        _, clean = run_cli(capsys, "verify-all", "--max-dim", "1")

        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_chk_quotient", crash)
        code, out = run_cli(capsys, "verify-all", "--max-dim", "1")
        assert code == 1
        lines, clean_lines = out.splitlines(), clean.splitlines()
        row = json.loads(lines[-2])
        assert row["name"] == "quotient-verdicts"
        assert row["ok"] is False and row["status"] == "error"
        assert row["witness"] == {"error": "RuntimeError: boom"}
        assert lines[:-2] == clean_lines[:-2]  # rows of the checks that ran
        assert json.loads(lines[-1]) == {
            "overall": False,
            "checks": len(lines) - 1,
            "failed": ["quotient-verdicts"],
        }
        code, out = run_cli(capsys, "verify-all", "--max-dim", "1", "--text")
        assert code == 1
        assert "ERROR  quotient-verdicts" in out

    @pytest.mark.parametrize(
        "variables,case",
        [((("x", 1, 1),), "k[x] odd"), ((("x", 1, 1), ("y", 1, 0)), "k[x,y] y even")],
    )
    def test_quotient_check_reads_the_ratio(self, monkeypatch, variables, case):
        # a FREE verdict whose ratio is not 1 + t fails the row
        assert cli._chk_quotient() is None
        real = quotientlab.flatness_verdict

        def wrong_ratio(algebra, bound=quotientlab.DEFAULT_BOUND):
            rep = real(algebra, bound)
            if algebra.variables != variables:
                return rep
            ratio = (1,) + (0,) * bound
            return quotientlab.FlatnessReport(
                rep.verdict, rep.bound, ratio, rep.basis, rep.witness, rep.certified, rep.note
            )

        monkeypatch.setattr(quotientlab, "flatness_verdict", wrong_ratio)
        assert cli._chk_quotient() == {"case": case, "ratio": [1] + [0] * 40}

    def test_coeff_tables_check_uses_the_binomial_route(self, monkeypatch):
        monkeypatch.setattr(cli, "binomial_expansion_check", lambda d: d != 3)
        assert cli._chk_coeff_tables() == {
            "dim": 3,
            "error": "binomial expansion disagrees with the table",
        }

    def test_family_rows_fail_with_the_first_failing_monomial(self, capsys, monkeypatch):
        # +1 on the twist-2 Sym^1 coefficient of each model's own d breaks the
        # identity on every family model. Only the all-lines verdict reads the
        # moved main_combo, so exactly the three rows that run it fail
        real = grrcheck.verify_main_all_lines
        real_combo = grrcheck.main_combo

        def moved_combo(d, allow_degenerate=False):
            combo = list(real_combo(d, allow_degenerate))
            combo[2] = grrcheck.ComboTerm(combo[2].coeff + 1, combo[2].twist, combo[2].sym)
            return combo

        def moved(model):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(grrcheck, "main_combo", moved_combo)
                return real(model)

        monkeypatch.setattr(grrcheck, "verify_main_all_lines", moved)
        code, out = run_cli(capsys, "verify-all", "--max-dim", "1")
        assert code == 1
        rows = {row["name"]: row for row in map(json.loads, out.splitlines()[:-1])}
        first = {"monomial": {"s": 1}, "coefficient": "-2", "failing_monomials": 2}
        assert rows["family-p1xp1"]["witness"] == first
        assert rows["family-hirzebruch"]["witness"] == {
            "e": 0,
            "monomial": {"f": 1},
            "coefficient": "-2",
            "failing_monomials": 2,
        }
        assert rows["family-p2xp1"]["witness"] == first
        assert json.loads(out.splitlines()[-1])["failed"] == [
            "family-p1xp1",
            "family-hirzebruch",
            "family-p2xp1",
        ]

    def test_pass_does_counted_work(self, capsys, monkeypatch):
        # one model check, six all-lines verdicts, 34 Todd classes, one
        # rewrite per distinct chain step (21), 8 built-in models, 81
        # series products and 43 exps per pass: a change that multiplies
        # the work fails here, with no wall clock. Each ducrot row reads its
        # control from its own product chain, an all-lines verdict makes
        # one product per twist, and the model check pairs ch(L) itself
        # with G_0 = 1 (n products, not n + 2). A built-in model's tangent
        # class is read from its term list by the validating constructor,
        # once per model, with no series product; generators, c_1(L) and
        # the all-lines monomials are written on packed keys, so no other
        # series goes through that constructor, and no corrupted twin's
        # witness is rendered, since verify-all never prints it. The second
        # pass does the same work: nothing is kept between passes.
        counts = {}
        for owner, name in (
            (grrcheck, "verify_main_on_model"),
            (grrcheck, "verify_main_all_lines"),
            (grrcheck, "todd_from_chern"),
            (kexpr, "_apply_axiom"),
            (kexpr, "render_canonical"),
            (chowmodel.ChowModel, "__init__"),
            (exactalg.TruncatedSeries, "__init__"),
            (exactalg.TruncatedSeries, "__mul__"),
            (exactalg.TruncatedSeries, "exp"),
        ):
            label = f"{owner.__name__.rpartition('.')[2]}.{name}"
            counts[label] = 0
            real = getattr(owner, name)

            def counted(*args, _real=real, _label=label, **kwargs):
                counts[_label] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for _ in range(2):
            counts.update(dict.fromkeys(counts, 0))
            code, _ = run_cli(capsys, "verify-all", "--max-dim", "4")
            assert code == 0
            assert counts == {
                "grrcheck.verify_main_on_model": 1,
                "grrcheck.verify_main_all_lines": 6,
                "grrcheck.todd_from_chern": 34,
                "kexpr._apply_axiom": 21,
                "kexpr.render_canonical": 0,
                "ChowModel.__init__": 8,
                "TruncatedSeries.__init__": 8,
                "TruncatedSeries.__mul__": 81,
                "TruncatedSeries.exp": 43,
            }

    def test_pass_builds_each_hirzebruch_surface_once(self, capsys, monkeypatch):
        # family-hirzebruch and mumford-ratio read F1-F3 from one table
        built = []
        real = cli.model_hirzebruch
        monkeypatch.setattr(cli, "model_hirzebruch", lambda e: built.append(e) or real(e))
        code, _ = run_cli(capsys, "verify-all", "--max-dim", "1")
        assert code == 0
        assert sorted(built) == [0, 1, 2, 3]

    def test_text_mode(self, capsys):
        code, out = run_cli(capsys, "verify-all", "--max-dim", "1", "--text")
        assert code == 0
        assert "PASS  coeff-tables" in out
        assert out.strip().splitlines()[-1].startswith("PASS:")


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as after ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that stops early is not a failed check."""

    @pytest.mark.parametrize(
        "argv, lines",
        [(["verify-all"], 1), (["universal", "--dim", "4"], 1), (["universal", "--dim", "4"], 0)],
        ids=["verify-all-after-one-line", "universal-after-one-line", "universal-before-any-line"],
    )
    def test_pipe_closed_early(self, argv, lines):
        proc = subprocess.Popen(
            [sys.executable, "-m", "detlam.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "Exception ignored" not in err
        if argv == ["verify-all"]:
            assert "verify-all: 17 checks in" in err  # every check still ran

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["universal", "--dim", "2"], 0),
            (["ducrot", "--dim", "2", "--factors", "3"], 1),
            (["verify-all", "--max-dim", "1", "--text"], 0),
        ],
        ids=["universal", "ducrot-short", "verify-all"],
    )
    def test_exit_code_is_the_runs_own(self, capsys, monkeypatch, argv, want):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(argv) == want
        err = capsys.readouterr().err
        if argv[0] == "verify-all":
            assert "checks in" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        run_usage_error(capsys, "bogus")

    # every integer flag, each with a value int() alone would read: a
    # non-ASCII digit (3 or 1), an underscore (10), a plus sign and a space
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["coeffs"], "--dim", "\u0661"),
            (["polyid"], "--max-k", "1_0"),
            (["universal"], "--dim", "+1"),
            (["ducrot", "--dim", "2"], "--factors", " 3"),
            (["euler", "--model", "Pn", "--line", "1"], "--n", "\u0663"),
            (["c1lambda", "--model", "PnxPm", "--n", "1", "--line", "1,1"], "--m", "1_0"),
            (["c1lambda", "--model", "Hirzebruch", "--line", "1,1"], "--e", "+1"),
            (["rewrite", "--chain", "multadd-d1"], "--dim", "\u0661"),
            (["rewrite", "--chain", "multadd-d1"], "--corrupt", "1_0"),
            (["quotient", "--vars", "x:1:odd"], "--bound", "6_0"),
            (["verify-all"], "--max-dim", "+1"),
        ],
        ids=[
            "coeffs-dim", "polyid-max-k", "universal-dim", "ducrot-factors", "n", "m", "e",
            "rewrite-dim", "rewrite-corrupt", "quotient-bound", "verify-all-max-dim",
        ],
    )
    def test_integer_flag_outside_ascii_digits_is_usage_error(self, capsys, argv, flag, value):
        err = run_usage_error(capsys, *argv, flag, value)
        assert f"error: argument {flag}: not an integer: {value!r}" in err

    def test_no_arguments(self, capsys):
        run_usage_error(capsys)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "detlam.cli", "coeffs", "--dim", "2"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "31" in proc.stdout

    def test_package_entry_point(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "detlam", "coeffs", "--dim", "1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        code, out = run_cli(capsys, "coeffs", "--dim", "1")
        assert proc.returncode == code == 0
        assert proc.stdout == out


# ----------------------------------------------------------------------
# the exit-code contract under drawn argv


def _ints(ceiling):
    """A small value, the ceiling + 1 or 10**9: every drawn run is either
    cheap or refused before its work starts."""
    return st.one_of(st.integers(-3, 3), st.sampled_from([ceiling + 1, 10**9])).map(str)


_JUNK = st.text(alphabet="xyl012-9:,;=*.+_ oddevn()", max_size=12)


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """Paths a user might pass as ``--model-file`` or ``--script``: missing,
    a directory, not JSON, JSON of the wrong shape, too deep, too large, the
    malformed model files, and one valid model file."""
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "not-json.json": "{not json",
        "list.json": "[1, 2]",
        "empty-object.json": "{}",
        "deep.json": "[" * 100_000,
        "huge-dim.json": json.dumps({"total_dim": 10**9, "generators": [["h", 1]]}),
        "steps.json": json.dumps({"name": "s", "steps": [{"rule": "nope"}]}),
        "p1xp1.json": json.dumps(model_pn_x_pm(1, 1).to_obj()),
        **{f"{case}.json": json.dumps(obj) for case, obj in MALFORMED_MODELS.items()},
    }
    for name, text in contents.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in contents] + [str(root / "missing.json"), str(root)]


@st.composite
def _fuzz_argv(draw, paths):
    def ints(ceiling):
        return draw(_ints(ceiling))

    def opt():
        return draw(st.booleans())

    path = st.sampled_from(paths)
    line = st.lists(st.integers(-3, 3) | st.just(10**9), min_size=1, max_size=3).map(
        lambda vs: ",".join(map(str, vs))
    )
    command = draw(st.sampled_from(
        ["coeffs", "polyid", "universal", "ducrot", "c1lambda", "verify-main",
         "euler", "picard", "rewrite", "quotient", "verify-all"]
    ))
    argv = [command]
    if command == "coeffs":
        argv += ["--dim", ints(combinat.MAX_COEFF_DIM)]
    elif command == "polyid":
        argv += ["--max-k", ints(combinat.MAX_POLYID_K)]
    elif command == "universal":
        argv += ["--dim", ints(grrcheck.MAX_UNIVERSAL_DIM)]
        argv += ["--combo", draw(st.sampled_from(["main", "deligne"]))]
        argv += ["--allow-degenerate"] if opt() else []
    elif command == "ducrot":
        argv += ["--dim", ints(grrcheck.MAX_DUCROT_DIM)]
        argv += ["--factors", ints(grrcheck.MAX_DUCROT_FACTORS)] if opt() else []
    elif command in ("c1lambda", "verify-main", "euler"):
        if opt():
            argv += ["--model-file", draw(path)]
        else:
            argv += ["--model", draw(st.sampled_from(
                ["Pn", "PnxPm", "Hirzebruch", "P2", "P1xP1", "P33", "P1xP40", "Px", "Q3"]
            ))]
            for flag in ("--n", "--m", "--e"):
                argv += [flag, ints(chowmodel.MAX_MODEL_DIM)] if opt() else []
        argv += ["--line", draw(line | _JUNK)]
    elif command == "picard":
        if opt():
            argv += ["--preset", draw(st.sampled_from(["mumford", "elliptic"]))]
        else:
            argv += ["--symbols", draw(st.just("a,b") | _JUNK)]
            argv += ["--relations", draw(st.just("2*a = 0; b = a") | _JUNK)]
        goal = st.builds("{}*l1 = {}*l2".format, _ints(0), _ints(0))
        argv += ["--goal", draw(goal | _JUNK)]
    elif command == "rewrite":
        if opt():
            argv += ["--script", draw(path)]
        else:
            argv += ["--chain", draw(st.sampled_from(kexpr.builtin_chain_names()))]
            argv += ["--dim", ints(kexpr.MAX_CHAIN_DIM)]
        step = st.integers(-3, 12).map(str) | st.just(str(10**9))
        argv += ["--corrupt", draw(step)] if opt() else []
    elif command == "quotient":
        spec = st.sampled_from(["x:1:odd", "x:1:odd,y:1:odd", "x:1_0:odd", "x:+2:even", "x:1"])
        argv += ["--vars", draw(spec | _JUNK), "--bound", ints(quotientlab.MAX_BOUND)]
    else:
        argv += ["--max-dim", ints(cli.MAX_VERIFY_DIM)]
    if opt():
        argv.append("--text")
    return argv


# Values a file-content mutation writes: a zero denominator, other strings
# that are no rational, wrong types, signs, sizes and empty containers.
_EDGE_VALUES = ("1/0", "-7/0", "0", "1/2", "x", "", 0, -1, 2, 10**9, 1.5, True, None, [], {}, [[]])


def _mutated(rng, obj):
    """A copy of the JSON value ``obj`` with one node changed: a value
    replaced by an edge value, a list entry or an object key dropped, a list
    entry duplicated, or an edge value appended to a list or under a new key.
    Every node, containers included, is equally likely to be picked."""
    obj = copy.deepcopy(obj)
    slots = []  # (container, index or key) of every value below the root

    def walk(node):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in children:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(obj)
    if not slots:
        return rng.choice(_EDGE_VALUES)
    node, key = rng.choice(slots)
    edge = copy.deepcopy(rng.choice(_EDGE_VALUES))
    kind = rng.choice(["replace", "replace", "drop", "duplicate", "append"])
    if kind == "replace":
        node[key] = edge
    elif kind == "drop":
        del node[key]
    else:
        value = copy.deepcopy(node[key]) if kind == "duplicate" else edge
        if isinstance(node, dict):
            node[f"{key}_{kind}"] = value
        elif kind == "duplicate":
            node.insert(key, value)
        else:
            node.append(value)
    return obj


class TestExitCodeContract:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_drawn_argv_exits_0_1_or_2_without_a_traceback(self, bad_files, data):
        argv = data.draw(_fuzz_argv(bad_files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()

    def test_mutated_file_contents_exit_0_1_or_2_without_a_traceback(self, tmp_path):
        # shipped models' to_obj() and a shipped chain script, each mutated
        # 1-3 times per example under a fixed seed: every command that reads
        # the file must answer with an exit code, never with an exception
        path = str(tmp_path / "mutated.json")
        family = chowmodel.model_hirzebruch(2).to_obj()
        plane = chowmodel.model_pn(2).to_obj()
        data = os.path.join(os.path.dirname(kexpr.__file__), "data", "chain_multadd_d1.json")
        with open(data, encoding="utf-8") as fh:
            script = json.load(fh)
        cases = [
            (family, ["verify-main", "--model-file", path, "--line", "1,-1"]),
            (family, ["c1lambda", "--model-file", path, "--line", "2,1"]),
            (plane, ["euler", "--model-file", path, "--line", "3"]),
            (script, ["rewrite", "--script", path]),
        ] * 100
        rng = random.Random(31)
        rng.shuffle(cases)
        for obj, argv in cases:
            for _ in range(rng.randint(1, 3)):
                obj = _mutated(rng, obj)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} on {json.dumps(obj)} raised {exc!r}")
            assert code in (0, 1, 2), (argv[0], obj)
            assert "Traceback" not in out.getvalue() + err.getvalue()
