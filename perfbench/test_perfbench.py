"""Tests for the benchmark's own answer checkers, input generators and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import math
import os
import random
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from detlam import charclass, chowmodel, cli, exactalg, grrcheck  # noqa: E402
from detlam.quotientlab import FlatnessReport, GradedAlgebra  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import timed_loop  # noqa: E402


# ----------------------------------------------------------------------
# independent answers


def test_closed_form_p1xp1_o11():
    assert workloads.pn_x_p1_lhs_degree(1, 1, 1) == 2


def test_closed_form_p3xp1_o3_minus2():
    assert workloads.pn_x_p1_lhs_degree(3, 3, -2) == -40


@pytest.mark.parametrize("n,a,b", [(1, -3, 2), (2, -2, 3), (2, 0, -1), (3, -1, 1)])
def test_closed_form_matches_detlam(n, a, b):
    model = chowmodel.model_pn_x_pm(n, 1)
    report = grrcheck.verify_main_on_model(model, {"h": a, "s": b})
    assert report.lhs_degree == workloads.pn_x_p1_lhs_degree(n, a, b)


def test_criterion_two_odd_is_not_free():
    assert workloads.expected_flatness(GradedAlgebra.from_spec("x:1:odd,y:1:odd")) == "NOT-FREE"


@pytest.mark.parametrize("spec", ["x:1:odd", "x:1:odd,y:2:even", "x:3:even,y:1:even"])
def test_criterion_at_most_one_odd_is_free(spec):
    assert workloads.expected_flatness(GradedAlgebra.from_spec(spec)) == "FREE"


# ----------------------------------------------------------------------
# failures are counted


def _failed_ratio(source, n):
    res = timed_loop(source, math.inf, max_verdicts=n)
    return len(res["failures"]) / len(res["verdict_s"])


def _fake_report(verdict):
    return FlatnessReport(verdict, 60, (), None, None, False, "")


@pytest.mark.parametrize("fake", ["INCONCLUSIVE", "FREE"])
def test_wrong_or_inconclusive_flatness_raises_failed_ratio(fake):
    def source():
        for v in workloads.QuotientWindow(0).verdicts():
            v.call = lambda: _fake_report(fake)
            yield v

    # Each block has algebras with >= 2 odd variables, so FREE is wrong there.
    assert _failed_ratio(source(), 12) > 0


def test_wrong_lhs_degree_raises_failed_ratio():
    def source():
        for v in workloads.ModelSweep(0).verdicts():
            call = v.call
            v.call = lambda call=call: _shifted(call())
            yield v

    def _shifted(report):
        return dataclasses.replace(report, lhs_degree=report.lhs_degree + 1)

    assert _failed_ratio(source(), 8) > 0


def test_crashing_verdict_is_a_failure():
    def source():
        for v in workloads.QuotientWindow(0).verdicts():
            v.call = lambda: 1 // 0
            yield v

    assert _failed_ratio(source(), 3) == 1.0


def test_timed_loop_scales_every_verdict():
    res = timed_loop(workloads.ModelSweep(2).verdicts(), math.inf, max_verdicts=20)
    assert len(res["scale"]) == len(res["verdict_s"]) == 20
    assert all(f > 0 for f in res["scale"])
    assert len(res["cal_s"]) >= 2 and res["work_s"] > 0 and res["scaled_work_s"] > 0


def test_real_verdicts_pass():
    assert _failed_ratio(workloads.ModelSweep(3).verdicts(), 56) == 0
    assert _failed_ratio(workloads.QuotientWindow(3).verdicts(), 4) == 0


def test_verify_all_checker_rejects_changed_output():
    wl = workloads.VerifyAll(0)
    good = wl.warmup()
    assert good.check(good.call()) is None
    code, out = good.call()
    tampered = out.replace('"ok": true', '"ok": false', 1)
    assert tampered != out
    assert workloads.check_verify_all((code, tampered), wl.reference) is not None
    assert workloads.check_verify_all((1, out), None) is not None


# ----------------------------------------------------------------------
# inputs


def test_algebra_block_is_balanced():
    block = workloads.algebra_block(random.Random(7))
    assert Counter(len(a.variables) for a in block) == {1: 3, 2: 3, 3: 3, 4: 3}
    slots = Counter((d, p) for a in block for _n, d, p in a.variables)
    assert slots == {c: 5 for c in workloads.VARIABLE_CHOICES}


@pytest.mark.parametrize("cls", [workloads.ModelSweep, workloads.QuotientWindow])
def test_same_seed_same_inputs(cls):
    def take(seed):
        gen = cls(seed).verdicts()
        return [next(gen).input for _ in range(2 * cls.cycle)]

    assert take(5) == take(5)
    assert take(5) != take(6)


def test_model_sweep_reuse_share():
    gen = workloads.ModelSweep(1).verdicts()
    facts = Counter(next(gen).facts for _ in range(workloads.ModelSweep.cycle))
    desc = workloads.ModelSweep.describe(facts)
    assert desc["reuse_share"] == 0.875
    assert set(desc["model_mix"].values()) == {8}


# ----------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_lookup_site_and_restores():
    originals = (
        charclass.todd_from_chern,
        grrcheck.todd_from_chern,
        cli.pk_identity_check,
        exactalg.TruncatedSeries.__mul__,
        exactalg.TruncatedSeries.__rmul__,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert grrcheck.todd_from_chern is charclass.todd_from_chern
        assert grrcheck.todd_from_chern is not originals[1]
        assert cli.pk_identity_check is not originals[2]
        assert exactalg.TruncatedSeries.__rmul__ is exactalg.TruncatedSeries.__mul__
        assert exactalg.TruncatedSeries.__mul__ is not originals[3]
    finally:
        tracer.uninstall()
    assert (
        charclass.todd_from_chern,
        grrcheck.todd_from_chern,
        cli.pk_identity_check,
        exactalg.TruncatedSeries.__mul__,
        exactalg.TruncatedSeries.__rmul__,
    ) == originals


def test_traced_verdict_counts_and_self_time(tmp_path):
    tracer = Tracer()
    model = chowmodel.model_pn_x_pm(1, 1)
    tracer.install()
    try:
        tracer.trace_id = 0
        tracer.span("verdict", lambda: grrcheck.verify_main_on_model(model, {"h": 1, "s": 1}))
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["grrcheck.verify_main_on_model"]["calls"] == 1
    # d = 1: one lhs degree plus three right-hand rows, one Todd class each.
    assert tracer.calls_under("charclass.todd_from_chern", "grrcheck.verify_main_on_model") == 4
    assert "exactalg.inverse" not in spans
    for rec in spans.values():
        assert 0 <= rec["self_ms"] <= rec["ms"] + 1e-9
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(tracer.span_start)
    assert json.loads(lines[1])[3] == "verdict"


def test_per_layer_metrics_cover_the_declared_list():
    tracer = Tracer()
    empty = {"verdicts": 1, "scaled_work_s": 1.0}
    metrics = layers.per_layer_metrics(tracer, empty, empty)
    assert list(metrics) == [name for name, _u, _b in layers.PER_LAYER]


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code


def test_benchmark_json_matches_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
