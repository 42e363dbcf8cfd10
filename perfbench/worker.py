"""One fresh benchmark process: set up one workload, then optionally time it.

Started by ``run.py``; not meant to be run by hand. Protocol on stdout:

* ``READY <json>`` once the first, untimed verdict has been made and checked
  (the parent times set-up from process start to this line);
* ``CAL <json>``: the calibration unit's time right after set-up;
* with ``--seconds`` > 0, one final ``RESULT <json>`` line after the timed
  phase: per-verdict times and calibration factors, failures, input facts,
  peak RSS and, with ``--trace 1``, the per-layer summary.
"""

import argparse
import array
import json
import math
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the paths above)
from calibration import CAL_EVERY_S, CAL_REF_S, calibration_unit  # noqa: E402


def run_verdict(verdict):
    """Make one verdict; return (seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        result = verdict.call()
    except Exception as exc:  # a crashed verdict is a failed one
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, verdict.check(result)
    except Exception as exc:
        return elapsed, f"checker raised {type(exc).__name__}: {exc}"


def timed_loop(source, seconds: float, max_verdicts=None, cal_start=None) -> dict:
    """Closed loop: one caller, each verdict awaited before the next.

    Verdict times cover only the call. The work time also covers input
    preparation between calls (model-sweep rebuilds each model there) but not
    the calibration units. ``scale`` holds each verdict's calibration factor.
    """
    times, scale, facts, failures = array.array("d"), array.array("d"), Counter(), []
    cal_prev = calibration_unit() if cal_start is None else cal_start
    cals = [cal_prev]
    work = scaled_work = segment = 0.0
    segment_from = 0
    started = time.perf_counter()
    deadline = started + seconds
    last_cal = started

    def close_segment():
        nonlocal cal_prev, work, scaled_work, segment, segment_from, last_cal
        cal = calibration_unit()
        cals.append(cal)
        factor = CAL_REF_S / ((cal_prev + cal) / 2.0)
        scale.extend([factor] * (len(times) - segment_from))
        work += segment
        scaled_work += segment * factor
        cal_prev, segment, segment_from = cal, 0.0, len(times)
        last_cal = time.perf_counter()

    while time.perf_counter() < deadline and (max_verdicts is None or len(times) < max_verdicts):
        t0 = time.perf_counter()
        verdict = next(source)
        elapsed, reason = run_verdict(verdict)
        segment += time.perf_counter() - t0
        times.append(elapsed)
        facts[verdict.facts] += 1
        if reason is not None:
            failures.append(reason)
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            close_segment()
    if segment_from < len(times):
        close_segment()
    return {
        "work_s": work,
        "scaled_work_s": scaled_work,
        "verdict_s": times,
        "scale": scale,
        "cal_s": cals,
        "facts": facts,
        "failures": failures,
    }


def traced_phase(plain_source, traced_source, seconds: float, block: int) -> dict:
    """Pairs of blocks on identical inputs: ``block`` verdicts untraced from
    one stream, then the same ``block`` verdicts traced from its twin (same
    workload, same seed), until ``seconds`` have passed. Spans come from the
    traced blocks only; the untraced ones give the base for the overhead."""
    from tracer import VERDICT_SPAN, Tracer

    tracer = Tracer()
    plain = {"verdicts": 0, "scaled_work_s": 0.0, "failures": [], "facts": Counter()}
    traced = {"verdicts": 0, "scaled_work_s": 0.0, "failures": [], "facts": Counter(), "sites": 0}

    def spanned(verdict):
        call = verdict.call

        def traced_call():
            tracer.trace_id += 1
            return tracer.span(VERDICT_SPAN, call)

        verdict.call = traced_call
        return verdict

    def add(acc, res):
        acc["verdicts"] += len(res["verdict_s"])
        acc["scaled_work_s"] += res["scaled_work_s"]
        acc["failures"] += res["failures"]
        acc["facts"].update(res["facts"])

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        add(plain, timed_loop(plain_source, math.inf, max_verdicts=block))
        traced["sites"] = tracer.install()
        try:
            res = timed_loop((spanned(v) for v in traced_source), math.inf, max_verdicts=block)
        finally:
            tracer.uninstall()
        add(traced, res)
    return {"tracer": tracer, "plain": plain, "traced": traced}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = workload.warmup()
    _elapsed, reason = run_verdict(warm)
    print("READY " + json.dumps({"failure": reason}), flush=True)
    cal = calibration_unit()
    print("CAL " + json.dumps({"cal_s": cal}), flush=True)
    if args.seconds <= 0:
        return 0

    out = {}
    if args.trace:
        from layers import per_layer_metrics

        twin = workloads.WORKLOADS[args.workload](args.seed)
        res = traced_phase(workload.verdicts(), twin.verdicts(), args.seconds, workload.cycle)
        out["per_layer"] = per_layer_metrics(res["tracer"], res["plain"], res["traced"])
        out["failures"] = res["plain"]["failures"] + res["traced"]["failures"]
        out["verdicts"] = res["plain"]["verdicts"] + res["traced"]["verdicts"]
        out["facts"] = workload.describe(res["traced"]["facts"])
        out["facts"]["lookup_sites_wrapped"] = res["traced"]["sites"]
        if args.spans_out:
            res["tracer"].write(args.spans_out)
    else:
        res = timed_loop(workload.verdicts(), args.seconds, cal_start=cal)
        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for key in ("work_s", "scaled_work_s", "cal_s", "failures"):
            out[key] = res[key]
        out["verdict_s"] = res["verdict_s"].tolist()
        out["scale"] = res["scale"].tolist()
        out["facts"] = workload.describe(res["facts"])
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
