"""Time-to-verdict benchmark for detlam.

    python3 perfbench/run.py --workload {verify-all,model-sweep,quotient-window}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; detlam is imported from ``src/``. Every number
comes from fresh child processes (``worker.py``), one thread each, each
verdict awaited before the next (a closed loop with one caller).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
SETUP_RUNS fresh processes of the wall time from process start to the end of
the first, untimed verdict), ``verdicts_per_s`` and ``verdict_ms.p50`` over a
timed phase of S seconds, and ``peak_rss_mib`` of the process that ran it.
The three timings are calibrated against the host's drifting speed (see
``calibration.py``); the raw figures are printed beside them.
``--trace 1`` runs the same workload with detlam's public functions wrapped in
spans and prints the per-layer metrics instead; the spans of the last traced
run of each workload are written to ``.perfbench-out/``.

Human-readable lines (input facts, sample counts, p90 where a run holds at
least P90_MIN_SAMPLES verdicts, failed_ratio) come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 when a result was printed, 1 when a child process failed, 2 on a
usage error or when the detlam sources are missing.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

from calibration import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("verify-all", "model-sweep", "quotient-window")
END_TO_END = ("setup_s", "verdicts_per_s", "verdict_ms.p50", "peak_rss_mib")

SETUP_RUNS = 5
P90_MIN_SAMPLES = 100
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


class Child:
    """A worker process whose stdout is read line by line under a deadline."""

    def __init__(self, argv, deadline):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER] + argv,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def expect(self, tag: str) -> tuple[dict, float]:
        """Next line starting with ``tag``: its JSON and when it arrived."""
        while True:
            line, at = self._line()
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:]), at

    def _line(self):
        while b"\n" not in self._buf:
            left = self.deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(timeout=left):
                raise ChildError("worker ran past the deadline")
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise ChildError(f"worker ended early (exit code {self.proc.wait()})")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode(), time.perf_counter()

    def close(self, kill: bool = False) -> int:
        """Wait for the process to end, killing it first if asked or if it
        overstays the deadline; return its exit code."""
        self._sel.close()
        if kill:
            self.proc.kill()
        try:
            self.proc.wait(timeout=max(0.1, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def run_child(argv, deadline, want_result: bool):
    """(setup seconds, READY payload, CAL payload, RESULT payload or None)."""
    child = Child(argv, deadline)
    try:
        ready, at = child.expect("READY")
        cal = child.expect("CAL")[0]
        result = child.expect("RESULT")[0] if want_result else None
    except BaseException:
        child.close(kill=True)
        raise
    code = child.close()
    if code != 0:
        raise ChildError(f"worker exit code {code}")
    return at - child.started, ready, cal, result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    runs = [run_child(base + ["--seconds", str(args.seconds)], deadline, True)]
    runs += [run_child(base, deadline, False) for _ in range(SETUP_RUNS - 1)]
    result = runs[0][3]
    raw_setups = [setup for setup, _r, _c, _res in runs]
    setups = [setup * CAL_REF_S / cal["cal_s"] for setup, _r, cal, _res in runs]
    warm_failures = [ready["failure"] for _s, ready, _c, _res in runs]

    raw_ms = [t * 1000.0 for t in result["verdict_s"]]
    times_ms = sorted(t * f for t, f in zip(raw_ms, result["scale"]))
    n = len(times_ms)
    failures = [f for f in warm_failures if f] + result["failures"]
    attempted = n + len(warm_failures)
    cals_ms = [c * 1000.0 for c in result["cal_s"]]
    lines = [
        f"calibration      unit {statistics.median(cals_ms):.3f} ms median, "
        f"{min(cals_ms):.3f}-{max(cals_ms):.3f} ms over {len(cals_ms)} units "
        f"(reference {CAL_REF_S * 1000:.3f} ms); timings below are calibrated, raw ones beside them",
        f"setup_s          {statistics.median(setups):.4f} s   "
        f"(median of {len(setups)} fresh processes; raw {statistics.median(raw_setups):.4f} s: "
        + ", ".join(f"{s:.3f}" for s in raw_setups) + ")",
        f"verdicts_per_s   {n / result['scaled_work_s']:.4f} 1/s   "
        f"({n} verdicts in {result['work_s']:.2f} s of work; raw {n / result['work_s']:.4f} 1/s)",
        f"verdict_ms.p50   {statistics.median(times_ms):.3f} ms   (n={n}; raw {statistics.median(raw_ms):.3f} ms)",
    ]
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times_ms, n=10)[8]
        raw90 = statistics.quantiles(raw_ms, n=10)[8]
        lines.append(f"verdict_ms.p90   {p90:.3f} ms   (n={n}; raw {raw90:.3f} ms)")
    else:
        lines.append(f"verdict_ms.p90   not reported (n={n} < {P90_MIN_SAMPLES})")
    lines += [
        f"failed_ratio     {len(failures) / attempted:.4f}   ({len(failures)}/{attempted} verdicts)",
        f"peak_rss_mib     {result['peak_rss_kib'] / 1024.0:.2f} MiB   (1 process)",
    ]
    metrics = dict(zip(END_TO_END, (
        _metric(statistics.median(setups), "s"),
        _metric(n / result["scaled_work_s"], "1/s"),
        _metric(statistics.median(times_ms), "ms"),
        _metric(result["peak_rss_kib"] / 1024.0, "MiB"),
    )))
    return lines, result["facts"], failures, attempted, metrics


def traced(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1", "--spans-out", spans]
    _setup, ready, _cal, result = run_child(argv, deadline, True)
    failures = [f for f in [ready["failure"]] if f] + result["failures"]
    attempted = result["verdicts"] + 1
    lines = [f"{name:<42} {m['value']:.6g} {m['unit']}" for name, m in result["per_layer"].items()]
    lines.append(f"failed_ratio {len(failures) / attempted:.4f} ({len(failures)}/{attempted} verdicts)")
    lines.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    return lines, result["facts"], failures, attempted, result["per_layer"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "detlam", "__init__.py")):
        print("error: detlam sources not found under src/", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        lines, facts, failures, attempted, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("inputs   " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print("  " + line)
    for reason in failures[:5]:
        print("  FAILED " + reason)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
