"""The benchmark's three workloads and their independent answer checkers.

Each workload turns a seed into inputs, yields one verdict at a time as a
zero-argument call into detlam's public API, and checks every result against
an answer this module computes on its own (never by asking detlam). All calls
go through module attributes (``grrcheck.verify_main_on_model``, not a name
bound at import), so the tracer's wrappers see them.

Workloads
---------
verify-all
    One verdict is a full in-process ``detlam verify-all --max-dim 4`` pass.
    The seed is ignored: the check registry is fixed.
model-sweep
    One verdict is one ``verify_main_on_model(model, line)`` call. Models
    cycle through P1xP1, P2xP1, P3xP1 and Hirzebruch e = 0..3; each is
    rebuilt from its JSON description and then serves 8 seeded lines with
    coefficients in [-3, 3]^2.
quotient-window
    One verdict is one ``flatness_verdict(algebra, 60)`` call on a seeded
    algebra with 1-4 variables, degrees 1-3 and uniform parity.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import factorial

from detlam import chowmodel, cli, grrcheck, quotientlab

VERIFY_ALL_ARGV = ["verify-all", "--max-dim", "4"]
VERIFY_ALL_CHECKS = 17

SWEEP_MODELS = (
    ("P1xP1", {}),
    ("P2xP1", {}),
    ("P3xP1", {}),
    ("Hirzebruch", {"e": 0}),
    ("Hirzebruch", {"e": 1}),
    ("Hirzebruch", {"e": 2}),
    ("Hirzebruch", {"e": 3}),
)
LINES_PER_MODEL = 8
LINE_RANGE = (-3, 3)

QUOTIENT_BOUND = 60
# (degree, parity) choices for one variable: degrees 1-3, parity even/odd.
VARIABLE_CHOICES = tuple((d, p) for d in (1, 2, 3) for p in (0, 1))
# One block holds 3 algebras of each variable count 1..4, i.e. 30 variable
# slots, and every (degree, parity) choice fills exactly 5 of them. The
# marginals are those of independent uniform draws; fixing them per block
# keeps the work mix of a run nearly the same for every seed.
BLOCK_VARIABLE_COUNTS = (1, 2, 3, 4) * 3
BLOCK_SLOTS = sum(BLOCK_VARIABLE_COUNTS)


class Verdict:
    """One unit of work: a timed call, its checker, its input, and a small
    hashable tuple of input facts that runs count rather than keep."""

    __slots__ = ("call", "check", "input", "facts")

    def __init__(self, call, check, input, facts):
        self.call = call
        self.check = check
        self.input = input
        self.facts = facts


# ----------------------------------------------------------------------
# independent answers


def pn_x_p1_lhs_degree(n: int, a: int, b: int) -> int:
    """deg lambda(O(a, b)) on P^n x P^1 -> P^1, by closed form.

    The pushforward of O(a) on P^n has rank C(a+n, n) = (a+1)...(a+n)/n!
    (as a polynomial in a), and twisting by O(b) on the base gives degree
    b * C(a+n, n).
    """
    num = 1
    for i in range(1, n + 1):
        num *= a + i
    rank = Fraction(num, factorial(n))
    if rank.denominator != 1:
        raise ArithmeticError("binomial polynomial came out non-integral")
    return b * int(rank)


def expected_flatness(algebra) -> str:
    """FREE iff the sign involution is a reflection group: at most one odd
    variable (Chevalley-Shephard-Todd); NOT-FREE otherwise."""
    odd = sum(1 for _name, _deg, parity in algebra.variables if parity == 1)
    return "FREE" if odd <= 1 else "NOT-FREE"


def check_verify_all(result, reference: str | None) -> str | None:
    """None when a verify-all pass is correct, else the reason it is not."""
    code, out = result
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except ValueError:
        return "summary line is not JSON"
    if summary.get("overall") is not True or summary.get("checks") != VERIFY_ALL_CHECKS:
        return f"summary {summary!r}"
    if reference is not None and out != reference:
        return "stdout differs from the first pass"
    return None


def check_main_report(report, model_name: str, n: int | None, line: dict) -> str | None:
    if not report.ok:
        return f"{model_name} {line}: lhs {report.lhs} != rhs {report.rhs}"
    if n is not None:
        want = pn_x_p1_lhs_degree(n, line["h"], line["s"])
        if report.lhs_degree != want:
            return f"{model_name} {line}: lhs_degree {report.lhs_degree} != {want}"
    return None


def check_flatness(report, algebra) -> str | None:
    want = expected_flatness(algebra)
    if report.verdict != want:
        return f"{algebra.variables}: {report.verdict} != {want}"
    return None


# ----------------------------------------------------------------------
# workloads


class VerifyAll:
    name = "verify-all"
    cycle = 1

    def __init__(self, seed: int):
        self.reference = None

    def _pass(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(VERIFY_ALL_ARGV))
        return code, out.getvalue()

    def _check(self, result):
        reason = check_verify_all(result, self.reference)
        if reason is None and self.reference is None:
            self.reference = result[1]
        return reason

    def warmup(self) -> Verdict:
        return Verdict(self._pass, self._check, VERIFY_ALL_ARGV, ())

    def verdicts(self):
        while True:
            yield self.warmup()

    @staticmethod
    def describe(facts) -> dict:
        return {"checks_per_pass": VERIFY_ALL_CHECKS, "argv": " ".join(VERIFY_ALL_ARGV)}


class ModelSweep:
    name = "model-sweep"
    cycle = len(SWEEP_MODELS) * LINES_PER_MODEL

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.descriptions = [
            (name, params, chowmodel.builtin_model(name, **params).to_obj())
            for name, params in SWEEP_MODELS
        ]

    @staticmethod
    def _label(name, params):
        return f"F{params['e']}" if "e" in params else name

    def _verdict(self, name, params, model, line, reused):
        n = int(name[1]) if name.endswith("xP1") else None
        return Verdict(
            lambda: grrcheck.verify_main_on_model(model, line),
            lambda report: check_main_report(report, name, n, line),
            line,
            (self._label(name, params), reused),
        )

    def _line(self, model):
        lo, hi = LINE_RANGE
        return {g: self.rng.randint(lo, hi) for g in model.vars.names}

    def warmup(self) -> Verdict:
        name, params, obj = self.descriptions[0]
        model = chowmodel.load_model(obj)
        return self._verdict(name, params, model, {"h": 1, "s": 1}, False)

    def verdicts(self):
        while True:
            for name, params, obj in self.descriptions:
                model = chowmodel.load_model(obj)
                for k in range(LINES_PER_MODEL):
                    yield self._verdict(name, params, model, self._line(model), k > 0)

    @staticmethod
    def describe(facts) -> dict:
        """``facts`` counts (model label, reused) pairs."""
        mix: dict[str, int] = {}
        for (label, _reused), k in facts.items():
            mix[label] = mix.get(label, 0) + k
        reused = sum(k for (_label, r), k in facts.items() if r)
        total = sum(facts.values())
        return {
            "model_mix": mix,
            "lines_per_model": LINES_PER_MODEL,
            "reuse_share": round(reused / total, 4) if total else 0.0,
        }


def algebra_block(rng: random.Random) -> list:
    """12 algebras: 3 per variable count 1..4, each (degree, parity) choice
    on exactly 5 of the 30 variable slots, in seeded order."""
    slots = list(VARIABLE_CHOICES) * (BLOCK_SLOTS // len(VARIABLE_CHOICES))
    rng.shuffle(slots)
    counts = list(BLOCK_VARIABLE_COUNTS)
    rng.shuffle(counts)
    out = []
    for n in counts:
        chosen, slots = slots[:n], slots[n:]
        names = rng.sample("abcuvwxyz", n)
        out.append(quotientlab.GradedAlgebra(
            tuple((name, d, p) for name, (d, p) in zip(names, chosen))
        ))
    return out


class QuotientWindow:
    name = "quotient-window"
    cycle = len(BLOCK_VARIABLE_COUNTS)
    warmup_spec = "x:1:odd,y:1:odd"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    @staticmethod
    def _verdict(algebra):
        odd = sum(1 for v in algebra.variables if v[2] == 1)
        return Verdict(
            lambda: quotientlab.flatness_verdict(algebra, QUOTIENT_BOUND),
            lambda report: check_flatness(report, algebra),
            algebra.variables,
            (len(algebra.variables), odd),
        )

    def warmup(self) -> Verdict:
        return self._verdict(quotientlab.GradedAlgebra.from_spec(self.warmup_spec))

    def verdicts(self):
        while True:
            for algebra in algebra_block(self.rng):
                yield self._verdict(algebra)

    @staticmethod
    def describe(facts) -> dict:
        """``facts`` counts (variable count, odd variable count) pairs."""
        dist: dict[int, int] = {}
        for (nvars, _odd), k in facts.items():
            dist[nvars] = dist.get(nvars, 0) + k
        two_odd = sum(k for (_nvars, odd), k in facts.items() if odd >= 2)
        total = sum(facts.values())
        return {
            "bound": QUOTIENT_BOUND,
            "variable_counts": {str(k): dist[k] for k in sorted(dist)},
            "share_two_or_more_odd": round(two_odd / total, 4) if total else 0.0,
        }


WORKLOADS = {w.name: w for w in (VerifyAll, ModelSweep, QuotientWindow)}
