"""Acceptance gate: one check per stated criterion, each with its runtime bound.

Every criterion prints exactly one [PASS]/[FAIL] line (bypassing capture) and
asserts both the mathematical claim and the time limit. Timings are taken on
a second run, after one warm-up call, so module import and cache effects are
not billed to the criterion.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from detlam import grrcheck, kexpr, quotientlab
from detlam.chowmodel import model_hirzebruch, model_pn, model_pn_x_pm
from detlam.combinat import coeff_table, pk_identity_check
from detlam.exactalg import TruncatedSeries


@pytest.fixture
def criterion(capsys):
    """Run a check twice (warm-up + timed), print one line, enforce the bound."""

    def _run(number, name, limit_ms, fn):
        fn()
        started = time.perf_counter()
        ok = bool(fn())
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        in_time = elapsed_ms < limit_ms
        verdict = "PASS" if (ok and in_time) else "FAIL"
        with capsys.disabled():
            print(
                f"[{verdict}] criterion {number}: {name} "
                f"({elapsed_ms:.2f} ms, limit {limit_ms:g} ms)"
            )
        assert ok, f"criterion {number} failed: {name}"
        assert in_time, f"criterion {number} exceeded {limit_ms} ms ({elapsed_ms:.2f} ms)"

    return _run


def test_criterion_01_coefficient_tables(criterion):
    def check():
        return (
            coeff_table(1).entries == (7, -4, 1)
            and coeff_table(2).entries == (31, -26, 16, -6, 1)
        )

    criterion(1, "exponent tables at d = 1 and d = 2", 1.0, check)


def test_criterion_02_polynomial_identity(criterion):
    def check():
        return all(pk_identity_check(k) for k in range(65))

    criterion(2, "t*P_k(t) = 2^(k+1) - (2-t)^(k+1) for k <= 64", 100.0, check)


def test_criterion_03_universal_defect(criterion):
    def check():
        for d in range(1, 5):
            report = grrcheck.universal_report(d)
            if not report.top_degree_zero or report.subtop_zero:
                return False
        report = grrcheck.universal_report(1)
        vt = report.combo_ch.vars
        expected_ch = TruncatedSeries.from_terms(
            vt,
            2,
            [((0, 0), 12), ((1, 0), 8), ((0, 1), 2), ((1, 1), 4)],
        )
        expected_todd = TruncatedSeries.from_terms(
            vt,
            2,
            [((0, 0), 1), ((0, 1), Fraction(-1, 2)), ((0, 2), Fraction(1, 12))],
        )
        return report.combo_ch == expected_ch and report.todd == expected_todd

    criterion(
        3,
        "degree-(d+1) defect vanishes for d = 1..4; d = 1 matches hand values",
        10_000.0,
        check,
    )


def test_criterion_04_deligne_cross_check(criterion):
    def check():
        report = grrcheck.universal_report(1, grrcheck.deligne_combo_d1())
        return report.top_degree_zero

    criterion(4, "dual-twisted 18/-18/-6/+6 combination vanishes in degree 2", 10.0, check)


def test_criterion_05_pairing_block_triviality(criterion):
    def check():
        for d in range(1, 4):
            if not grrcheck.ducrot_defect(d).is_zero():
                return False
            if grrcheck.ducrot_defect(d, d + 1).is_zero():
                return False
        return True

    criterion(5, "(d+2)-factor blocks trivial, (d+1)-factor blocks not, d <= 3", 1_000.0, check)


def test_criterion_06_concrete_family(criterion):
    def check():
        product = model_pn_x_pm(1, 1)
        headline = grrcheck.verify_main_on_model(product, {"h": 1, "s": 1})
        if not (headline.ok and headline.lhs == 32 and headline.rhs == 32):
            return False
        for a in range(-2, 3):
            for b in range(-2, 3):
                if not grrcheck.verify_main_on_model(product, {"h": a, "s": b}).ok:
                    return False
        for e in range(4):
            model = model_hirzebruch(e)
            if not grrcheck.verify_main_on_model(model, {"z": 0, "f": 0}).ok:
                return False
        return True

    criterion(
        6,
        "16*deg lambda(O(1,1)) = 32 on P1xP1; identity on the O(a,b) grid "
        "and on Hirzebruch e = 0..3",
        5_000.0,
        check,
    )


def test_criterion_07_mumford_ratio(criterion):
    def check():
        for e in (1, 2, 3):
            model = model_hirzebruch(e)
            one = grrcheck.c1_lambda(model, {"z": -2, "f": -e})
            two = grrcheck.c1_lambda(model, {"z": -4, "f": -2 * e})
            if two != 13 * one:
                return False
        symbols, relations = grrcheck.preset_relations("mumford")
        if not grrcheck.picard_deduce(symbols, relations, "l2 = 13*l1").derivable:
            return False
        symbols, relations = grrcheck.preset_relations("elliptic")
        return grrcheck.picard_deduce(symbols, relations, "12*l1 = 0").derivable

    criterion(
        7,
        "deg lambda(Omega^2) = 13*deg lambda(Omega); lattice derives 13*l1 = l2 "
        "and 12*l1 = 0",
        1_000.0,
        check,
    )


def _corpus_tree(rng, depth):
    names = ["A", "B", "L"]
    if depth == 0:
        return rng.choice([kexpr.O, kexpr.T, kexpr.Atom(rng.choice(names))])
    pick = rng.randrange(6)
    if pick == 0:
        return kexpr.Atom(rng.choice(names))
    if pick == 1:
        return kexpr.Dual(_corpus_tree(rng, depth - 1))
    if pick == 2:
        return kexpr.Sym(rng.randrange(4), kexpr.Atom(rng.choice(names)))
    if pick <= 4:
        n = rng.randrange(2, 4)
        return kexpr.Ten(*(_corpus_tree(rng, depth - 1) for _ in range(n)))
    n = rng.randrange(1, 4)
    return kexpr.Lin(
        *((rng.randrange(-3, 4), _corpus_tree(rng, depth - 1)) for _ in range(n))
    )


def _corpus_scramble(rng, e):
    if isinstance(e, kexpr.Ten):
        kids = [_corpus_scramble(rng, f) for f in e.factors]
        rng.shuffle(kids)
        if len(kids) >= 2 and rng.random() < 0.5:
            cut = rng.randrange(1, len(kids))
            return kexpr.Ten(kexpr.Ten(*kids[:cut]), *kids[cut:])
        return kexpr.Ten(*kids)
    if isinstance(e, kexpr.Lin):
        terms = [(n, _corpus_scramble(rng, sub)) for n, sub in e.terms]
        rng.shuffle(terms)
        return kexpr.Lin(*terms)
    if isinstance(e, kexpr.Dual):
        return kexpr.Dual(_corpus_scramble(rng, e.inner))
    return e


def test_criterion_08_rewriter(criterion):
    def check():
        for name in kexpr.builtin_chain_names():
            script = kexpr.get_chain(name, 1)
            if not kexpr.chain_verify(script).ok:
                return False
            for i in range(1, len(script.steps) + 1):
                bad = kexpr.chain_verify(kexpr.corrupt_script(script, i))
                if bad.ok or bad.failed_step != i:
                    return False
        rng = random.Random(8128)
        count = 0
        while count < 1000:
            tree = _corpus_tree(rng, rng.randrange(1, 7))
            canon = kexpr.normalize(tree)
            count += 1
            if kexpr.normalize(_corpus_scramble(rng, tree)) != canon:
                return False
        return True

    criterion(
        8,
        "both proof chains verify; corruptions fail at the corrupted step; "
        ">= 1000-expression corpus has order-independent normal forms",
        10_000.0,
        check,
    )


def test_criterion_09_quotient_lab(criterion):
    def check():
        free = quotientlab.flatness_verdict(quotientlab.GradedAlgebra((("x", 1, 1),)))
        if free.verdict != "FREE" or free.basis != ("1", "x"):
            return False
        stuck = quotientlab.flatness_verdict(
            quotientlab.GradedAlgebra((("x", 1, 1), ("y", 1, 1)))
        )
        return stuck.verdict == "NOT-FREE"

    criterion(
        9,
        "k[x] odd FREE with basis {1, x}; k[x,y] both odd NOT-FREE",
        1_000.0,
        check,
    )


def test_criterion_10_euler_anchors(criterion):
    def check():
        p1 = model_pn(1)
        for a in range(-3, 4):
            if grrcheck.euler_char(p1, {"h": a}) != a + 1:
                return False
        p2 = model_pn(2)
        for a in range(4):
            chi = grrcheck.euler_char(p2, {"h": a})
            if chi != (a + 1) * (a + 2) // 2:
                return False
        return True

    criterion(10, "chi(P1, O(a)) = a+1 and chi(P2, O(a)) = (a+1)(a+2)/2", 100.0, check)
