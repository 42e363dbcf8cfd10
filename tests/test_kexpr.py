"""Tests for the virtual-sheaf rewriting engine.

Expected canonical forms are hand-derived and frozen; chain displays are
rebuilt independently through the tree API before comparison.
"""

import copy
import json
import random
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from detlam import kexpr as kx
from detlam.combinat import coeff_table, pk_poly
from detlam.kexpr import (
    AXIOMS,
    Atom,
    ChainScript,
    ChainStep,
    Dual,
    Lam,
    LamProd,
    Lin,
    O,
    Push,
    ScriptError,
    Sym,
    T,
    Ten,
    UnsupportedExpression,
    chain_verify,
    corrupt_script,
    get_chain,
    normalize,
    normalize_expr,
    o_minus,
    parse_expr,
    script_from_obj,
    tpow,
)

A, B, L, M = Atom("A"), Atom("B"), Atom("L"), Atom("M")


def mono(*factors, twist=0):
    return (tuple(sorted(factors)), twist)


def at(name, dual=0):
    return ("atom", name, 0, dual)


class TestNormalize:
    def test_unit(self):
        assert normalize(O) == ((((), 0), 1),)

    def test_twist_square_is_unit(self):
        assert normalize(Ten(T, T)) == normalize(O)
        assert normalize(Ten(T, T, T)) == normalize(T)

    def test_atom(self):
        assert normalize(A) == ((mono(at("A")), 1),)

    def test_dual_involution(self):
        assert normalize(Dual(Dual(A))) == normalize(A)
        e = Ten(A, Lin((2, B), (-1, T)))
        assert normalize(Dual(Dual(e))) == normalize(e)

    def test_dual_distributes_over_tensor(self):
        got = normalize(Dual(Ten(A, B)))
        assert got == ((mono(at("A", 1), at("B", 1)), 1),)

    def test_dual_fixes_twist(self):
        assert normalize(Dual(T)) == normalize(T)

    def test_difference_of_squares(self):
        got = normalize(Ten(o_minus(L), Lin((1, O), (1, L))))
        want = normalize(Lin((1, O), (-1, Ten(L, L))))
        assert got == want

    def test_lin_merges_and_cancels(self):
        assert normalize(Lin((1, A), (2, A), (-3, A))) == ()
        assert normalize(Lin((1, A), (1, B), (-1, A))) == normalize(B)

    def test_nested_tensor_associates(self):
        assert normalize(Ten(A, Ten(B, L))) == normalize(Ten(Ten(A, B), L))

    def test_empty_tensor_is_unit(self):
        assert normalize(Ten()) == normalize(O)
        assert tpow(A, 0) is O

    def test_sym_of_atom(self):
        assert normalize(Sym(3, A)) == ((mono(("sym", "A", 3, 0)), 1),)

    def test_sym_one_is_identity(self):
        assert normalize(Sym(1, Ten(A, B))) == normalize(Ten(A, B))

    def test_sym_zero_is_unit(self):
        assert normalize(Sym(0, Ten(A, B))) == normalize(O)

    def test_sym_of_dual_atom(self):
        assert normalize(Sym(2, Dual(A))) == ((mono(("sym", "A", 2, 1)), 1),)

    def test_sym_of_twisted_atom_tracks_parity(self):
        got = normalize(Sym(3, Ten(A, T)))
        assert got == ((((("sym", "A", 3, 0),), 1), 1),)
        got2 = normalize(Sym(2, Ten(A, T)))
        assert got2 == ((((("sym", "A", 2, 0),), 0), 1),)

    def test_sym_outside_fragment(self):
        with pytest.raises(UnsupportedExpression):
            normalize(Sym(2, Lin((1, A), (1, B))))
        with pytest.raises(UnsupportedExpression):
            normalize(Sym(2, Ten(A, B)))
        with pytest.raises(UnsupportedExpression):
            normalize(Sym(2, Sym(2, A)))
        with pytest.raises(UnsupportedExpression):
            normalize(Sym(2, Lin((2, A))))
        with pytest.raises(UnsupportedExpression):
            normalize(Sym(-1, A))

    def test_push_of_binder_powers(self):
        inner = tpow(Lin((1, O), (1, Ten(Atom("N"), T))), 2)
        got = normalize(Push("N", inner))
        want = {
            ((), 0): 1,
            ((("push", "N", 1, 0),), 0): 2,
            ((("push", "N", 2, 0),), 0): 1,
        }
        assert got == tuple(sorted(want.items()))

    def test_push_twist_bookkeeping(self):
        got = normalize(Push("N", Ten(Atom("N"), Atom("N"), T)))
        assert got == ((((("push", "N", 2, 0),), 1), 1),)

    def test_push_rejects_foreign_atoms(self):
        with pytest.raises(UnsupportedExpression):
            normalize(Push("N", Ten(Atom("N"), A)))

    def test_lambda_wrapper_rejected_inside_sheaf_context(self):
        with pytest.raises(UnsupportedExpression):
            normalize_expr(Lam(A, 1))
        with pytest.raises(UnsupportedExpression):
            normalize(Ten(A, Lam(B, 1)))

    def test_lambda_of_sum_distributes(self):
        got = normalize(Lam(Lin((2, A), (-1, B)), 3))
        assert dict(got) == {mono(at("A")): 6, mono(at("B")): -3}

    def test_lambda_product_merges_exponents(self):
        got = normalize(LamProd(Lam(A, 2), Lam(A, -2), Lam(B, 5)))
        assert dict(got) == {mono(at("B")): 5}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Lin((1.5, A)),
            lambda: Lin((True, A)),
            lambda: Lin((1, A), ("2", B)),
            lambda: Lam(A, 2.7),
            lambda: Lam(A, 2.0),
            lambda: Lam(A, True),
            lambda: Sym(2.0, A),
            lambda: Sym(True, A),
        ],
        ids=["lin-float", "lin-bool", "lin-str", "lam-float", "lam-whole-float", "lam-bool",
             "sym-float", "sym-bool"],
    )
    def test_trees_reject_non_integer_numbers(self, build):
        with pytest.raises(UnsupportedExpression, match="must be an integer"):
            build()


class TestPkTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_coefficient_polynomial(self, k):
        arg = o_minus(L)
        direct = Lin(
            *((c, tpow(arg, m)) for m, c in enumerate(pk_poly(k)))
        )
        assert normalize(direct) == normalize(kx._pk_tree(k, arg))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_telescoping_identity_on_trees(self, k):
        arg = o_minus(L)
        lhs = Ten(arg, kx._pk_tree(k, arg))
        rhs = Lin((2 ** (k + 1), O), (-1, tpow(Lin((2, O), (-1, arg)), k + 1)))
        assert normalize(lhs) == normalize(rhs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_expansion_coefficients(self, k):
        got = dict(normalize(kx._pk_tree(k, o_minus(L))))
        for j in range(k + 1):
            want = sum(2 ** (k - i) * comb(i, j) for i in range(j, k + 1))
            assert got[mono(*([at("L")] * j))] == want
        assert got[mono()] == sum(pk_poly(k))  # P_k(1)
        assert sum(got.values()) == (k + 1) * 2 ** k


class TestChains:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_k_verifies(self, k):
        rep = chain_verify(get_chain("invfunc-a-k", k))
        assert rep.ok and rep.endpoint_ok and rep.failed_step is None
        assert len(rep.rows) == 11
        assert all(row["ok"] for row in rep.rows)
        assert all(row["law"] for row in rep.rows)

    def test_a_k_start_state_frozen(self):
        s = get_chain("invfunc-a-k", 1)
        got = dict(normalize(s.start))
        assert got == {mono(at("iM")): 3, mono(at("iM"), at("iL")): 1}

    def test_a_k_end_state_frozen(self):
        s = get_chain("invfunc-a-k", 1)
        got = dict(normalize(s.end))
        want = {
            mono(at("M")): 4,
            mono(at("qMm")): 1,
            mono(at("qMm"), at("J")): -2,
            mono(at("qMm"), at("J"), at("J")): 1,
            mono(at("qMp")): -1,
            mono(at("qMp"), at("J")): 2,
            mono(at("qMp"), at("J"), at("J")): -1,
        }
        assert got == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_l_p_verifies(self, d):
        rep = chain_verify(get_chain("invfunc-l-p", d))
        assert rep.ok and rep.endpoint_ok
        assert len(rep.rows) == 5

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_l_p_end_exponent_ties_to_coefficient_table(self, d):
        s = get_chain("invfunc-l-p", d)
        got = dict(normalize(s.end))
        assert got == {mono(at("M")): 2 ** (d + 1)}
        assert coeff_table(d).lhs_exponent == (2 ** (d + 1)) ** 2

    def test_multadd_verifies_to_unit(self):
        s = get_chain("multadd-d1")
        rep = chain_verify(s)
        assert rep.ok
        assert normalize(s.end) == ()

    def test_unknown_chain(self):
        with pytest.raises(ScriptError):
            get_chain("no-such-chain")

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ScriptError):
            get_chain("invfunc-a-k", 0)
        with pytest.raises(ScriptError):
            get_chain("invfunc-l-p", 0)

    def test_failed_match_is_reported_not_raised(self):
        good = get_chain("invfunc-a-k", 1)
        bad_step = ChainStep(
            "iso-subst",
            0,
            {"src": "zz", "dst": "ww"},
            "x",
            good.steps[0].expected,
        )
        script = ChainScript("bad", good.start, good.end, (bad_step,) + good.steps[1:])
        rep = chain_verify(script)
        assert not rep.ok and rep.failed_step == 1
        assert "zz" in rep.rows[0]["witness"]["error"]

    def test_position_out_of_range_is_reported(self):
        good = get_chain("invfunc-a-k", 1)
        bad_step = ChainStep(
            "line-twist-flip", 5, {"atom": "iL"}, "a", good.steps[0].expected
        )
        script = ChainScript("bad", good.start, good.end, (bad_step,))
        rep = chain_verify(script)
        assert not rep.ok and rep.failed_step == 1

    def test_endpoint_mismatch_detected(self):
        good = get_chain("invfunc-l-p", 1)
        script = ChainScript("bad-end", good.start, Lam(Atom("M"), 3), good.steps)
        rep = chain_verify(script)
        assert not rep.ok and rep.failed_step is None
        assert rep.reason == "endpoint mismatch"

    # every reason an axiom can refuse its factor: (start, axiom, position, args, reason)
    STEP_FAILURES = {
        "position": ("(lam A 1)", "cancel", 3, {}, "factor position 3 out of range"),
        "flip-absent": (
            "(prod (lam A 1) (lam B 1))",
            "line-twist-flip",
            1,
            {"atom": "A"},
            "atom 'A' does not occur at factor 1",
        ),
        "subst-absent": (
            "(prod (lam A 1) (lam B 1))",
            "iso-subst",
            1,
            {"src": "A", "dst": "C"},
            "atom 'A' does not occur at factor 1",
        ),
        "split-absent": (
            "(prod (lam A 1) (lam B 1))",
            "plus-minus-split",
            1,
            {"atom": "A", "plus": "P", "minus": "Q"},
            "atom 'A' does not occur at factor 1",
        ),
        "descent-non-plain": (
            "(lam (dual A) 1)",
            "ideal-descent",
            0,
            {"map": {"A": ["B", 0, 1]}},
            "descent supports plain atoms only",
        ),
        "descent-uncovered": (
            "(lam (* A B) 1)",
            "quotient-descent",
            0,
            {"map": {"A": ["C", 0, 1]}},
            "descent does not cover atom 'B'",
        ),
        "split-twice": (
            "(lam (* A A) 1)",
            "plus-minus-split",
            0,
            {"atom": "A", "plus": "P", "minus": "Q"},
            "split supports a single occurrence per monomial",
        ),
        "push-foreign": (
            "(lam (* M C) 1)",
            "pushforward",
            0,
            {"pulled": "M", "restrict": "iM", "binder": "N"},
            "unexpected factor 'C' under the pushforward",
        ),
        "push-no-pulled": (
            "(lam (* N N) 1)",
            "pushforward",
            0,
            {"pulled": "M", "restrict": "iM", "binder": "N"},
            "need exactly one pulled-back factor per monomial",
        ),
        "collapse-exponent": (
            "(lam A 2)",
            "cartier-collapse",
            0,
            {"restrict": "iM", "binder": "Nt", "base": "bM", "k": 1},
            "collapse needs a factor of exponent 1",
        ),
        "collapse-block": (
            "(lam A 1)",
            "cartier-collapse",
            0,
            {"restrict": "iM", "binder": "Nt", "base": "bM", "k": 1},
            "factor is not the pushed polynomial block",
        ),
        "multadd-block": (
            "(lam A 1)",
            "multadd-split",
            0,
            {"a": "A", "b": "B", "others": ["C"]},
            "factor is not a first-slot pairing block",
        ),
    }

    @pytest.mark.parametrize("case", sorted(STEP_FAILURES))
    def test_step_failure_reasons(self, case):
        start, axiom, position, args, reason = self.STEP_FAILURES[case]
        step = {"axiom": axiom, "position": position, "args": args, "note": "s", "expected": start}
        rep = chain_verify(script_from_obj({"start": start, "end": start, "steps": [step]}))
        assert (rep.ok, rep.failed_step, rep.reason, rep.endpoint_ok) == (False, 1, reason, False)
        assert rep.rows == (
            {
                "step": 1,
                "note": "s",
                "axiom": axiom,
                "law": AXIOMS[axiom].law,
                "ok": False,
                "witness": {"error": reason},
            },
        )

    def test_report_serializes(self):
        rep = chain_verify(get_chain("multadd-d1"))
        obj = rep.to_obj()
        json.dumps(obj)
        assert obj["ok"] and len(obj["steps"]) == 5


class TestCorruption:
    @pytest.mark.parametrize("name", ["invfunc-a-k", "invfunc-l-p", "multadd-d1"])
    def test_every_single_step_corruption_fails_there(self, name):
        script = get_chain(name, 1)
        for i in range(1, len(script.steps) + 1):
            rep = chain_verify(corrupt_script(script, i))
            assert not rep.ok
            assert rep.failed_step == i
            assert rep.rows[-1]["witness"]

    def test_corrupt_bounds(self):
        script = get_chain("multadd-d1")
        with pytest.raises(ScriptError):
            corrupt_script(script, 0)
        with pytest.raises(ScriptError):
            corrupt_script(script, 6)

    def test_corrupt_keeps_original_intact(self):
        script = get_chain("invfunc-l-p", 2)
        corrupt_script(script, 3)
        assert chain_verify(script).ok

    def test_swapped_steps_fail_at_first_mismatch(self):
        """Swapping the two cancellation steps f and g is caught.

        Both displays carry the same formal sum, so no mismatch exists at
        the swapped positions themselves; the first detectable mismatch is
        the next position-addressed step (h), because the state adopted the
        wrong factor grouping.
        """
        script = get_chain("invfunc-a-k", 1)
        steps = list(script.steps)
        assert steps[5].note == "f" and steps[6].note == "g"
        steps[5], steps[6] = steps[6], steps[5]
        swapped = ChainScript(script.name, script.start, script.end, tuple(steps))
        rep = chain_verify(swapped)
        assert not rep.ok
        assert rep.failed_step == 8


def shipped_file(name):
    """Path of the chain script the package ships for a built-in chain."""
    return Path(kx.__file__).parent / "data" / ("chain_" + name.replace("-", "_") + ".json")


class TestScriptSerialization:
    @pytest.mark.parametrize("name", ["invfunc-a-k", "invfunc-l-p", "multadd-d1"])
    def test_shipped_files_match_builders(self, name):
        shipped = kx.script_from_file(str(shipped_file(name)))
        assert chain_verify(shipped).ok
        assert shipped == get_chain(name, 1)

    def test_edited_shipped_file_compares_unequal(self, tmp_path):
        obj = json.loads(shipped_file("invfunc-l-p").read_text(encoding="utf-8"))
        obj["steps"][0]["note"] += " (edited)"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        edited = kx.script_from_file(str(path))
        assert chain_verify(edited).ok
        assert edited != get_chain("invfunc-l-p", 1)

    def test_malformed_script_objects(self):
        with pytest.raises(ScriptError):
            script_from_obj({"steps": []})
        bad = json.loads(shipped_file("multadd-d1").read_text(encoding="utf-8"))
        bad["steps"][0]["axiom"] = "definitely-not-an-axiom"
        with pytest.raises(ScriptError):
            script_from_obj(bad)

    def test_step_requires_expected_display(self):
        with pytest.raises(ScriptError):
            ChainStep("cancel", 0, {}, "x", None)


class TestExpressionStrings:
    def test_parse_simple_forms(self):
        assert parse_expr("O") is O or isinstance(parse_expr("O"), type(O))
        assert normalize(parse_expr("(* A B)")) == normalize(Ten(A, B))
        assert normalize(parse_expr("(lin 2 A -1 B)")) == normalize(
            Lin((2, A), (-1, B))
        )
        assert normalize(parse_expr("(dual (sym 2 A))")) == normalize(
            Dual(Sym(2, A))
        )
        assert normalize(parse_expr("(push N (* N N))")) == normalize(
            Push("N", Ten(Atom("N"), Atom("N")))
        )

    @pytest.mark.parametrize(
        "text",
        [
            "(",
            "(* A",
            "(* A)) B",
            "(frob A)",
            "(lin 1)",
            "(sym A A)",
            "3",
            "(lam A)",
            "",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ScriptError):
            parse_expr(text)


def _random_tree(rng, depth):
    names = ["A", "B", "L"]
    if depth == 0:
        return rng.choice([O, T, Atom(rng.choice(names))])
    pick = rng.randrange(8)
    if pick == 0:
        return O
    if pick == 1:
        return T
    if pick == 2:
        return Atom(rng.choice(names))
    if pick == 3:
        return Dual(_random_tree(rng, depth - 1))
    if pick == 4:
        base = Atom(rng.choice(names))
        if rng.random() < 0.5:
            base = Dual(base)
        return Sym(rng.randrange(4), base)
    if pick == 5:
        n = rng.randrange(2, 4)
        return Ten(*(_random_tree(rng, depth - 1) for _ in range(n)))
    n = rng.randrange(1, 4)
    return Lin(
        *(
            (rng.randrange(-3, 4), _random_tree(rng, depth - 1))
            for _ in range(n)
        )
    )


def _scramble(rng, e):
    if isinstance(e, Ten):
        kids = [_scramble(rng, f) for f in e.factors]
        rng.shuffle(kids)
        if len(kids) >= 2 and rng.random() < 0.5:
            cut = rng.randrange(1, len(kids))
            return Ten(Ten(*kids[:cut]), *kids[cut:])
        return Ten(*kids)
    if isinstance(e, Lin):
        terms = [(n, _scramble(rng, sub)) for n, sub in e.terms]
        out = []
        for n, sub in terms:
            if abs(n) >= 2 and rng.random() < 0.4:
                out.append((n - 1, sub))
                out.append((1, sub))
            else:
                out.append((n, sub))
        rng.shuffle(out)
        return Lin(*out)
    if isinstance(e, Dual):
        if rng.random() < 0.3:
            return Dual(Dual(Dual(_scramble(rng, e.inner))))
        return Dual(_scramble(rng, e.inner))
    return e


class TestConfluenceCorpus:
    def test_seeded_corpus(self):
        rng = random.Random(20260826)
        count = 0
        while count < 1000:
            tree = _random_tree(rng, rng.randrange(1, 7))
            try:
                canon = normalize(tree)
            except UnsupportedExpression:
                continue
            count += 1
            scrambled = _scramble(rng, tree)
            assert normalize(scrambled) == canon
        assert count >= 1000


class TestAxiomRegistry:
    def test_names_frozen(self):
        assert set(AXIOMS) == {
            "line-twist-flip",
            "iso-subst",
            "ideal-descent",
            "quotient-descent",
            "pk-identity",
            "binomial",
            "cancel",
            "plus-minus-split",
            "pushforward",
            "cartier-collapse",
            "multadd-split",
        }

    def test_laws_nonempty(self):
        assert list(kx.RewriteAxiom.__annotations__) == ["name", "law", "apply"]
        for name, ax in AXIOMS.items():
            assert ax.name == name and ax.law and callable(ax.apply)
            assert ax.name in repr(ax)

    def test_unknown_axiom_in_step(self):
        with pytest.raises(ScriptError):
            ChainStep("nope", 0, {}, "x", Lam(A, 1))


def multiadditivity_defect(lines, q):
    """Distributed exponents of I(L1 (x) Q, rest) - I(L1, rest) - I(Q, rest).

    I(X, rest) is lambda((O - X) (x) (O - L2) (x) ...); the difference must be
    exactly minus the full (d+2)-factor block (O - L1)(O - Q)(O - L2)...
    """

    def leaf(name):
        return O if name == "O" else Atom(name)

    first, q, rest = leaf(lines[0]), leaf(q), [o_minus(leaf(x)) for x in lines[1:]]
    lhs = Lam(Ten(o_minus(Ten(first, q)), *rest))
    split = [Lam(Ten(o_minus(x), *rest), -1) for x in (first, q)]
    block = normalize(Lam(Ten(o_minus(first), o_minus(q), *rest), -1))
    return normalize(LamProd(lhs, *split)), block


class TestMultiadditivity:
    def test_defect_is_trivial_block_d1(self):
        defect, block = multiadditivity_defect(["L1", "L2"], "Q")
        assert defect == block
        got = dict(defect)
        want = {}
        names = ["L1", "Q", "L2"]
        for bits in range(8):
            chosen = [names[i] for i in range(3) if bits >> i & 1]
            key = mono(*(at(n) for n in chosen))
            want[key] = (-1) ** (len(chosen) + 1)
        assert got == want

    @pytest.mark.parametrize("rest", [["L2"], ["L2", "L3"], ["L2", "L3", "L4"]])
    def test_defect_across_dimensions(self, rest):
        defect, block = multiadditivity_defect(["L1"] + rest, "Q")
        assert defect == block
        assert len(defect) == 2 ** (len(rest) + 2)

    def test_unit_slot_collapses(self):
        defect, block = multiadditivity_defect(["L1", "L2"], "O")
        assert defect == block == ()


# ----------------------------------------------------------------------
# normal forms held by the tree, against the uncached route


def _oracle(e):
    """The reference normal form: nothing held by the tree, and a tensor
    product's factors multiplied in one at a time."""
    if isinstance(e, kx.One):
        return {((), 0): 1}
    if isinstance(e, kx.Twist):
        return {((), 1): 1}
    if isinstance(e, Atom):
        return {((at(e.name),), 0): 1}
    if isinstance(e, Dual):
        return kx._fs(
            ((tuple(sorted((k, n, p, 1 - d) for k, n, p, d in fs)), tw), c)
            for (fs, tw), c in _oracle(e.inner).items()
        )
    if isinstance(e, Ten):
        out = {((), 0): 1}
        for f in e.factors:
            out = kx._fs_mul(out, _oracle(f))
        return out
    if isinstance(e, Lin):
        return kx._fs((m, n * c) for n, sub in e.terms for m, c in _oracle(sub).items())
    if isinstance(e, Sym):
        return _oracle_sym(e.power, e.inner)
    if isinstance(e, Push):
        return kx._normalize_push(e.binder, _oracle(e.inner))
    raise UnsupportedExpression(type(e).__name__)


def _oracle_sym(j, inner):
    if j < 0:
        raise UnsupportedExpression("negative symmetric power")
    if j == 0:
        return {((), 0): 1}
    fs = _oracle(inner)
    if j == 1:
        return fs
    if len(fs) != 1:
        raise UnsupportedExpression("Sym of a formal sum")
    (factors, tw), c = next(iter(fs.items()))
    if c != 1:
        raise UnsupportedExpression("Sym of a scaled class")
    if not factors:
        return {((), tw * j % 2): 1}
    if len(factors) > 1 or factors[0][0] != "atom":
        raise UnsupportedExpression("Sym of a composite or nested class")
    return {((("sym", factors[0][1], j, factors[0][3]),), tw * j % 2): 1}


def _outcome(normal_form, e):
    """The normal form, or the class of the ScriptError (an unsupported
    tree, or the MAX_MONOMIALS cap) it raises."""
    try:
        return normal_form(e)
    except ScriptError as exc:
        return type(exc)


def _branches(kids):
    return st.one_of(
        st.builds(Dual, kids),
        st.builds(Sym, st.integers(-1, 3), kids),
        st.builds(Push, st.just("N"), kids),
        st.lists(kids, max_size=3).map(lambda fs: Ten(*fs)),
        st.lists(st.tuples(st.integers(-2, 2), kids), min_size=1, max_size=3).map(
            lambda terms: Lin(*terms)
        ),
        # one factor object repeated: a run, an interrupted run, a run and a tail
        st.builds(lambda e, n: Ten(*[e] * n), kids, st.integers(1, 6)),
        st.builds(lambda e, f: Ten(e, e, f, e), kids, kids),
        st.builds(lambda e, f, n: Ten(*[e] * n, f), kids, kids, st.integers(2, 4)),
        # subtrees shared by several parents
        st.builds(lambda e, f: Lin((1, Ten(e, e)), (-2, Ten(f, e, e, e)), (3, Dual(e))), kids, kids),
    )


_names = st.sampled_from("ABN")
# fresh leaves, so no cache outlives one drawn tree; two-term sums make the
# products grow
_trees = st.recursive(
    st.builds(kx.One)
    | st.builds(kx.Twist)
    | _names.map(Atom)
    | st.builds(lambda n, c: Lin((1, kx.One()), (c, Atom(n))), _names, st.sampled_from([-1, 2])),
    _branches,
    max_leaves=12,
)
_caps = st.sampled_from([4, 16, 64, kx.MAX_MONOMIALS])


def _nodes(e):
    """Every tree node under e once, e first."""
    seen, out, todo = set(), [], [e]
    while todo:
        node = todo.pop()
        if id(node) in seen or not isinstance(node, kx._Tree):
            continue
        seen.add(id(node))
        out.append(node)
        if isinstance(node, (Dual, Sym, Push)):
            todo.append(node.inner)
        elif isinstance(node, Ten):
            todo.extend(node.factors)
        elif isinstance(node, Lin):
            todo.extend(sub for _n, sub in node.terms)
    return out


class TestTreeHeldNormalForms:
    @settings(max_examples=300, deadline=None)
    @given(tree=_trees, cap=_caps)
    def test_matches_the_uncached_route(self, tree, cap):
        with mock.patch.object(kx, "MAX_MONOMIALS", cap):
            want = _outcome(_oracle, tree)
            assert _outcome(normalize_expr, tree) == want
            assert _outcome(normalize_expr, tree) == want  # read back from the tree

    @settings(max_examples=150, deadline=None)
    @given(tree=_trees, cap=_caps, data=st.data())
    def test_does_not_depend_on_call_order(self, tree, cap, data):
        twin = copy.deepcopy(tree)  # before either is normalized
        nodes, twin_nodes = _nodes(tree), _nodes(twin)
        order = [0] + data.draw(st.permutations(range(1, len(nodes))))
        with mock.patch.object(kx, "MAX_MONOMIALS", cap):
            subtrees_first = {i: _outcome(normalize_expr, nodes[i]) for i in order[::-1]}
            whole_first = {i: _outcome(normalize_expr, twin_nodes[i]) for i in order}
        assert subtrees_first == whole_first

    def test_runs_of_one_factor_object(self):
        e, f = o_minus(A), Lin((1, B), (2, T))
        for tree in (Ten(e), Ten(e, e, e), Ten(e, e, f, e), Ten(e, f, e, e), Ten(e, e, e, f)):
            assert normalize_expr(tree) == _oracle(tree)

    def test_cache_leaves_equality_hash_and_repr(self):
        e, twin = Ten(o_minus(A), B), Ten(o_minus(A), B)
        assert normalize_expr(e) is normalize_expr(e)
        assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
        assert normalize_expr(twin) == normalize_expr(e)
        display = LamProd(Lam(e, 2), Lam(B, -1))
        assert normalize(display) is normalize(display)

    def test_pk_block_costs_about_k_products(self, monkeypatch):
        products = []
        mul = kx._fs_mul
        monkeypatch.setattr(kx, "_fs_mul", lambda a, b: products.append(1) or mul(a, b))
        k = 30
        normalize_expr(kx._pk_tree(k, o_minus(L)))
        assert len(products) <= 2 * k  # not the k^2 / 2 of building each power afresh

    CHAINS = [(n, d) for n in ("invfunc-a-k", "invfunc-l-p") for d in (1, 2, 3)]

    @pytest.mark.parametrize("name, dim", CHAINS + [("multadd-d1", 1)])
    def test_twins_fail_at_their_step_before_and_after_the_clean_run(self, name, dim):
        # each twin's report is the same whether it runs on a fresh script or
        # before or after the clean run, which leaves rewrites on the displays
        steps = range(1, len(get_chain(name, dim).steps) + 1)

        def reports(script):
            return [chain_verify(corrupt_script(script, i)).to_obj() for i in steps]

        fresh = reports(get_chain(name, dim))
        assert [r["failed_step"] for r in fresh] == list(steps)
        script = get_chain(name, dim)
        assert reports(script) == fresh
        clean = chain_verify(script)
        assert clean.ok
        assert reports(script) == fresh
        assert chain_verify(script).to_obj() == clean.to_obj()


class TestKeptRewrites:
    """A display keeps each rewrite made from it; reading one back never
    changes a report."""

    CHAINS = [(n, d) for n in ("invfunc-a-k", "invfunc-l-p") for d in (1, 2)] + [
        ("multadd-d1", 1)
    ]

    @pytest.mark.parametrize("name, dim", CHAINS)
    def test_new_args_object_is_rewritten_again(self, name, dim, monkeypatch):
        # after the clean run, a step moved to another position, or given an
        # args object that names another atom, is rewritten afresh (the steps
        # before it are read back) and fails there
        script = get_chain(name, dim)
        assert chain_verify(script).ok
        calls = []
        apply = kx._apply_axiom
        monkeypatch.setattr(kx, "_apply_axiom", lambda *a: calls.append(a[1].name) or apply(*a))
        changed = 0
        for i, step in enumerate(script.steps, 1):
            edits = [(99, step.args)]  # out of range, with the same args object
            edits += [
                (step.position, {**step.args, key: "zz"})
                for key, value in step.args.items()
                if isinstance(value, str)
            ]
            for position, args in edits:
                steps = list(script.steps)
                steps[i - 1] = ChainStep(step.axiom, position, args, step.note, step.expected)
                calls.clear()
                rep = chain_verify(ChainScript(script.name, script.start, script.end, tuple(steps)))
                assert (rep.ok, rep.failed_step) == (False, i), (i, position, args)
                assert calls == [step.axiom]
                changed += 1
        assert changed
        # the clean run reads every step back
        calls.clear()
        assert chain_verify(script).ok and calls == []

    def test_failures_are_not_kept(self, monkeypatch):
        start = parse_expr("(prod (lam A 1) (lam B 1))")
        step = ChainStep("line-twist-flip", 1, {"atom": "A"}, "s", start)
        script = ChainScript("s", start, start, (step,))
        calls = []
        apply = kx._apply_axiom
        monkeypatch.setattr(kx, "_apply_axiom", lambda *a: calls.append(1) or apply(*a))
        for _ in range(2):
            rep = chain_verify(script)
            assert rep.failed_step == 1 and "does not occur" in rep.reason
        assert len(calls) == 2 and "_rewrites" not in start.__dict__

    def test_display_must_be_a_lambda_expression(self):
        good = get_chain("multadd-d1")
        first = good.steps[0]
        step = ChainStep(first.axiom, first.position, first.args, first.note, Ten(A))
        with pytest.raises(UnsupportedExpression, match="lambda expression"):
            chain_verify(ChainScript(good.name, good.start, good.end, (step,)))
        with pytest.raises(UnsupportedExpression, match="lambda expression"):
            chain_verify(ChainScript(good.name, Ten(A), good.end, ()))
