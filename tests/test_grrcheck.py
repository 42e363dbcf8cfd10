"""Tests for the first-Chern-class verification engine.

Frozen values in this file were derived by hand before the module was
written: the degree-by-degree expansion of the universal defect at d = 1,
cohomology determinant degrees for the trivial product family (via monomial
counting), and the integer lattice deductions.
"""

import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from detlam import chowmodel, combinat, grrcheck
from detlam.charclass import adams_rescale, ch_from_chern, dual_ch, sym_ch, sym_ch_table
from detlam.chowmodel import (
    BundleClass,
    builtin_model,
    model_hirzebruch,
    model_pn,
    model_pn_x_pm,
)
from detlam.exactalg import DomainError, Rational, TruncatedSeries, VarTable
from detlam.grrcheck import (
    ComboTerm,
    c1_lambda,
    deligne_combo_d1,
    ducrot_defect,
    euler_char,
    main_combo,
    parse_linear_expr,
    picard_deduce,
    preset_relations,
    universal_report,
    verify_main_on_model,
)

# ----------------------------------------------------------------------
# universal (model-free) defect


def test_universal_defect_d1_frozen_components():
    vt = VarTable([("l", 1), ("a1", 1)])
    defect = universal_report(1).defect
    l = TruncatedSeries.gen(vt, 2, "l")
    a = TruncatedSeries.gen(vt, 2, "a1")
    assert defect.component(0) == TruncatedSeries.constant(vt, 2, 12)
    assert defect.component(1) == 8 * l - 4 * a
    assert defect.component(2).is_zero()


def test_universal_report_d1_shows_combo_and_todd():
    rep = universal_report(1)
    vt = rep.combo_ch.vars
    l = TruncatedSeries.gen(vt, 2, "l")
    a = TruncatedSeries.gen(vt, 2, "a1")
    # D = 12 + 8l + 2a + 4la, Td = 1 - a/2 + a^2/12
    want_D = 12 + 8 * l + 2 * a + 4 * l * a
    assert rep.combo_ch == want_D
    want_td = 1 + a * Rational(-1, 2) + a * a * Rational(1, 12)
    assert rep.todd == want_td
    assert rep.top_degree_zero
    assert not rep.subtop_zero


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_main_theorem_defect_vanishes(d):
    rep = universal_report(d)
    assert rep.top_degree_zero
    defect = rep.defect
    assert defect.component(d + 1).is_zero()
    assert not defect.component(d).is_zero()
    # degree-0 part counts virtual ranks: each Sym^j of the rank-d
    # cotangent contributes C(d+j-1, j)
    from math import comb

    want = sum(t.coeff * comb(d + t.sym - 1, t.sym) for t in main_combo(d))
    assert defect.component(0) == TruncatedSeries.constant(defect.vars, d + 1, want)
    assert want != 0


def test_degenerate_d0_fails_with_frozen_witness():
    rep = universal_report(0, allow_degenerate=True)
    assert not rep.top_degree_zero
    defect = rep.defect
    vt = defect.vars
    assert defect.component(1) == 2 * TruncatedSeries.gen(vt, 1, "l")
    with pytest.raises(DomainError):
        universal_report(0)


def test_deligne_combo_d1_vanishes_in_top_degree():
    combo = deligne_combo_d1()
    assert sum(t.coeff for t in combo) == 0
    defect = universal_report(1, combo).defect
    vt = defect.vars
    l = TruncatedSeries.gen(vt, 2, "l")
    assert defect.component(0).is_zero()
    assert defect.component(1) == 12 * l
    assert defect.component(2).is_zero()


def test_combo_serialization_round_trip():
    combo = main_combo(2)
    obj = universal_report(2).to_obj()["combo"]
    rebuilt = tuple(ComboTerm(int(r["coeff"]), r["twist"], r["sym"], r["dual"]) for r in obj)
    assert rebuilt == combo
    assert all(set(rec) == {"coeff", "twist", "sym", "dual"} for rec in obj)


def _root_ring(d):
    return VarTable([("l", 1)] + [(f"r{i}", 1) for i in range(1, d + 1)])


def _substitute_roots(series, d):
    """``series`` over l, a_1..a_d with each a_i -> e_i(r_1..r_d), in the
    root ring, one monomial at a time."""
    vt = _root_ring(d)
    bound = d + 1
    roots = [TruncatedSeries.gen(vt, bound, f"r{i}") for i in range(1, d + 1)]
    total = TruncatedSeries.one(vt, bound)
    for r in roots:
        total = total * (1 + r)
    images = [TruncatedSeries.gen(vt, bound, "l")] + [total.component(i) for i in range(1, d + 1)]
    out = TruncatedSeries.zero(vt, bound)
    for exps, coeff in series.terms.items():
        term = TruncatedSeries.constant(vt, bound, coeff)
        for image, e in zip(images, exps):
            term = term * image**e
        out = out + term
    return out


def _root_ring_universal(d, combo):
    """combo_ch, Td(T) and the defect over the Chern roots r_i of Omega.

    combo_ch is summed one term at a time from ch(Omega) = sum_i e^(r_i).
    Td(T) is the product over the tangent roots -r_i of the single-root
    factor -r/(1 - e^r) = 1 / sum_n r^n/(n+1)!, with no Chern class.
    """
    vt = _root_ring(d)
    bound = d + 1
    l = TruncatedSeries.gen(vt, bound, "l")
    roots = [TruncatedSeries.gen(vt, bound, f"r{i}") for i in range(1, d + 1)]
    zero = TruncatedSeries.zero(vt, bound)
    ch_omega = sum((r.exp() for r in roots), zero)
    combo_ch = zero
    for term in combo:
        s = sym_ch(ch_omega, term.sym)
        if term.dual:
            s = dual_ch(s)
        combo_ch = combo_ch + (l * term.twist).exp() * s * term.coeff
    todd = TruncatedSeries.one(vt, bound)
    for r in roots:
        todd = todd * sum((r**n / factorial(n + 1) for n in range(bound + 1)), zero).inverse()
    return combo_ch, todd, combo_ch * todd


# repeats twists 1 and 0, each with dual and non-dual terms
MIXED_COMBO = (
    ComboTerm(3, 1, 2),
    ComboTerm(-5, 1, 2, dual=True),
    ComboTerm(2, 1, 0),
    ComboTerm(7, 0, 1, dual=True),
    ComboTerm(-1, 0, 3),
    ComboTerm(4, 2, 1, dual=True),
)


@pytest.mark.parametrize(
    "d, combo",
    [(1, None), (2, None), (3, None), (1, deligne_combo_d1()), (2, MIXED_COMBO), (4, None)],
)
def test_universal_combo_ch_matches_term_by_term_sum(d, combo):
    # a_i -> e_i(r) carries the Chern-class ring report onto the root ring
    rep = universal_report(d, combo)
    want_combo_ch, want_todd, want_defect = _root_ring_universal(d, rep.combo)
    assert _substitute_roots(rep.combo_ch, d) == want_combo_ch
    assert _substitute_roots(rep.todd, d) == want_todd
    assert _substitute_roots(rep.defect, d) == want_defect


# ----------------------------------------------------------------------
# vanishing of the ideal-block product


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ducrot_full_factor_count_vanishes(d):
    assert ducrot_defect(d).is_zero()


def test_ducrot_short_product_is_nonzero():
    defect = ducrot_defect(1, factors=2, allow_short=True)
    vt = defect.vars
    l1 = TruncatedSeries.gen(vt, 2, "l1")
    l2 = TruncatedSeries.gen(vt, 2, "l2")
    assert defect.component(2) == l1 * l2
    assert not defect.is_zero()
    with pytest.raises(DomainError):
        ducrot_defect(1, factors=2)


# ----------------------------------------------------------------------
# determinant degree on models


def cohomology_oracle_degree(a: int, b: int) -> int:
    # On the trivial P1-family, the pushforward of O(a,b) has determinant
    # degree b * (h0 - h1) with h0, h1 given by monomial counts in two
    # variables and their duals.
    h0 = max(a + 1, 0)
    h1 = max(-a - 1, 0)
    return b * (h0 - h1)


def test_c1_lambda_trivial_family_matches_cohomology_counts():
    m = model_pn_x_pm(1, 1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            line = BundleClass.line(m, {"h": a, "s": b})
            assert c1_lambda(m, line) == cohomology_oracle_degree(a, b)


def test_c1_lambda_requires_one_dimensional_base():
    p2 = model_pn(2)
    with pytest.raises(DomainError):
        c1_lambda(p2, BundleClass.line(p2, {"h": 1}))
    m = model_pn_x_pm(1, 2)
    with pytest.raises(DomainError):
        c1_lambda(m, BundleClass.line(m, {"h": 1, "s": 0}))


def test_c1_lambda_hirzebruch_frozen():
    # deg lambda(O(z)) = -e; pinned by the e = 0 product comparison
    for e in range(4):
        m = model_hirzebruch(e)
        assert c1_lambda(m, BundleClass.line(m, {"z": 1, "f": 0})) == -e


def test_verify_main_p1xp1_headline_numbers():
    m = model_pn_x_pm(1, 1)
    rep = verify_main_on_model(m, {"h": 1, "s": 1})
    assert rep.lhs_exponent == 16
    assert rep.lhs_degree == 2
    assert rep.lhs == 32
    assert [(j, c, deg) for j, c, deg in rep.rhs_rows] == [
        (0, 7, 6),
        (1, -4, 2),
        (2, 1, -2),
    ]
    assert rep.rhs == 32
    assert rep.ok


def test_verify_main_p1xp1_all_small_lines():
    m = model_pn_x_pm(1, 1)
    for a in range(-2, 3):
        for b in range(-2, 3):
            assert verify_main_on_model(m, {"h": a, "s": b}).ok


@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_verify_main_hirzebruch_trivial_line(e):
    rep = verify_main_on_model(model_hirzebruch(e), {"z": 0, "f": 0})
    assert rep.ok
    assert rep.lhs == 0 and rep.rhs == 0


@pytest.mark.parametrize("e", [1, 2])
def test_verify_main_hirzebruch_nontrivial_lines(e):
    m = model_hirzebruch(e)
    for a in range(-1, 2):
        for b in range(-1, 2):
            assert verify_main_on_model(m, {"z": a, "f": b}).ok


def test_verify_main_d2_family():
    m = model_pn_x_pm(2, 1)
    rep = verify_main_on_model(m, {"h": 1, "s": 1})
    assert rep.lhs_exponent == 64
    assert len(rep.rhs_rows) == 5
    assert rep.ok
    assert verify_main_on_model(m, {"h": -1, "s": 2}).ok


# the model-sweep families: P^n x P^1 and the Hirzebruch surfaces
CACHE_MODELS = [
    ("P1xP1", {}),
    ("P2xP1", {}),
    ("P3xP1", {}),
    ("Hirzebruch", {"e": 0}),
    ("Hirzebruch", {"e": 1}),
    ("Hirzebruch", {"e": 2}),
    ("Hirzebruch", {"e": 3}),
]


@pytest.mark.parametrize("name, params", CACHE_MODELS)
def test_warm_model_reports_equal_fresh_model_reports(name, params):
    warm = builtin_model(name, **params)
    before = warm.to_obj()
    rng = random.Random(f"{name}{params}")
    for _ in range(8):
        line = {g: rng.randint(-3, 3) for g in warm.vars.names}
        got = verify_main_on_model(warm, line)
        want = verify_main_on_model(builtin_model(name, **params), line)
        assert got == want
        assert got.to_obj() == want.to_obj()
    assert warm.to_obj() == before


@pytest.mark.parametrize("name, params", CACHE_MODELS)
def test_cotangent_sym_table_matches_direct_route(name, params):
    m = builtin_model(name, **params)
    d = m.rel_dim
    omega_chern = m.normal_form(adams_rescale(m.tangent_chern, -1))
    ch_omega = m.normal_form(ch_from_chern(d, omega_chern))
    # the cache reduces each entry as it is built; that equals reducing the
    # unreduced table at the end
    assert m.cotangent_sym_table() == tuple(map(m.normal_form, sym_ch_table(ch_omega, 2 * d)))


def test_cotangent_sym_table_is_built_once_per_model(monkeypatch):
    built = []

    def counted(ch, top, *rest):
        built.append(top)
        return sym_ch_table(ch, top, *rest)

    monkeypatch.setattr(chowmodel, "sym_ch_table", counted)
    m = model_pn_x_pm(2, 1)
    for a in range(-1, 2):
        assert verify_main_on_model(m, {"h": a, "s": 1}).ok
    assert built == [4]
    verify_main_on_model(model_pn_x_pm(2, 1), {"h": 1, "s": 1})
    assert built == [4, 4]


def test_warm_verify_main_normal_forms_only_the_line_classes(monkeypatch):
    m = model_pn_x_pm(1, 1)
    line = {"h": 2, "s": -1}
    want = verify_main_on_model(m, line)
    calls = []
    original = chowmodel.ChowModel.normal_form

    def counted(self, series):
        calls.append(series)
        return original(self, series)

    monkeypatch.setattr(chowmodel.ChowModel, "normal_form", counted)
    assert verify_main_on_model(m, line) == want
    # c1 once and e^(c1) once; ch(L^t) is psi^t of it, and the rows are
    # paired unreduced
    assert len(calls) == 2


def test_warm_verify_main_takes_one_exp_and_reads_a_cached_combo(monkeypatch):
    m = model_pn_x_pm(2, 1)
    line = {"h": -1, "s": 2}
    want = verify_main_on_model(m, line)
    exps, tables = [], []
    exp = TruncatedSeries.exp
    table = combinat.coeff_table

    def counted_exp(self):
        exps.append(self)
        return exp(self)

    def counted_table(d):
        tables.append(d)
        return table(d)

    monkeypatch.setattr(TruncatedSeries, "exp", counted_exp)
    monkeypatch.setattr(grrcheck, "coeff_table", counted_table)
    monkeypatch.setattr(combinat, "coeff_table", counted_table)
    assert verify_main_on_model(m, line) == want
    assert len(exps) == 1 and tables == []


BUILTIN_MODELS = [
    ("P1", {}),
    ("P3", {}),
    ("PnxPm", {"n": 2, "m": 2}),
    *CACHE_MODELS,
]


@pytest.mark.parametrize("name, params", BUILTIN_MODELS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_adams_of_reduced_exp_equals_reduced_twisted_exp(name, params, data):
    # verify_main_on_model's ch(L^t) = psi^t(nf(e^c1)) against nf(e^(t c1))
    m = builtin_model(name, **params)
    line = {g: data.draw(st.integers(-4, 4), label=g) for g in m.vars.names}
    c1 = m.normal_form(m.first_chern(line))
    e = m.normal_form(c1.exp())
    for t in range(-3, 4):
        assert adams_rescale(e, t) == m.normal_form((c1 * t).exp())


def test_hirzebruch_models_do_not_share_cached_classes():
    one, two = model_hirzebruch(1), model_hirzebruch(2)
    t1, t2 = one.cotangent_sym_table(), two.cotangent_sym_table()
    assert t1[1] != t2[1]
    assert t2 == model_hirzebruch(2).cotangent_sym_table()
    assert one.cotangent_sym_table() is t1
    line = {"z": 1, "f": 1}
    assert verify_main_on_model(two, line) == verify_main_on_model(model_hirzebruch(2), line)


def test_mumford_ratio_on_hirzebruch():
    # deg lambda(Omega^2) == 13 * deg lambda(Omega); both vanish because
    # x = c1(T_f) squares to zero on these surfaces
    for e in (1, 2, 3):
        m = model_hirzebruch(e)
        omega = BundleClass(rank=1, chern=m.normal_form(m.one() - m.tangent_chern.component(1)))
        omega2 = BundleClass(
            rank=1, chern=m.normal_form(m.one() - 2 * m.tangent_chern.component(1))
        )
        d1 = c1_lambda(m, omega)
        d2 = c1_lambda(m, omega2)
        assert d2 == 13 * d1
        assert d1 == 0 and d2 == 0


# ----------------------------------------------------------------------
# Euler characteristics over a point


def monomial_count(n: int, a: int) -> int:
    # number of degree-a monomials in n+1 variables
    from math import comb

    return comb(a + n, n) if a >= 0 else 0


def test_euler_char_p1_line_bundles():
    p1 = model_pn(1)
    for a in range(-3, 4):
        got = euler_char(p1, BundleClass.line(p1, {"h": a}))
        want = monomial_count(1, a) - monomial_count(1, -a - 2)
        assert got == want == a + 1


def test_euler_char_p2_line_bundles():
    p2 = model_pn(2)
    for a in range(0, 4):
        got = euler_char(p2, BundleClass.line(p2, {"h": a}))
        assert got == monomial_count(2, a) == (a + 1) * (a + 2) // 2


def test_euler_char_rejects_families():
    m = model_pn_x_pm(1, 1)
    with pytest.raises(DomainError):
        euler_char(m, BundleClass.line(m, {"h": 1, "s": 1}))


def test_euler_char_line_combo():
    p1 = model_pn(1)
    # rank 0 with c_1 = 2h is the class O(2) - O: chi(O(2)) - chi(O) = 3 - 1
    h = TruncatedSeries.gen(p1.vars, p1.total_dim, "h")
    combo = BundleClass(rank=0, chern=p1.one() + h * 2)
    assert euler_char(p1, combo) == 2


# ----------------------------------------------------------------------
# lattice deductions


def test_picard_deduction_chain_frozen():
    symbols = ["l0", "l1", "l2"]
    rep = picard_deduce(symbols, [[9, 4, -1], [1, -1, 0]], [0, 13, -1])
    assert rep.derivable and not any(rep.remainder)
    assert not picard_deduce(symbols, [[9, 4, -1], [1, -1, 0]], [0, 12, 0]).derivable
    rep = picard_deduce(symbols, [[9, 4, -1], [1, -1, 0], [0, 1, -1]], [0, 12, 0])
    assert rep.derivable


def test_picard_integer_vs_rational_span():
    relations = [[2, 0]]
    assert not picard_deduce(["x", "y"], relations, [1, 0]).derivable
    assert picard_deduce(["x", "y"], relations, [4, 0]).derivable
    assert not picard_deduce(["x", "y"], relations, [0, 1]).derivable


def test_picard_deduce_reports():
    rep = picard_deduce(
        ["l0", "l1", "l2"],
        ["16*l0 = 7*l0 - 4*l1 + l2", "l0 = l1"],
        "13*l1 = l2",
    )
    assert rep.derivable
    rep2 = picard_deduce(
        ["l0", "l1", "l2"],
        ["16*l0 = 7*l0 - 4*l1 + l2", "l0 = l1"],
        "12*l1 = 0",
    )
    assert not rep2.derivable
    assert any(rep2.remainder)


def test_preset_relations_match_table():
    symbols, relations = preset_relations("mumford")
    assert symbols == ["l0", "l1", "l2"]
    assert [9, 4, -1] in relations and [1, -1, 0] in relations
    symbols_e, relations_e = preset_relations("elliptic")
    assert [0, 1, -1] in relations_e


def test_model_check_and_presets_read_main_combo(monkeypatch):
    # both settings take their coefficients from main_combo: scaling its
    # rows scales the model check's rows and the preset's exponent relation
    original = grrcheck.main_combo

    def scaled(d, allow_degenerate=False):
        head, *rows = original(d, allow_degenerate)
        return (head, *(ComboTerm(3 * t.coeff, t.twist, t.sym, t.dual) for t in rows))

    model = model_pn_x_pm(1, 1)
    before = verify_main_on_model(model, {"h": 1, "s": 1})
    monkeypatch.setattr(grrcheck, "main_combo", scaled)
    after = verify_main_on_model(model, {"h": 1, "s": 1})
    assert after.rhs_rows == tuple((j, 3 * c, deg) for j, c, deg in before.rhs_rows)
    assert after.rhs == 3 * before.rhs == 96
    assert (after.lhs_exponent, after.lhs) == (before.lhs_exponent, before.lhs) == (16, 32)
    assert not after.ok
    symbols, relations = preset_relations("mumford")
    assert relations == [[16 - 3 * 7, 3 * 4, -3], [1, -1, 0]]


def test_parse_linear_expr():
    sym = ["l0", "l1", "l2"]
    assert parse_linear_expr("13*l1 - l2", sym) == [0, 13, -1]
    assert parse_linear_expr("16*l0 = 7*l0 - 4*l1 + l2", sym) == [9, 4, -1]
    assert parse_linear_expr("12*l1 = 0", sym) == [0, 12, 0]
    with pytest.raises(DomainError):
        parse_linear_expr("13*lX", sym)
    with pytest.raises(DomainError):
        parse_linear_expr("l0 = l1 = l2", sym)


def test_relation_sets_do_not_merge_formally():
    # the 18-coefficient relation does not integer-generate the
    # 16-coefficient one over the union of their symbols
    symbols = ["lL", "lO", "lL2", "lL2O", "lL2O2", "lLOd", "lL2Od"]
    deligne = [[18, -18, 0, 0, 0, 6, -6]]
    main = [16, 0, -7, 4, -1, 0, 0]
    assert not picard_deduce(symbols, deligne, main).derivable


# ----------------------------------------------------------------------
# combo term hygiene


def test_main_combo_shape():
    combo = main_combo(1)
    assert combo[0] == ComboTerm(16, 1, 0, False)
    assert ComboTerm(-7, 2, 0, False) in combo
    assert ComboTerm(4, 2, 1, False) in combo
    assert ComboTerm(-1, 2, 2, False) in combo
    assert sum(t.coeff for t in main_combo(3)) == 3 * 4 ** 3
