"""Tests for the first-Chern-class verification engine.

Frozen values in this file were derived by hand before the module was
written: the degree-by-degree expansion of the universal defect at d = 1,
cohomology determinant degrees for the trivial product family (via monomial
counting), and the integer lattice deductions.
"""

import random
import sys
from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from detlam import chowmodel, combinat, grrcheck
from detlam.charclass import _rank_zero_sym, _sym_weights, adams_rescale, ch_from_chern
from detlam.charclass import todd_from_chern
from detlam.chowmodel import (
    ChowModel,
    ModelError,
    builtin_model,
    load_model,
    model_hirzebruch,
    model_pn,
    model_pn_x_pm,
)
from detlam.exactalg import DomainError, Rational, TruncatedSeries, VarTable, _combine, _series
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
from test_charclass import adams_sym_table, sym_ch_table

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


@pytest.mark.parametrize("d", range(1, 17))
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

    combo_ch is summed one term at a time from ch(Omega) = sum_i e^(r_i),
    each Sym character by the Adams recurrence (``adams_sym_table``), apart
    from the rank-zero route of ``universal_report``.
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
        s = adams_sym_table(ch_omega, term.sym)[term.sym]
        if term.dual:
            s = adams_rescale(s, -1)
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
    defect = ducrot_defect(1, factors=2)
    vt = defect.vars
    l1 = TruncatedSeries.gen(vt, 2, "l1")
    l2 = TruncatedSeries.gen(vt, 2, "l2")
    assert defect.component(2) == l1 * l2
    assert not defect.is_zero()


@pytest.mark.parametrize("d", range(7))
def test_ducrot_chain_prefix_is_the_short_product(d):
    # verify-all reads its control from the (d+1)-factor prefix of the
    # (d+2)-factor chain: in the ring with one more variable it is the short
    # product, each exponent vector with a trailing 0
    *_, prefix, last = grrcheck._ducrot_chain(d, d + 2)
    short = ducrot_defect(d, d + 1)
    assert prefix.sorted_items() == [(exps + (0,), c) for exps, c in short.sorted_items()]
    assert last == ducrot_defect(d)


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
            assert c1_lambda(m, {"h": a, "s": b}) == cohomology_oracle_degree(a, b)


def test_c1_lambda_requires_one_dimensional_base():
    p2 = model_pn(2)
    with pytest.raises(DomainError):
        c1_lambda(p2, {"h": 1})
    m = model_pn_x_pm(1, 2)
    with pytest.raises(DomainError):
        c1_lambda(m, {"h": 1, "s": 0})


def test_c1_lambda_hirzebruch_frozen():
    # deg lambda(O(z)) = -e; pinned by the e = 0 product comparison
    for e in range(4):
        m = model_hirzebruch(e)
        assert c1_lambda(m, {"z": 1, "f": 0}) == -e


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
    # the model caches the G_i of Omega, from which the Sym table is weighed
    m = builtin_model(name, **params)
    d = m.rel_dim
    omega_chern = m.normal_form(adams_rescale(m.tangent_chern, -1))
    ch_omega = m.normal_form(ch_from_chern(d, omega_chern))
    n = min(2 * d, m.total_dim)
    g = m.cotangent_rank_zero()
    # the cache reduces each G_i as it is built; that equals reducing the
    # unreduced classes at the end
    assert g == tuple(map(m.normal_form, _rank_zero_sym(ch_omega, n)))
    weighed = [_combine(ch_omega, zip(_sym_weights(d, j, n), g)) for j in range(2 * d + 1)]
    assert weighed == list(map(m.normal_form, sym_ch_table(ch_omega, 2 * d)))


def test_cotangent_sym_table_is_built_once_per_model(monkeypatch):
    # the G_i the Sym table is weighed from
    built = []

    def counted(ch, n, *rest):
        built.append(n)
        return _rank_zero_sym(ch, n, *rest)

    monkeypatch.setattr(chowmodel, "_rank_zero_sym", counted)
    m = model_pn_x_pm(2, 1)
    for a in range(-1, 2):
        assert verify_main_on_model(m, {"h": a, "s": 1}).ok
    # n = min(2d, total_dim) = 3
    assert built == [3]
    verify_main_on_model(model_pn_x_pm(2, 1), {"h": 1, "s": 1})
    assert built == [3, 3]


def power_family(a, k):
    """(P^a)^k x P^1 -> P^1, loaded from its JSON description: fiber
    classes h0..h(k-1) with h_i^(a+1) = 0, base class s with s^2 = 0."""
    names = [(f"h{i}", 1) for i in range(k)] + [("s", 1)]
    vt, total = VarTable(names), a * k + 1
    one = TruncatedSeries.one(vt, total)
    tangent = one
    for i in range(k):
        tangent = tangent * (one + TruncatedSeries.gen(vt, total, f"h{i}")) ** (a + 1)
    leads = [tuple((a + 1) * (j == i) for j in range(k + 1)) for i in range(k)]
    model = ChowModel(
        name=f"P{a}^{k}xP1",
        generators=names,
        relations=[(lead, []) for lead in leads + [(0,) * k + (2,)]],
        rel_dim=a * k,
        total_dim=total,
        base_generators=["s"],
        tangent_chern=tangent,
        point_class=(a,) * k + (1,),
    )
    return load_model(model.to_obj())


def degrees_by_the_sym_table(m, line):
    """Each term's degree as the pairing of the product ch(L^t) nf(s_j),
    with the s_j from the test-local ``sym_ch_table``: the route
    ``verify_main_on_model`` took before it weighed pairings with the G_i."""
    d = m.rel_dim
    omega_chern = m.normal_form(adams_rescale(m.tangent_chern, -1))
    ch_omega = m.normal_form(ch_from_chern(d, omega_chern))
    sym = [m.normal_form(s) for s in sym_ch_table(ch_omega, 2 * d)]
    ch_line = grrcheck._line_ch(m, line)
    return [
        grrcheck._degree(m, adams_rescale(ch_line, t.twist) * sym[t.sym], "determinant degree")
        for t in main_combo(d)
    ]


def report_degrees(rep):
    return [rep.lhs_degree] + [deg for _j, _c, deg in rep.rhs_rows]


@pytest.mark.parametrize("name, params", CACHE_MODELS + [("P4xP1", {})])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_row_degrees_equal_the_sym_table_route(name, params, data):
    m = builtin_model(name, **params)
    line = {g: data.draw(st.integers(-5, 5), label=g) for g in m.vars.names}
    assert report_degrees(verify_main_on_model(m, line)) == degrees_by_the_sym_table(m, line)


def twisted_p1xp1():
    """P1xP1 loaded with c(T_f) = 1 + 2h + 12s, so x = c_1(Omega) has
    x^2 = 48 hs and G_2 = x^2 is not zero. On every built-in family and on
    ``power_family``, Omega comes from the fiber and G_n vanishes at
    n = total_dim, so only a model like this one sees the top G_n."""
    obj = model_pn_x_pm(1, 1).to_obj()
    obj["tangent_chern"] = [
        {"exponents": e, "coeff": c} for e, c in [([0, 0], "1"), ([1, 0], "2"), ([0, 1], "12")]
    ]
    return load_model(obj)


@pytest.mark.parametrize(
    "build",
    [lambda: model_pn_x_pm(2, 1), lambda: model_hirzebruch(2), lambda: power_family(2, 3)],
    ids=["P2xP1", "F2", "P2^3xP1"],
)
def test_first_chern_of_one_generator_is_the_generator_series(build):
    # first_chern, TruncatedSeries.gen and verify_main_all_lines all write a
    # generator's key through _Layout.gen; the exponent route checks it
    m = build()
    n = len(m.vars)
    for i, (g, w) in enumerate(zip(m.vars.names, m.vars.weights)):
        assert w == 1
        c1 = m.first_chern({g: 1})
        assert c1 == TruncatedSeries.gen(m.vars, m.total_dim, g)
        assert c1 == TruncatedSeries(m.vars, m.total_dim, {tuple(int(j == i) for j in range(n)): 1})


@pytest.mark.parametrize(
    "build, top_g_vanishes",
    [(lambda: power_family(2, 3), True), (twisted_p1xp1, False)],
    ids=["P2^3xP1", "twisted-P1xP1"],
)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_row_degrees_equal_the_sym_table_route_on_a_model_file(build, top_g_vanishes, coeffs):
    m = build()
    assert m.cotangent_rank_zero()[-1].is_zero() == top_g_vanishes
    line = dict(zip(m.vars.names, coeffs))
    rep = verify_main_on_model(m, line)
    assert rep.ok
    assert report_degrees(rep) == degrees_by_the_sym_table(m, line)


@pytest.mark.parametrize(
    "name, params, pairings",
    [(name, params, 4) for name, params in CACHE_MODELS if name not in ("P2xP1", "P3xP1")]
    + [("P2xP1", {}, 5), ("P3xP1", {}, 6)],
)
def test_warm_verify_main_takes_n_plus_2_degree_integrals(monkeypatch, name, params, pairings):
    # n = min(2d, total_dim) = d + 1 on P^d x P^1 and 2 on F_e: one pairing
    # for the head term at twist 1, and n + 1 at twist 2, one per G_i
    m = builtin_model(name, **params)
    line = {g: 1 for g in m.vars.names}
    want = verify_main_on_model(m, line)
    calls = []
    original = grrcheck._degree

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grrcheck, "_degree", counted)
    assert verify_main_on_model(m, line) == want
    assert len(calls) == pairings == len(m.cotangent_rank_zero()) + 1


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


@pytest.mark.parametrize("name, params", [("P1xP1", {}), ("Hirzebruch", {"e": 2})])
def test_warm_verify_main_rescales_once_and_keeps_the_cotangent_classes(monkeypatch, name, params):
    # d = 1 reads twists 1 and 2; psi^1(ch L) is ch L itself, so one
    # rescaled series is built, and the G_i are read from the model
    m = builtin_model(name, **params)
    line = {g: 3 - 2 * k for k, g in enumerate(m.vars.names)}
    want = verify_main_on_model(m, line)
    g = m.cotangent_rank_zero()
    weighs, builds = [], []
    weigh = TruncatedSeries._graded_weigh
    rank_zero = chowmodel._rank_zero_sym

    def counted_weigh(self, weight):
        weighs.append(list(weight))
        return weigh(self, weight)

    def counted_rank_zero(*args):
        builds.append(args)
        return rank_zero(*args)

    monkeypatch.setattr(TruncatedSeries, "_graded_weigh", counted_weigh)
    monkeypatch.setattr(chowmodel, "_rank_zero_sym", counted_rank_zero)
    assert verify_main_on_model(m, line) == want
    assert weighs == [[2**k for k in range(m.total_dim + 1)]]
    assert builds == [] and m.cotangent_rank_zero() is g


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


def main_report_by_the_psi_series_route(m, line):
    """``verify_main_on_model`` by a route with no shortcut: psi^t(ch L)
    built at every twist, 1 included, and every pairing, i = 0 included,
    the degree of the product psi^t(ch L) G_i, with the pairs and weights
    planned on each call."""
    d = m.rel_dim
    line = dict(line)
    ch_line = grrcheck._line_ch(m, line)
    combo = main_combo(d)
    head, *terms = combo
    g = m.cotangent_rank_zero()
    n = len(g) - 1
    ch_twist = {t: adams_rescale(ch_line, t) for t in {term.twist for term in combo}}
    pairs = dict.fromkeys((t.twist, i) for t in combo for i in range(min(t.sym, n) + 1))
    pairing = {(t, i): grrcheck._degree(m, ch_twist[t] * g[i], "degree") for t, i in pairs}
    lhs_degree, *degrees = (
        sum(w * pairing[t.twist, i] for i, w in enumerate(_sym_weights(d, t.sym, n)))
        for t in combo
    )
    rows = tuple((term.sym, -term.coeff, deg) for term, deg in zip(terms, degrees))
    return grrcheck.MainReport(
        model=m.name,
        dim=d,
        line=line,
        lhs_exponent=head.coeff,
        lhs_degree=lhs_degree,
        lhs=head.coeff * lhs_degree,
        rhs_rows=rows,
        rhs=sum(c * deg for _j, c, deg in rows),
    )


ORACLE_MODELS = [name + "".join(map(str, params.values())) for name, params in CACHE_MODELS]
ORACLE_MODELS += ["twisted-P1xP1", "P2^2xP1"]


@pytest.fixture(scope="module")
def oracle_models():
    models = [builtin_model(name, **params) for name, params in CACHE_MODELS]
    return dict(zip(ORACLE_MODELS, models + [twisted_p1xp1(), power_family(2, 2)]))


@pytest.mark.parametrize("name", ORACLE_MODELS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_main_report_equals_the_psi_series_route(oracle_models, name, data):
    # the twisted P1xP1 reads a nonzero top G_n; its reports need not be ok
    m = oracle_models[name]
    line = {g: data.draw(st.integers(-5, 5), label=g) for g in m.vars.names}
    got = verify_main_on_model(m, line)
    assert got == main_report_by_the_psi_series_route(m, line)
    assert got.to_obj() == main_report_by_the_psi_series_route(m, line).to_obj()


# ----------------------------------------------------------------------
# the all-lines verdict


def combo_with_one_coefficient_moved(d, index, delta):
    combo = list(main_combo(d))
    t = combo[index]
    combo[index] = ComboTerm(t.coeff + delta, t.twist, t.sym)
    return tuple(combo)


def verdict_with_one_coefficient_moved(m, index, delta):
    """The all-lines verdict on ``m`` with ``main_combo`` reading one
    coefficient moved by ``delta``."""
    combo = combo_with_one_coefficient_moved(m.rel_dim, index, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grrcheck, "main_combo", lambda d, allow_degenerate=False: combo)
        return grrcheck.verify_main_all_lines(m)


def defect_by_the_line_route(m, line, combo):
    """lhs - rhs of one line L under ``combo``: each term's degree is the
    pairing of ch(L^t) = psi^t(ch(L)) with s_j = sum_i C(d + j - 1, j - i)
    G_i, the route ``verify_main_on_model`` takes one line at a time."""
    d = m.rel_dim
    g = m.cotangent_rank_zero()
    ch_line = grrcheck._line_ch(m, line)
    total = 0
    for t in combo:
        s_j = _combine(ch_line, zip(_sym_weights(d, t.sym, len(g) - 1), g))
        total += t.coeff * grrcheck._degree(m, adams_rescale(ch_line, t.twist) * s_j, "degree")
    return total


def defect_by_the_verdict(report, line):
    """sum_alpha a^alpha / alpha! c_alpha over the verdict's nonzero c_alpha."""
    a = [line[g] for g in report.generators]
    total = Rational(0)
    for alpha, c in report.failing:
        term = c
        for ak, ek in zip(a, alpha):
            term *= Rational(ak**ek, factorial(ek))
        total += term
    return total


@pytest.mark.parametrize("name, params", CACHE_MODELS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_all_lines_coefficients_give_each_line_defect(name, params, data):
    m = builtin_model(name, **params)
    d = m.rel_dim
    index = data.draw(st.integers(0, 2 * d + 1), label="term")
    delta = data.draw(st.sampled_from([0, 1, -1]), label="delta")
    combo = combo_with_one_coefficient_moved(d, index, delta)
    report = verdict_with_one_coefficient_moved(m, index, delta)
    for _ in range(3):
        line = {g: data.draw(st.integers(-4, 4), label=g) for g in m.vars.names}
        assert defect_by_the_verdict(report, line) == defect_by_the_line_route(m, line, combo)
        if not delta:
            assert report.ok
            rep = verify_main_on_model(m, line)
            assert rep.ok and rep.lhs - rep.rhs == 0


@pytest.mark.parametrize(
    "name, params, failing",
    [(name, params, n) for (name, params), n in zip(CACHE_MODELS[1:], [2, 4, 2, 4, 4, 4])],
)
def test_all_lines_verdict_fails_when_a_coefficient_moves(name, params, failing):
    # +1 on the coefficient of the twist-2 Sym^1 term; P1 x P1 has its
    # failing coefficients frozen below
    m = builtin_model(name, **params)
    assert grrcheck.verify_main_all_lines(m).ok
    report = verdict_with_one_coefficient_moved(m, 2, 1)
    assert not report.ok
    assert len(report.failing) == failing
    assert all(c for _alpha, c in report.failing)


def test_all_lines_verdict_p1xp1_frozen():
    # the +1 term adds the degree of L^2 (x) Omega, whose c_alpha are -2 at
    # s and 2^2 at h s, the one monomial of degree 2 that does not vanish
    m = model_pn_x_pm(1, 1)
    report = verdict_with_one_coefficient_moved(m, 2, 1)
    assert report.generators == ("h", "s") and report.higher_weight == ()
    assert report.failing == (((0, 1), -2), ((1, 1), 4))


def test_all_lines_verdict_names_generators_it_does_not_reach():
    # P1 x P1 with a weight-two generator q = h s: the verdict covers the
    # span of h and s, and reports q as outside it
    one = TruncatedSeries.one(VarTable([("q", 2), ("h", 1), ("s", 1)]), 2)
    m = ChowModel(
        name="P1xP1+q",
        generators=[("q", 2), ("h", 1), ("s", 1)],
        relations=[((1, 0, 0), [((0, 1, 1), 1)]), ((0, 2, 0), []), ((0, 0, 2), [])],
        rel_dim=1,
        total_dim=2,
        base_generators=["s"],
        tangent_chern=one + 2 * TruncatedSeries.gen(one.vars, 2, "h"),
        point_class=(0, 1, 1),
    )
    report = grrcheck.verify_main_all_lines(m)
    assert report.ok
    assert report.generators == ("h", "s") and report.higher_weight == ("q",)


@pytest.mark.parametrize(
    "model", [model_pn(1), model_pn_x_pm(1, 2)], ids=["point-base", "two-dimensional-base"]
)
def test_all_lines_verdict_preconditions(model):
    with pytest.raises(DomainError, match="one-dimensional base"):
        grrcheck.verify_main_all_lines(model)


@pytest.mark.parametrize(
    "build",
    [lambda: model_pn_x_pm(2, 1), lambda: model_hirzebruch(2), lambda: power_family(2, 3)],
    ids=["P2xP1", "F2", "P2^3xP1"],
)
def test_all_lines_verdict_pairs_each_monomial_with_one_normal_component(monkeypatch, build):
    # a g^alpha of degree m pairs only with the degree-(total_dim - m) part
    # of V_m, so the verdict hands the integer pairing that part alone, in
    # normal form, and g^alpha as a one-term series with coefficient 1
    m = build()
    pairs = []
    pair = ChowModel._pair
    monkeypatch.setattr(ChowModel, "_pair", lambda self, a, b: pairs.append((a, b)) or pair(self, a, b))
    assert grrcheck.verify_main_all_lines(m).ok
    assert pairs
    for a, b in pairs:
        ((alpha, one),) = a.terms.items()
        assert one == 1
        assert b == b.component(m.total_dim - m.vars.degree(alpha))
        assert b == m.normal_form(b)


def all_lines_by_the_full_window(m):
    """The all-lines verdict by the route it took before it formed one
    product per twist: one product U_i = G_i Td per G_i, Td not reduced,
    each V_m combined from the whole U_i and cut to its degree-(total_dim -
    m) part, and each c_alpha read as a Rational from the pairing."""
    d = m.rel_dim
    g = m.cotangent_rank_zero()
    by_twist = grrcheck._twist_weights(grrcheck.main_combo(d), d, len(g) - 1)
    todd = todd_from_chern(m.tangent_chern)
    u = [gi * todd for gi in g]
    vt, top = m.vars, m.total_dim
    ones = [k for k, w in enumerate(vt.weights) if w == 1]
    c1 = m.first_chern({vt.names[k]: 1 for k in ones})
    failing = []
    for deg in range(top + 1):
        weights = [sum(t**deg * plain[i] for t, (plain, _) in by_twist.items()) for i in range(len(u))]
        v = m.normal_form(_combine(todd, zip(weights, u)).component(top - deg))
        for picks in combinations_with_replacement(c1._num, deg):
            key = sum(picks)
            c = Rational(*m._pair(_series(c1, {key: 1}, 1), v))
            if c:
                alpha = m._lay.exps(key)
                failing.append((tuple(alpha[k] for k in ones), c))
    return grrcheck.AllLinesReport(
        generators=tuple(vt.names[k] for k in ones),
        higher_weight=tuple(name for name, w in zip(vt.names, vt.weights) if w != 1),
        failing=tuple(failing),
    )


@pytest.mark.parametrize("delta", [0, 1], ids=["true", "plus-one"])
@pytest.mark.parametrize(
    "build",
    [lambda name=name, params=params: builtin_model(name, **params) for name, params in CACHE_MODELS]
    + [lambda: power_family(2, 3)],
    ids=[name + "".join(map(str, params.values())) for name, params in CACHE_MODELS] + ["P2^3xP1"],
)
def test_all_lines_verdict_equals_the_full_window_route(build, delta):
    # under the true combination and under +1 on the twist-2 Sym^1 term
    m = build()
    combo = combo_with_one_coefficient_moved(m.rel_dim, 2, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grrcheck, "main_combo", lambda d, allow_degenerate=False: combo)
        want = all_lines_by_the_full_window(m)
        got = grrcheck.verify_main_all_lines(m)
    assert got == want and repr(got) == repr(want)
    assert got.ok == (not delta)


def test_all_lines_verdict_builds_todd_once(monkeypatch):
    m = model_hirzebruch(2)
    want = grrcheck.verify_main_all_lines(m)
    calls = []
    original = grrcheck.todd_from_chern
    monkeypatch.setattr(grrcheck, "todd_from_chern", lambda c: calls.append(c) or original(c))
    assert grrcheck.verify_main_all_lines(m) == want
    assert len(calls) == 1


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


def newton_line_ch(m, line):
    """ch(L) by Newton's power sums of c(L) = 1 + c_1 through
    ``ch_from_chern``: the route c1_lambda and euler_char took before
    ``_line_ch``, kept as an oracle."""
    one = TruncatedSeries.one(m.vars, m.total_dim)
    return m.normal_form(ch_from_chern(1, m.normal_form(one + m.first_chern(line))))


@pytest.mark.parametrize("name, params", BUILTIN_MODELS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_line_ch_equals_the_newton_route(name, params, data):
    m = builtin_model(name, **params)
    line = {g: data.draw(st.integers(-4, 4), label=g) for g in m.vars.names}
    ch = grrcheck._line_ch(m, line)
    assert ch == newton_line_ch(m, line)
    if m.rel_dim == m.total_dim:
        assert euler_char(m, line) == grrcheck._degree(m, newton_line_ch(m, line), "chi")
    elif m.total_dim - m.rel_dim == 1:
        # the determinant degree is the left side's degree of the identity
        assert c1_lambda(m, line) == verify_main_on_model(m, line).lhs_degree


@pytest.mark.parametrize(
    "entry, model",
    [
        (verify_main_on_model, model_pn_x_pm(1, 1)),
        (c1_lambda, model_pn_x_pm(1, 1)),
        (euler_char, model_pn(2)),
    ],
    ids=["verify_main_on_model", "c1_lambda", "euler_char"],
)
@pytest.mark.parametrize(
    "bad", [True, False, Rational(2, 1), Rational(1, 2), "1/2", "2", 2.0], ids=repr
)
def test_line_coefficients_must_be_ints(entry, model, bad):
    # a half-integer line once passed verify_main_on_model with ok=True
    *rest, last = model.vars.names
    line = {**{g: 2 for g in rest}, last: bad}
    with pytest.raises(ModelError, match=f"coefficient of {last} must be an integer"):
        entry(model, line)


def test_hirzebruch_models_do_not_share_cached_classes():
    one, two = model_hirzebruch(1), model_hirzebruch(2)
    t1, t2 = one.cotangent_rank_zero(), two.cotangent_rank_zero()
    assert t1[1] != t2[1]
    assert t2 == model_hirzebruch(2).cotangent_rank_zero()
    assert one.cotangent_rank_zero() is t1
    line = {"z": 1, "f": 1}
    assert verify_main_on_model(two, line) == verify_main_on_model(model_hirzebruch(2), line)


def test_mumford_ratio_on_hirzebruch():
    # deg lambda(Omega^2) == 13 * deg lambda(Omega); both vanish because
    # x = c1(T_f) squares to zero on these surfaces
    for e in (1, 2, 3):
        m = model_hirzebruch(e)
        # Omega = T_f^dual: its line is read off -c1(T_f), never typed in
        omega = {g: 0 for g in m.vars.names}
        for exps, c in m.tangent_chern.component(1).sorted_items():
            assert c.denominator == 1
            omega[m.vars.names[exps.index(1)]] = -int(c)
        d1 = c1_lambda(m, omega)
        d2 = c1_lambda(m, {g: 2 * a for g, a in omega.items()})
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
        got = euler_char(p1, {"h": a})
        want = monomial_count(1, a) - monomial_count(1, -a - 2)
        assert got == want == a + 1


def test_euler_char_p2_line_bundles():
    p2 = model_pn(2)
    for a in range(0, 4):
        got = euler_char(p2, {"h": a})
        assert got == monomial_count(2, a) == (a + 1) * (a + 2) // 2


def test_euler_char_rejects_families():
    m = model_pn_x_pm(1, 1)
    with pytest.raises(DomainError):
        euler_char(m, {"h": 1, "s": 1})


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: picard_deduce(["a", "b"], [[1.5, 2]], "2*a"),
        lambda: picard_deduce(["a", "b"], [[True, 0]], "2*a"),
        lambda: picard_deduce(["a", "b"], ["2*a = 0"], [2, 0.0]),
        lambda: universal_report(True),
        lambda: universal_report(2.0),
        lambda: ducrot_defect(2.0),
        lambda: ducrot_defect(True),
        lambda: ducrot_defect(2, 3.0),
        lambda: ducrot_defect(2, True),
    ],
    ids=[
        "relation-float", "relation-bool", "goal-float", "universal-bool", "universal-float",
        "ducrot-float", "ducrot-bool", "factors-float", "factors-bool",
    ],
)
def test_integer_arguments_refuse_bools_and_floats(call):
    with pytest.raises(DomainError, match="integer"):
        call()


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


def test_main_plan_is_kept_per_combination_object():
    # the plan is keyed on the combination object, never on its terms'
    # hashes: the same object reads its kept plan back, and an equal but
    # distinct object builds an equal plan of its own
    combo = main_combo(2)
    plan = grrcheck._main_plan(combo, 2, 2)
    assert grrcheck._main_plan(combo, 2, 2) is plan
    twin = combo[:1] + combo[1:]
    assert twin == combo and twin is not combo
    other = grrcheck._main_plan(twin, 2, 2)
    assert other == plan and other is not plan
    assert grrcheck._main_plan(combo, 2, 1) != plan


def test_parse_linear_expr():
    sym = ["l0", "l1", "l2"]
    assert parse_linear_expr("13*l1 - l2", sym) == [0, 13, -1]
    assert parse_linear_expr("16*l0 = 7*l0 - 4*l1 + l2", sym) == [9, 4, -1]
    assert parse_linear_expr("12*l1 = 0", sym) == [0, 12, 0]
    with pytest.raises(DomainError):
        parse_linear_expr("13*lX", sym)
    with pytest.raises(DomainError):
        parse_linear_expr("l0 = l1 = l2", sym)
    # 0 is the explicit empty side; an empty expression or side is an error
    assert parse_linear_expr("0", sym) == [0, 0, 0]
    assert parse_linear_expr("0 = l2", sym) == [0, 0, -1]
    for text in ("", "  ", "l0 =", "l0 = ", "= l1", " = ", "="):
        with pytest.raises(DomainError, match="^empty side in "):
            parse_linear_expr(text, sym)
    # a term where an operator belongs is an error, never read as a sum
    for text in ("l0 l1", "l0 2 l1", "l0 = l1 l2", "l0 0", "2*l0 3"):
        with pytest.raises(DomainError, match="^missing operator before "):
            parse_linear_expr(text, sym)
    # ASCII digits only: int() would read the Arabic-Indic three as 3
    for text in ("\u0663 l0", "l0 = \u0663*l1"):
        with pytest.raises(DomainError, match="^unexpected token "):
            parse_linear_expr(text, sym)


def test_parse_linear_expr_refuses_a_coefficient_past_the_int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts text of any length to int")
    with pytest.raises(DomainError, match=f"^a coefficient of {limit + 1} digits is too long$"):
        parse_linear_expr("1" * (limit + 1) + " l0", ["l0"])


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
