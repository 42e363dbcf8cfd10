"""Tests for characteristic-class conversions.

Frozen expansions (Todd through degree 3, the rank-2 Chern character) were
derived by hand from the defining series x/(1 - e^(-x)) and the Newton
power-sum recurrence, and are asserted literally; definitional identities
are checked against series built from factorials alone.

Five reference routes stay here as oracles: Newton's recurrence run as
whole-series products and sums (``reference_power_sums`` and the Chern
character and Todd class built from it), the Todd logarithm's
coefficients read off a series inverse (``reference_todd_log_coeffs``),
the two-pass Todd route that the one-pass multiplicative-class kernel
replaced: the power-sum series weighted by the log coefficients over one
common denominator, then ``exp`` (``two_pass_todd``), and the Adams
recurrence j s_j = sum_m psi^m(ch) s_{j-m} for the Sym characters, one
whole-series product per (j, m) pair (``adams_sym_table``), which
``tests/test_grrcheck.py`` also uses for its root-ring cross-check, and the
whole table s_0..s_top as weighted sums of the rank-zero classes G_i
(``sym_ch_table``), which ``tests/test_grrcheck.py`` uses for the row
degrees that ``verify_main_on_model`` now weighs from pairings with the G_i.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from detlam.charclass import (
    _rank_zero_sym,
    _require_unit,
    _sym_weights,
    _todd_log_coeffs,
    adams_rescale,
    ch_from_chern,
    power_sums,
    sym_ch,
    todd_from_chern,
)
from detlam.chowmodel import builtin_model
from detlam.exactalg import DomainError, Rational, TruncatedSeries, VarTable, _combine
from detlam.grrcheck import _universal_ring

X = VarTable([("x", 1)])
AB = VarTable([("a", 1), ("b", 1)])
C12 = VarTable([("c1", 1), ("c2", 2)])


def line_chern(bound=2):
    return TruncatedSeries.one(X, bound) + TruncatedSeries.gen(X, bound, "x")


@pytest.mark.parametrize(
    "c",
    [
        TruncatedSeries.one(X, 2),
        (TruncatedSeries.constant(X, 2, 3) + TruncatedSeries.gen(X, 2, "x")) / 3,
        TruncatedSeries.zero(X, 2),
        TruncatedSeries.constant(X, 2, -1),
        TruncatedSeries.constant(X, 2, 2),
        TruncatedSeries.gen(X, 2, "x"),
    ],
    ids=["1", "(3+x)/3", "0", "-1", "2", "no-constant"],
)
def test_unit_check_reads_the_constant_term(c):
    if c.constant_term == 1:
        _require_unit(c, "class")
    else:
        with pytest.raises(DomainError, match="class must have constant term 1"):
            _require_unit(c, "class")


def test_todd_line_frozen():
    td = todd_from_chern(line_chern(2))
    assert td == TruncatedSeries.from_terms(
        X, 2, [((0,), 1), ((1,), Rational(1, 2)), ((2,), Rational(1, 12))]
    )


def test_todd_line_against_definition():
    # Td(line) * (1 - e^(-x))/x == 1, with the right factor built from
    # factorials alone
    bound = 6
    td = todd_from_chern(line_chern(bound))
    fact = [1]
    for k in range(1, bound + 2):
        fact.append(fact[-1] * k)
    ratio = TruncatedSeries.from_terms(
        X, bound, [((n,), Rational((-1) ** n, fact[n + 1])) for n in range(bound + 1)]
    )
    assert td * ratio == TruncatedSeries.one(X, bound)


def test_todd_rank2_frozen():
    one = TruncatedSeries.one(C12, 3)
    c1 = TruncatedSeries.gen(C12, 3, "c1")
    c2 = TruncatedSeries.gen(C12, 3, "c2")
    td = todd_from_chern(one + c1 + c2)
    assert td.component(0) == one
    assert td.component(1) == c1 / 2
    assert td.component(2) == (c1 * c1 + c2) / 12
    assert td.component(3) == (c1 * c2) / 24


def test_ch_rank2_frozen():
    one = TruncatedSeries.one(C12, 2)
    c1 = TruncatedSeries.gen(C12, 2, "c1")
    c2 = TruncatedSeries.gen(C12, 2, "c2")
    ch = ch_from_chern(2, one + c1 + c2)
    assert ch == 2 * one + c1 + (c1 * c1 - 2 * c2) / 2


def test_power_sum_newton_frozen():
    vt = VarTable([("c1", 1), ("c2", 2), ("c3", 3)])
    one = TruncatedSeries.one(vt, 3)
    c1 = TruncatedSeries.gen(vt, 3, "c1")
    c2 = TruncatedSeries.gen(vt, 3, "c2")
    c3 = TruncatedSeries.gen(vt, 3, "c3")
    p = power_sums(one + c1 + c2 + c3)
    assert p[1] == c1
    assert p[2] == c1 * c1 - 2 * c2
    assert p[3] == c1 * c1 * c1 - 3 * c1 * c2 + 3 * c3


def test_ch_split_rank2():
    bound = 4
    one = TruncatedSeries.one(AB, bound)
    a = TruncatedSeries.gen(AB, bound, "a")
    b = TruncatedSeries.gen(AB, bound, "b")
    chern = (one + a) * (one + b)
    assert ch_from_chern(2, chern) == a.exp() + b.exp()


def test_todd_multiplicative_on_split():
    bound = 3
    one = TruncatedSeries.one(AB, bound)
    a = TruncatedSeries.gen(AB, bound, "a")
    b = TruncatedSeries.gen(AB, bound, "b")
    assert todd_from_chern((one + a) * (one + b)) == todd_from_chern(
        one + a
    ) * todd_from_chern(one + b)


def test_domain_guards():
    x = TruncatedSeries.gen(X, 2, "x")
    with pytest.raises(DomainError):
        ch_from_chern(1, x)  # constant term must be 1
    with pytest.raises(DomainError):
        todd_from_chern(x + 2)
    with pytest.raises(DomainError):
        sym_ch(x.exp(), -1)


def test_adams_on_line_and_composition():
    bound = 4
    a = TruncatedSeries.gen(AB, bound, "a")
    ch = a.exp()
    assert adams_rescale(ch, 3) == (a * 3).exp()
    # psi^1 is the identity, and series are immutable, so no copy is made
    assert adams_rescale(ch, 1) is ch
    assert adams_rescale(adams_rescale(ch, 2), 3) == adams_rescale(ch, 6)
    # psi^(-1) is the character of the dual
    assert adams_rescale(ch, -1) == (-a).exp()


def test_sym_ch_line():
    bound = 4
    a = TruncatedSeries.gen(AB, bound, "a")
    ch = a.exp()
    for j in range(5):
        assert sym_ch(ch, j) == (a * j).exp()


def test_sym_ch_split_rank2():
    bound = 4
    a = TruncatedSeries.gen(AB, bound, "a")
    b = TruncatedSeries.gen(AB, bound, "b")
    ch = a.exp() + b.exp()
    table = sym_ch_table(ch, 6)
    assert len(table) == 7
    for j in range(7):
        want = TruncatedSeries.zero(AB, bound)
        for p in range(j + 1):
            want = want + (a * p + b * (j - p)).exp()
        assert table[j] == want
        if j < 5:
            assert sym_ch(ch, j) == want


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_sym_ch_rank(rank, j):
    vt = VarTable([("t", 1)])
    ch = TruncatedSeries.constant(vt, 2, rank) + TruncatedSeries.gen(vt, 2, "t")
    s = sym_ch(ch, j)
    assert s.constant_term == comb(rank + j - 1, j)


def test_sym_edge_cases():
    a = TruncatedSeries.gen(AB, 3, "a")
    ch = a.exp() * 2
    assert sym_ch(ch, 0) == TruncatedSeries.one(AB, 3)
    assert sym_ch(ch, 1) == ch


unit_series = st.builds(
    lambda d: TruncatedSeries.one(AB, 3)
    + TruncatedSeries.from_terms(
        AB, 3, [(e, c) for e, c in d.items() if AB.degree(e) >= 1]
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.builds(Rational, st.integers(-4, 4), st.integers(1, 3)),
        max_size=4,
    ),
)


@settings(max_examples=40, deadline=None)
@given(unit_series, unit_series)
def test_todd_is_multiplicative(a, b):
    assert todd_from_chern(a * b) == todd_from_chern(a) * todd_from_chern(b)


@settings(max_examples=40, deadline=None)
@given(unit_series, unit_series)
def test_power_sums_additive_over_products(a, b):
    pa, pb, pab = power_sums(a), power_sums(b), power_sums(a * b)
    for k in range(1, 4):
        assert pab[k] == pa[k] + pb[k]


# ----------------------------------------------------------------------
# reference routes


def reference_power_sums(chern):
    """Newton's identity on whole series: p_k = (-1)^(k-1) k e_k +
    sum_{i<k} (-1)^(k-1-i) e_{k-i} p_i."""
    bound = chern.bound
    e = [chern.component(k) for k in range(bound + 1)]
    p = [TruncatedSeries.zero(chern.vars, bound)]
    for k in range(1, bound + 1):
        acc = e[k] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + e[k - i] * p[i] * ((-1) ** (k - 1 - i))
        p.append(acc)
    return p


def reference_todd_log_coeffs(bound):
    """g_k of log(x/(1 - e^(-x))) through g' = t' / t, with 1/t = (1 - e^(-x))/x
    known from factorials and t its series inverse."""
    vt = VarTable([("x", 1)])
    fact = [1]
    for k in range(1, bound + 3):
        fact.append(fact[-1] * k)
    inv_t = TruncatedSeries.from_terms(
        vt, bound, [((n,), Rational((-1) ** n, fact[n + 1])) for n in range(bound + 1)]
    )
    t = inv_t.inverse()
    t_prime = TruncatedSeries.from_terms(
        vt, bound, [((k - 1,), c * k) for (k,), c in t.terms.items() if k]
    )
    g_prime = t_prime * inv_t
    return tuple(g_prime.terms.get((k - 1,), Rational(0)) / k for k in range(1, bound + 1))


def reference_ch(rank, chern):
    p = reference_power_sums(chern)
    out = TruncatedSeries.constant(chern.vars, chern.bound, rank)
    fact = 1
    for k in range(1, chern.bound + 1):
        fact *= k
        out = out + p[k] / fact
    return out


def reference_todd(chern):
    p = reference_power_sums(chern)
    g = reference_todd_log_coeffs(chern.bound)
    acc = TruncatedSeries.zero(chern.vars, chern.bound)
    for k in range(1, chern.bound + 1):
        acc = acc + p[k] * g[k - 1]
    return acc.exp()


def assert_matches_reference(rank, chern):
    assert power_sums(chern) == reference_power_sums(chern)
    assert ch_from_chern(rank, chern) == reference_ch(rank, chern)
    assert todd_from_chern(chern) == reference_todd(chern)


@pytest.mark.parametrize("bound", range(21))
def test_todd_log_coeffs_match_series_route(bound):
    assert _todd_log_coeffs(bound) == reference_todd_log_coeffs(bound)


@st.composite
def weighted_unit_classes(draw):
    """A unit Chern class with rational coefficients over 1-3 variables of
    weights 1-3, bound 0..8, with whole degrees left out at random."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    vt = VarTable([(f"c{i}", w) for i, w in enumerate(weights)])
    bound = draw(st.integers(0, 8))
    gaps = draw(st.sets(st.integers(1, 8), max_size=4))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 8 // w) for w in weights]),
            st.builds(Rational, st.integers(-5, 5), st.integers(1, 4)),
            max_size=6,
        )
    )
    kept = [
        (e, c) for e, c in terms.items() if 1 <= vt.degree(e) <= bound and vt.degree(e) not in gaps
    ]
    return TruncatedSeries.one(vt, bound) + TruncatedSeries.from_terms(vt, bound, kept)


@settings(max_examples=60, deadline=None)
@given(weighted_unit_classes(), st.integers(0, 4))
def test_newton_kernel_matches_whole_series_route(chern, rank):
    assert_matches_reference(rank, chern)


SWEEP_MODELS = [
    ("P1xP1", {}),
    ("P2xP1", {}),
    ("P3xP1", {}),
    ("Hirzebruch", {"e": 0}),
    ("Hirzebruch", {"e": 1}),
    ("Hirzebruch", {"e": 2}),
    ("Hirzebruch", {"e": 3}),
]


@pytest.mark.parametrize("name, params", SWEEP_MODELS)
def test_newton_kernel_on_model_tangent_classes(name, params):
    model = builtin_model(name, **params)
    tangent = model.tangent_chern
    assert_matches_reference(model.rel_dim, tangent)
    assert_matches_reference(model.rel_dim, adams_rescale(tangent, -1))


# ----------------------------------------------------------------------
# the one-pass Todd kernel against the two-pass route


def two_pass_todd(chern):
    """Td as the power-sum series p_1..p_bound, each built and reduced,
    summed with the log coefficients over one common denominator and then
    exponentiated: the route before the one-pass kernel."""
    p = power_sums(chern)
    return _combine(chern, zip(_todd_log_coeffs(chern.bound), p[1:])).exp()


@st.composite
def chern_classes(draw):
    """A unit Chern class over 1-3 variables of weights 1-2, bound 1..8,
    with rational coefficients of denominators up to 6."""
    weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    vt = VarTable([(f"c{i}", w) for i, w in enumerate(weights)])
    bound = draw(st.integers(1, 8))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, bound // w) for w in weights]),
            st.builds(Rational, st.integers(-6, 6), st.integers(1, 6)),
            max_size=8,
        )
    )
    kept = [(e, c) for e, c in terms.items() if 1 <= vt.degree(e) <= bound]
    return TruncatedSeries.one(vt, bound) + TruncatedSeries.from_terms(vt, bound, kept)


@settings(max_examples=80, deadline=None)
@given(chern_classes())
def test_one_pass_todd_matches_two_pass_route(chern):
    assert todd_from_chern(chern) == two_pass_todd(chern)


@pytest.mark.parametrize("d", range(1, 9))
def test_one_pass_todd_on_the_universal_ring(d):
    vt, bound = _universal_ring(d), d + 1
    omega = sum(
        (TruncatedSeries.gen(vt, bound, f"a{i}") for i in range(1, d + 1)),
        TruncatedSeries.one(vt, bound),
    )
    for chern in (omega, adams_rescale(omega, -1)):
        assert todd_from_chern(chern) == two_pass_todd(chern)


BUILTIN_MODELS = [
    ("P1", {}),
    ("P2", {}),
    ("P5", {}),
    ("PnxPm", {"n": 2, "m": 2}),
    ("PnxPm", {"n": 4, "m": 3}),
    *SWEEP_MODELS,
]


@pytest.mark.parametrize("name, params", BUILTIN_MODELS)
def test_one_pass_todd_on_builtin_models(name, params):
    tangent = builtin_model(name, **params).tangent_chern
    for chern in (tangent, adams_rescale(tangent, -1)):
        assert todd_from_chern(chern) == two_pass_todd(chern)


# ----------------------------------------------------------------------
# Sym characters from the rank-zero part against the Adams recurrence


def adams_sym_table(ch, top, normal_form=None):
    """s_0..s_top by j s_j = sum_{m=1..j} psi^m(ch) s_{j-m}, one
    whole-series product per (j, m) pair, each entry reduced by
    ``normal_form`` as it is built when one is given."""
    psi = [None] + [adams_rescale(ch, m) for m in range(1, top + 1)]
    s = [TruncatedSeries.one(ch.vars, ch.bound)]
    for n in range(1, top + 1):
        acc = TruncatedSeries.zero(ch.vars, ch.bound)
        for m in range(1, n + 1):
            acc = acc + psi[m] * s[n - m]
        acc = acc / n
        s.append(acc if normal_form is None else normal_form(acc))
    return s


def sym_ch_table(ch, top, normal_form=None):
    """s_0..s_top, each one weighted sum of G_0..G_n, n = min(top, bound),
    the G_i reduced by ``normal_form`` as they are built when one is given:
    the whole table at once, where ``sym_ch`` builds one entry."""
    n = min(top, ch.bound)
    g = _rank_zero_sym(ch, n, normal_form)
    r = ch.constant_term
    if r.denominator == 1:
        r = int(r)
    return [_combine(ch, zip(_sym_weights(r, j, n), g)) for j in range(top + 1)]


@settings(max_examples=60, deadline=None)
@given(weighted_unit_classes(), st.integers(1, 4), st.integers(0, 7))
def test_sym_table_matches_adams_recurrence(chern, rank, top):
    ch = ch_from_chern(rank, chern)
    want = adams_sym_table(ch, top)
    assert sym_ch_table(ch, top) == want
    assert sym_ch(ch, top) == want[top]


@pytest.mark.parametrize("rank", [0, -1, -3, Rational(1, 2), Rational(-5, 3)])
def test_sym_table_keeps_any_rank(rank):
    # C(r + j - 1, j - i) is a polynomial in r, so any constant term works
    a = TruncatedSeries.gen(AB, 3, "a")
    b = TruncatedSeries.gen(AB, 3, "b")
    ch = a.exp() - (a * b * 3 - b).exp() + rank
    want = adams_sym_table(ch, 6)
    assert sym_ch_table(ch, 6) == want
    assert [sym_ch(ch, j) for j in range(7)] == want


@st.composite
def model_classes(draw):
    """A built-in model, a unit class in its ring with its degree-1 and
    degree-2 parts drawn, and a rank 1-4."""
    name, params = draw(st.sampled_from(BUILTIN_MODELS[3:]))
    model = builtin_model(name, **params)
    vt, bound = model.vars, model.total_dim
    ones = [tuple(int(i == j) for j in range(len(vt))) for i in range(len(vt))]
    twos = [tuple(a + b for a, b in zip(x, y)) for x in ones for y in ones]
    coeff = st.builds(Rational, st.integers(-4, 4), st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from(ones + twos), coeff), max_size=5))
    chern = TruncatedSeries.one(vt, bound) + TruncatedSeries.from_terms(vt, bound, terms)
    return model, chern, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(model_classes(), st.integers(0, 6))
def test_sym_table_with_normal_form_matches_adams_recurrence(drawn, top):
    model, chern, rank = drawn
    nf = model.normal_form
    ch = nf(ch_from_chern(rank, nf(chern)))
    table = sym_ch_table(ch, top, nf)
    assert table == adams_sym_table(ch, top, nf)
    assert table == [nf(s) for s in sym_ch_table(ch, top)]


@pytest.mark.parametrize("d", range(1, 7))
def test_sym_table_on_the_universal_ring(d):
    vt, bound = _universal_ring(d), d + 1
    omega = sum(
        (TruncatedSeries.gen(vt, bound, f"a{i}") for i in range(1, d + 1)),
        TruncatedSeries.one(vt, bound),
    )
    ch = ch_from_chern(d, omega)
    assert sym_ch_table(ch, 2 * d) == adams_sym_table(ch, 2 * d)
