"""Unit and property tests for exact truncated power series.

Frozen expected values were computed by hand from the defining formulas
(geometric series, exponential series, Cauchy products) before the module
was written, and are asserted literally.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from detlam.exactalg import (
    DomainError,
    Rational,
    StructureError,
    TruncatedSeries,
    VarTable,
)

XY = VarTable([("x", 1), ("y", 1)])
X = VarTable([("x", 1)])


def S(vars_, bound, items):
    return TruncatedSeries.from_terms(vars_, bound, items)


def test_vartable_validation():
    vt = VarTable([("x", 1), ("c2", 2)])
    assert vt.names == ("x", "c2")
    assert vt.weights == (1, 2)
    assert vt.degree((3, 1)) == 5
    with pytest.raises(StructureError):
        VarTable([("x", 1), ("x", 2)])
    with pytest.raises(StructureError):
        VarTable([("x", 0)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: VarTable([("x", True)]),
        lambda: VarTable([("x", 1.0)]),
        lambda: TruncatedSeries(X, 2, {(True,): 1}),
        lambda: TruncatedSeries(X, 2, {(1.0,): 1}),
        lambda: TruncatedSeries(X, 2, {(1,): True}),
        lambda: S(X, 2, [((1,), True)]),
        lambda: S(X, 2, [((1,), 0.5)]),
    ],
    ids=[
        "weight-bool", "weight-float", "exponent-bool", "exponent-float",
        "coeff-bool", "terms-coeff-bool", "coeff-float",
    ],
)
def test_bools_and_floats_are_not_integers(build):
    with pytest.raises(StructureError):
        build()


def test_zero_coefficients_are_dropped_and_bound_enforced():
    s = S(X, 2, [((0,), 1), ((1,), 0), ((3,), 5)])
    assert s.terms == {(0,): Rational(1)}
    assert s == TruncatedSeries.one(X, 2)


@pytest.mark.parametrize("bound", range(5))
def test_gen_equals_the_validating_constructor(bound):
    # gen writes its packed key directly; the one-term dict through the
    # validating constructor is the oracle, zero above the bound included
    vt = VarTable([("a", 3), ("x", 1), ("c2", 2)])
    for i, name in enumerate(vt.names):
        exps = tuple(int(j == i) for j in range(len(vt)))
        want = TruncatedSeries(vt, bound, {exps: 1})
        got = TruncatedSeries.gen(vt, bound, name)
        assert got == want and repr(got) == repr(want)
        assert got.is_zero() == (vt.weights[i] > bound)
    with pytest.raises(StructureError, match="unknown variable 'q'"):
        TruncatedSeries.gen(vt, bound, "q")


def test_mul_exponential_truncations_cancel():
    # (1 + x + x^2/2 + x^3/6)(1 - x + x^2/2 - x^3/6) == 1 through degree 3
    a = S(X, 3, [((0,), 1), ((1,), 1), ((2,), Rational(1, 2)), ((3,), Rational(1, 6))])
    b = S(X, 3, [((0,), 1), ((1,), -1), ((2,), Rational(1, 2)), ((3,), Rational(-1, 6))])
    assert a * b == TruncatedSeries.one(X, 3)


def test_mul_geometric():
    bound = 6
    geo = S(X, bound, [((k,), 1) for k in range(bound + 1)])
    one_minus_x = S(X, bound, [((0,), 1), ((1,), -1)])
    assert one_minus_x * geo == TruncatedSeries.one(X, bound)


def test_inverse_frozen_values():
    geo = S(X, 5, [((0,), 1), ((1,), -1)]).inverse()
    assert geo == S(X, 5, [((k,), 1) for k in range(6)])
    # inverse(1 + x + x^2/2) == 1 - x + x^2/2 at bound 2
    a = S(X, 2, [((0,), 1), ((1,), 1), ((2,), Rational(1, 2))])
    assert a.inverse() == S(X, 2, [((0,), 1), ((1,), -1), ((2,), Rational(1, 2))])


def test_exp_coefficients_are_inverse_factorials():
    x = TruncatedSeries.gen(X, 6, "x")
    e = x.exp()
    fact = 1
    for k in range(7):
        if k:
            fact *= k
        assert e.terms[(k,)] == Rational(1, fact)


def test_exp_requires_zero_constant_term():
    with pytest.raises(DomainError):
        TruncatedSeries.one(X, 3).exp()


def test_inverse_requires_unit_constant_term():
    x = TruncatedSeries.gen(X, 3, "x")
    with pytest.raises(DomainError):
        x.inverse()


def test_mixed_tables_and_bounds_are_structural_errors():
    a = TruncatedSeries.one(X, 3)
    b = TruncatedSeries.one(XY, 3)
    c = TruncatedSeries.one(X, 4)
    with pytest.raises(StructureError):
        a * b
    with pytest.raises(StructureError):
        a + c


def test_weighted_truncation():
    vt = VarTable([("c1", 1), ("c2", 2)])
    c1 = TruncatedSeries.gen(vt, 2, "c1")
    c2 = TruncatedSeries.gen(vt, 2, "c2")
    sq = c1 * c1 + c2
    assert sq.component(2) == sq
    assert (c1 * c2).is_zero()  # weighted degree 3 > bound


def test_component_and_truncate():
    x = TruncatedSeries.gen(XY, 4, "x")
    y = TruncatedSeries.gen(XY, 4, "y")
    s = (x + y).exp()
    assert s.component(0) == TruncatedSeries.one(XY, 4)
    assert s.component(1) == x + y
    t = TruncatedSeries(XY, 2, s.terms)
    assert t.bound == 2
    assert t.terms[(1, 1)] == 1
    assert (2, 1) not in t.terms


def test_serialization_round_trip_and_determinism():
    x = TruncatedSeries.gen(XY, 3, "x")
    y = TruncatedSeries.gen(XY, 3, "y")
    a = (x + y).exp() * S(XY, 3, [((0, 0), 1), ((1, 1), Rational(-7, 3))])
    obj = a.to_obj()
    back = {tuple(r["exponents"]): Rational(int(r["num"]), int(r["den"])) for r in obj}
    assert a == TruncatedSeries(XY, 3, back)
    # build the same series along a different evaluation order
    b = S(XY, 3, [((0, 0), 1), ((1, 1), Rational(-7, 3))]) * y.exp() * x.exp()
    assert json.dumps(obj) == json.dumps(b.to_obj())
    degrees = [XY.degree(tuple(rec["exponents"])) for rec in obj]
    assert degrees == sorted(degrees)
    assert all(set(rec) == {"exponents", "num", "den"} for rec in obj)
    assert all(isinstance(rec["num"], str) and isinstance(rec["den"], str) for rec in obj)


coeffs = st.builds(
    Rational,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def series_strategy(vars_=XY, bound=4, min_degree=0, unit=False):
    exps = st.tuples(
        st.integers(min_value=0, max_value=bound),
        st.integers(min_value=0, max_value=bound),
    ).filter(lambda e: min_degree <= vars_.degree(e) <= bound)

    def build(d):
        s = TruncatedSeries.from_terms(vars_, bound, list(d.items()))
        if unit:
            s = s - TruncatedSeries.constant(vars_, bound, s.terms.get((0, 0), 0) - 1)
        return s

    return st.dictionaries(exps, coeffs, max_size=6).map(build)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = TruncatedSeries.one(XY, 4)
    zero = TruncatedSeries.zero(XY, 4)
    assert a * one == a
    assert a + zero == a
    assert a - a == zero


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), st.integers(min_value=0, max_value=4))
def test_truncation_coherence(a, b, n):
    def window(s):
        return TruncatedSeries(s.vars, n, s.terms)

    assert window(a * b) == window(a) * window(b)
    assert window(a + b) == window(a) + window(b)


@settings(max_examples=40, deadline=None)
@given(series_strategy(unit=True))
def test_two_sided_inverse(a):
    inv = a.inverse()
    assert a * inv == TruncatedSeries.one(XY, 4)
    assert inv * a == TruncatedSeries.one(XY, 4)


@settings(max_examples=40, deadline=None)
@given(series_strategy(min_degree=1), series_strategy(min_degree=1))
def test_exp_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@settings(max_examples=40, deadline=None)
@given(series_strategy())
def test_sum_of_components_reassembles(a):
    parts = [a.component(k) for k in range(5)]
    total = TruncatedSeries.zero(XY, 4)
    for p in parts:
        total = total + p
    assert total == a


# ----------------------------------------------------------------------
# graded recurrences against the power-sum definitions


def power_sum_exp(f):
    """exp(f) = sum_k f^k / k!, summed until a power vanishes on the window."""
    out = TruncatedSeries.one(f.vars, f.bound)
    term = TruncatedSeries.one(f.vars, f.bound)
    for k in range(1, f.bound + 1):
        term = term * f / k
        if term.is_zero():
            break
        out = out + term
    return out


def power_sum_inverse(f):
    """1/f = (1/c0) sum_k (1 - f/c0)^k, summed until a power vanishes."""
    c0 = f.constant_term
    one = TruncatedSeries.one(f.vars, f.bound)
    r = one - f / c0
    out = one
    power = one
    for _ in range(f.bound):
        power = power * r
        if power.is_zero():
            break
        out = out + power
    return out / c0


ABC = VarTable([("a", 1), ("b", 2), ("c", 3)])


def weighted_terms(degrees):
    """One or two terms in each listed weighted degree of ABC (others empty)."""
    pick = {
        1: [((1, 0, 0), 2)],
        2: [((0, 1, 0), Rational(-1, 3)), ((2, 0, 0), 1)],
        3: [((0, 0, 1), 5), ((1, 1, 0), Rational(3, 2))],
        4: [((1, 0, 1), -1), ((0, 2, 0), Rational(1, 4))],
        5: [((0, 1, 1), Rational(-2, 7))],
        6: [((0, 0, 2), 3), ((2, 2, 0), -1)],
    }
    return [t for d in degrees for t in pick[d]]


GAPPY_DEGREES = [(), (1,), (2,), (3,), (1, 3), (2, 5), (3, 6), (1, 4, 6), (2, 3, 5)]


@pytest.mark.parametrize("bound", [0, 1, 2, 6, 8])
@pytest.mark.parametrize("degrees", GAPPY_DEGREES)
def test_exp_matches_power_sum_on_weighted_tables(bound, degrees):
    f = S(ABC, bound, weighted_terms(degrees))
    assert f.exp() == power_sum_exp(f)


@pytest.mark.parametrize("c0", [1, -3, Rational(2, 5), Rational(-7, 2)])
@pytest.mark.parametrize("bound", [0, 1, 2, 6, 8])
@pytest.mark.parametrize("degrees", GAPPY_DEGREES)
def test_inverse_matches_power_sum_on_weighted_tables(c0, bound, degrees):
    f = S(ABC, bound, [((0, 0, 0), c0)] + weighted_terms(degrees))
    inv = f.inverse()
    assert inv == power_sum_inverse(f)
    assert f * inv == 1


def test_bound_zero_keeps_only_the_constant():
    f = S(ABC, 0, [((0, 0, 0), Rational(-4, 3)), ((1, 0, 0), 9)])
    assert f.inverse() == TruncatedSeries.constant(ABC, 0, Rational(-3, 4))
    assert TruncatedSeries.zero(ABC, 0).exp() == TruncatedSeries.one(ABC, 0)


def weighted_series(bound, min_degree=0, unit=False):
    exps = st.tuples(
        st.integers(min_value=0, max_value=bound),
        st.integers(min_value=0, max_value=bound // 2),
        st.integers(min_value=0, max_value=bound // 3),
    ).filter(lambda e: min_degree <= ABC.degree(e) <= bound)
    nonzero = coeffs.filter(bool)

    def build(args):
        terms, c0 = args
        items = list(terms.items())
        if unit:
            items = [(e, c) for e, c in items if any(e)] + [((0, 0, 0), c0)]
        return TruncatedSeries.from_terms(ABC, bound, items)

    return st.tuples(st.dictionaries(exps, coeffs, max_size=5), nonzero).map(build)


@settings(max_examples=40, deadline=None)
@given(weighted_series(6, unit=True))
def test_weighted_inverse_is_two_sided_and_matches_power_sum(s):
    inv = s.inverse()
    assert s * inv == 1
    assert inv == power_sum_inverse(s)


@settings(max_examples=40, deadline=None)
@given(weighted_series(6, min_degree=1))
def test_weighted_exp_of_negation_is_inverse(f):
    e = f.exp()
    assert e == power_sum_exp(f)
    assert e.inverse() == (-f).exp()


# ----------------------------------------------------------------------
# the packed kernel against a reference kernel on exponent tuples
#
# The reference holds a series as {exponent tuple: Fraction} with zero
# coefficients and monomials above the bound dropped, multiplies by the
# schoolbook double loop with a degree cut, and takes inverse and exp from
# their power-sum definitions. It shares no code with detlam.


def ref_degree(weights, exps):
    return sum(e * w for e, w in zip(exps, weights))


def ref_clean(weights, bound, terms):
    return {e: c for e, c in terms.items() if c and ref_degree(weights, e) <= bound}


def ref_add(weights, bound, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Rational(0)) + c
    return ref_clean(weights, bound, out)


def ref_scale(weights, bound, a, value):
    return ref_clean(weights, bound, {e: c * value for e, c in a.items()})


def ref_mul(weights, bound, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if ref_degree(weights, e) <= bound:
                out[e] = out.get(e, Rational(0)) + ca * cb
    return ref_clean(weights, bound, out)


def ref_power_sum(weights, bound, ratio, coeff):
    """sum_j coeff(j) * ratio^j for j = 0..bound (ratio has no constant)."""
    zero = (0,) * len(weights)
    out, power = {}, {zero: Rational(1)}
    for j in range(bound + 1):
        out = ref_add(weights, bound, out, ref_scale(weights, bound, power, coeff(j)))
        power = ref_mul(weights, bound, power, ratio)
    return out


def ref_inverse(weights, bound, a):
    """1/a = (1/c0) sum_j (1 - a/c0)^j."""
    zero = (0,) * len(weights)
    c0 = a[zero]
    ratio = ref_scale(weights, bound, {e: c for e, c in a.items() if e != zero}, -1 / c0)
    return ref_power_sum(weights, bound, ratio, lambda j: 1 / c0)


def ref_exp(weights, bound, a):
    """exp(a) = sum_j a^j / j!."""
    fact = [1]
    for j in range(1, bound + 1):
        fact.append(fact[-1] * j)
    return ref_power_sum(weights, bound, a, lambda j: Rational(1, fact[j]))


def ref_component(weights, a, k):
    return {e: c for e, c in a.items() if ref_degree(weights, e) == k}


def ref_adams(weights, a, m):
    return {e: c * m ** ref_degree(weights, e) for e, c in a.items() if m or not any(e)}


def assert_matches(series, ref):
    """Same coefficients, same canonical series, same printed order."""
    assert series.terms == ref
    assert len(series.terms) == len(ref)
    assert series == TruncatedSeries(series.vars, series.bound, ref)
    weights = series.vars.weights
    printed = [tuple(rec["exponents"]) for rec in series.to_obj()]
    assert printed == sorted(ref, key=lambda e: (ref_degree(weights, e), e))


KERNEL_BOUNDS = [1, 3, 4, 7, 8, 15]  # each side of a field-width change


def window_terms(weights, bound):
    """Up to 6 terms anywhere in the window."""
    exps = st.tuples(*(st.integers(0, bound // w) for w in weights)).filter(
        lambda e: ref_degree(weights, e) <= bound
    )
    return st.dictionaries(exps, coeffs, max_size=6)


@st.composite
def kernel_case(draw, unit=False, no_constant=False):
    """(vars, bound, ref) for a weighted multivariate series: 1-3 variables
    of weight 1-3, up to 6 terms anywhere in the window."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    bound = draw(st.sampled_from([0, 2] + KERNEL_BOUNDS))
    vars_ = VarTable([(f"v{i}", w) for i, w in enumerate(weights)])
    terms = draw(window_terms(weights, bound))
    zero = (0,) * len(weights)
    if no_constant:
        terms.pop(zero, None)
    if unit:
        terms[zero] = draw(coeffs.filter(bool))
    return vars_, bound, ref_clean(weights, bound, terms)


@st.composite
def kernel_pair(draw):
    vars_, bound, a = draw(kernel_case())
    b = draw(window_terms(vars_.weights, bound))
    return vars_, bound, a, ref_clean(vars_.weights, bound, b)


@settings(max_examples=80, deadline=None)
@given(kernel_pair(), coeffs)
def test_kernel_ring_operations_match_reference(case, value):
    vars_, bound, a, b = case
    w = vars_.weights
    sa, sb = TruncatedSeries(vars_, bound, a), TruncatedSeries(vars_, bound, b)
    assert_matches(sa + sb, ref_add(w, bound, a, b))
    assert_matches(sa - sb, ref_add(w, bound, a, ref_scale(w, bound, b, -1)))
    assert_matches(sa * sb, ref_mul(w, bound, a, b))
    assert_matches(sa.scale(value), ref_scale(w, bound, a, value))
    assert_matches(sa * 6, ref_scale(w, bound, a, Rational(6)))
    for k in range(bound + 2):
        assert_matches(sa.component(k), ref_component(w, a, k))


@settings(max_examples=60, deadline=None)
@given(kernel_case(unit=True))
def test_kernel_inverse_matches_reference(case):
    vars_, bound, a = case
    assert_matches(TruncatedSeries(vars_, bound, a).inverse(), ref_inverse(vars_.weights, bound, a))


@settings(max_examples=60, deadline=None)
@given(kernel_case(no_constant=True))
def test_kernel_exp_matches_reference(case):
    vars_, bound, a = case
    assert_matches(TruncatedSeries(vars_, bound, a).exp(), ref_exp(vars_.weights, bound, a))


@settings(max_examples=60, deadline=None)
@given(kernel_case(), st.integers(-3, 3))
def test_kernel_adams_rescale_matches_reference(case, m):
    from detlam.charclass import adams_rescale

    vars_, bound, a = case
    assert_matches(adams_rescale(TruncatedSeries(vars_, bound, a), m), ref_adams(vars_.weights, a, m))


EDGE_TABLES = [(1,), (1, 2), (3, 1), (2, 3, 1)]


@pytest.mark.parametrize("weights", EDGE_TABLES, ids=str)
@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_kernel_edges_at_field_widths(bound, weights):
    vars_ = VarTable([(f"v{i}", w) for i, w in enumerate(weights)])
    n = len(weights)
    zero = (0,) * n

    def unit(i, e):
        return tuple(e if j == i else 0 for j in range(n))

    # the pure power of each variable at the top of the window, plus 1
    tops = [unit(i, bound // w) for i, w in enumerate(weights)]
    a = {zero: Rational(1), **{t: Rational(i + 2) for i, t in enumerate(tops)}}
    # pairs whose exponent sums reach 2*bound - 1 and 2*bound: all dropped
    b = {unit(i, bound // w - 1): Rational(-1, 3) for i, w in enumerate(weights) if bound // w}
    b[zero] = Rational(2, 5)
    sa, sb = TruncatedSeries(vars_, bound, a), TruncatedSeries(vars_, bound, b)
    for top in tops:
        assert sa.terms[top] != 0
    assert_matches(sa, a)
    assert_matches(sa * sa, ref_mul(weights, bound, a, a))
    assert_matches(sa * sb, ref_mul(weights, bound, a, b))
    assert_matches(sb * sa, ref_mul(weights, bound, b, a))
    top_power = TruncatedSeries(vars_, bound, {tops[0]: 1})
    assert (top_power * top_power).is_zero() == (bound // weights[0] > 0)
    for k in range(bound + 1):
        assert_matches(sa.component(k), ref_component(weights, a, k))
    for c0 in (Rational(-3), Rational(2, 5)):
        f = {**a, zero: c0}
        assert_matches(TruncatedSeries(vars_, bound, f).inverse(), ref_inverse(weights, bound, f))
    g = {e: c for e, c in a.items() if e != zero}
    assert_matches(TruncatedSeries(vars_, bound, g).exp(), ref_exp(weights, bound, g))


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_coefficient_outside_the_window_is_zero(bound):
    vars_ = VarTable([("x", 1), ("y", 2)])
    s = TruncatedSeries(vars_, bound, {(bound, 0): 7, (0, bound // 2): -1, (0, 0): 1})
    assert s.terms[(bound, 0)] == 7 and s.terms[[0, 0]] == 1
    for exps in [(), (0,), (bound,), (0, 0, 0), (bound, 0, 0), (-1, 0), (0, -1), (-1, 1),
                 (bound + 1, 0), (bound, 1), (0, bound), (2 * bound, 0), (10**12, 0)]:
        assert s.terms.get(exps, 0) == 0
        assert exps not in s.terms
    with pytest.raises(KeyError):
        s.terms[(bound + 1, 0)]


def same_packed(got, want):
    """Equal series with the same layout object and int numerators."""
    assert got == want and got._lay is want._lay
    assert type(got._den) is int and all(type(v) is int for v in got._num.values())


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.sampled_from([0, 2] + KERNEL_BOUNDS),
    st.integers(-5, 5) | coeffs | st.sampled_from(["1/3", "-2/7", "0", "4"]),
)
def test_constants_match_the_validating_constructor(weights, bound, value):
    vars_ = VarTable([(f"v{i}", w) for i, w in enumerate(weights)])
    zero = (0,) * len(weights)
    want = TruncatedSeries(vars_, bound, {zero: Rational(value)})
    same_packed(TruncatedSeries.constant(vars_, bound, value), want)
    same_packed(TruncatedSeries.one(vars_, bound), TruncatedSeries(vars_, bound, {zero: 1}))
    same_packed(TruncatedSeries.zero(vars_, bound), TruncatedSeries(vars_, bound, {}))


@pytest.mark.parametrize("vars_, bound", [(None, 3), (("x",), 3), (X, -1), (X, 1.5), (X, "2")])
def test_constants_check_the_table_and_bound(vars_, bound):
    for build in (TruncatedSeries.zero, TruncatedSeries.one):
        with pytest.raises(StructureError):
            build(vars_, bound)
    with pytest.raises(StructureError):
        TruncatedSeries.constant(vars_, bound, 2)
