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


def test_zero_coefficients_are_dropped_and_bound_enforced():
    s = S(X, 2, [((0,), 1), ((1,), 0), ((3,), 5)])
    assert s.terms == {(0,): Rational(1)}
    assert s == TruncatedSeries.one(X, 2)


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
        assert e.coefficient((k,)) == Rational(1, fact)


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
    assert t.coefficient((1, 1)) == 1
    assert t.coefficient((2, 1)) == 0


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
            s = s - TruncatedSeries.constant(vars_, bound, s.coefficient((0, 0)) - 1)
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
