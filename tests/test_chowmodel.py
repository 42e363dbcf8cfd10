"""Tests for model intersection rings with triangular rewrite presentations.

Expected integrals were derived by hand from the standard presentations
(one relation per leading generator power) and frozen here before the
module was written.
"""

import pytest
from hypothesis import given, settings, strategies as st

from detlam.chowmodel import (
    BundleClass,
    ChowModel,
    ModelError,
    UnsupportedModelError,
    load_model,
    model_hirzebruch,
    model_pn,
    model_pn_x_pm,
)
from detlam.exactalg import Rational, TruncatedSeries


def mono(model, exps, coeff=1):
    return TruncatedSeries(model.vars, model.total_dim, {exps: coeff})


# ----------------------------------------------------------------------
# projective space over a point


def test_pn_normal_form_and_integrate():
    p2 = model_pn(2)
    h3 = mono(p2, (3,))
    assert p2.normal_form(h3).is_zero()
    assert p2.integrate(mono(p2, (2,))) == 1
    assert p2.integrate(mono(p2, (1,))) == 0
    assert p2.integrate(mono(p2, (2,), Rational(5, 3))) == Rational(5, 3)


@pytest.mark.parametrize("bound", [1, 4])
def test_normal_form_rejects_a_series_at_another_bound(bound):
    p2 = model_pn(2)
    other = TruncatedSeries(p2.vars, bound, {(1,): 2})
    with pytest.raises(ModelError, match="different ring"):
        p2.normal_form(other)


def test_pn_structure():
    p1 = model_pn(1)
    assert p1.total_dim == 1 and p1.rel_dim == 1
    assert p1.tangent_chern.coefficient((1,)) == 2  # c1(T) = 2h
    p3 = model_pn(3)
    assert p3.tangent_chern.coefficient((1,)) == 4
    assert p3.integrate(p3.normal_form(mono(p3, (3,)))) == 1


# ----------------------------------------------------------------------
# product family P1 x P1 -> P1


def test_product_family_basics():
    m = model_pn_x_pm(1, 1)
    assert m.rel_dim == 1 and m.total_dim == 2
    assert m.integrate(mono(m, (1, 1))) == 1
    assert m.normal_form(mono(m, (2, 0))).is_zero()
    assert m.normal_form(mono(m, (0, 2))).is_zero()


# ----------------------------------------------------------------------
# Hirzebruch surfaces


def test_hirzebruch_relations_frozen():
    for e in range(4):
        m = model_hirzebruch(e)
        nf = m.normal_form(mono(m, (2, 0)))  # z^2 -> -e z f
        assert nf.coefficient((1, 1)) == -e
        assert m.integrate(mono(m, (1, 1))) == 1
        assert m.integrate(mono(m, (2, 0))) == -e
        assert m.normal_form(mono(m, (0, 2))).is_zero()
        # x := 2z + e f satisfies x^2 = 0
        x = mono(m, (1, 0), 2) + mono(m, (0, 1), e)
        assert m.normal_form(x * x).is_zero()


def test_hirzebruch_zero_matches_product():
    f0 = model_hirzebruch(0)
    p = model_pn_x_pm(1, 1)
    # z <-> h, f <-> s on every monomial of degree <= 2
    for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert f0.integrate(mono(f0, exps)) == p.integrate(mono(p, exps))


def test_hirzebruch_euler_characteristic_anchor():
    # chi(O) = integral of (c1^2 + c2)/12 for the total tangent sheaf,
    # c(T) = (1 + 2z + e f)(1 + 2f); must equal 1 for every e
    from detlam.charclass import todd_from_chern

    for e in range(4):
        m = model_hirzebruch(e)
        base_t = m.one() + mono(m, (0, 1), 2)
        total = m.normal_form(m.tangent_chern * base_t)
        assert m.integrate(todd_from_chern(total)) == 1


def test_wrong_sign_pairing_breaks_euler_anchor():
    # Negative control: flipping the fiber relation sign while keeping the
    # tangent class gives a non-integer chi(O), so the conventions in
    # model_hirzebruch are forced, not arbitrary.
    from detlam.charclass import todd_from_chern

    e = 2
    good = model_hirzebruch(e)
    bad = ChowModel(
        name="badF2",
        generators=[("z", 1), ("f", 1)],
        relations=[((2, 0), [((1, 1), Rational(e))]), ((0, 2), [])],
        rel_dim=1,
        total_dim=2,
        base_generators=["f"],
        tangent_chern=good.tangent_chern,
        point_class=(1, 1),
    )
    base_t = bad.one() + TruncatedSeries(bad.vars, 2, {(0, 1): 2})
    total = bad.normal_form(bad.tangent_chern * base_t)
    chi = bad.integrate(todd_from_chern(total))
    assert chi != 1 and chi.denominator != 1


# ----------------------------------------------------------------------
# load / dump


def test_model_json_round_trip():
    m = model_hirzebruch(3)
    obj = m.to_obj()
    m2 = load_model(obj)
    assert m2.integrate(mono(m2, (2, 0))) == -3
    assert m2.to_obj() == obj


def test_load_model_from_schema_dict():
    obj = {
        "name": "P2",
        "generators": [{"name": "h", "weight": 1}],
        "relations": [{"lead": [3], "replace": []}],
        "rel_dim": 2,
        "total_dim": 2,
        "base_generators": [],
        "tangent_chern": [
            {"exponents": [0], "coeff": "1"},
            {"exponents": [1], "coeff": "3"},
            {"exponents": [2], "coeff": "3"},
        ],
        "point_class": [2],
    }
    m = load_model(obj)
    ref = model_pn(2)
    for k in range(3):
        assert m.integrate(mono(m, (k,))) == ref.integrate(mono(ref, (k,)))


def test_validation_rejects_nonterminating_rule():
    with pytest.raises(ModelError):
        ChowModel(
            name="bad",
            generators=[("z", 1), ("f", 1)],
            relations=[((1, 0), [((1, 1), Rational(1))]), ((0, 2), [])],
            rel_dim=1,
            total_dim=2,
            base_generators=["f"],
            tangent_chern=None,
            point_class=(1, 1),
        )


def test_validation_rejects_unclosed_dimension():
    with pytest.raises(ModelError):
        ChowModel(
            name="bad",
            generators=[("h", 1)],
            relations=[],
            rel_dim=1,
            total_dim=1,
            base_generators=[],
            tangent_chern=None,
            point_class=(1,),
        )


def test_validation_rejects_vanishing_point_class():
    with pytest.raises(ModelError):
        ChowModel(
            name="bad",
            generators=[("x", 1), ("y", 1)],
            relations=[((2, 0), []), ((0, 2), []), ((1, 1), [])],
            rel_dim=2,
            total_dim=2,
            base_generators=[],
            tangent_chern=None,
            point_class=(1, 1),
        )


def test_validation_rejects_family_without_base_marks():
    with pytest.raises(ModelError):
        ChowModel(
            name="bad",
            generators=[("h", 1), ("s", 1)],
            relations=[((2, 0), []), ((0, 2), [])],
            rel_dim=1,
            total_dim=2,
            base_generators=[],
            tangent_chern=None,
            point_class=(1, 1),
        )


def test_validation_rejects_point_class_off_the_fiber_point():
    # h s = 0 leaves s^2 as the only normal monomial of degree 2, and it has
    # no factor of the fiber point h
    with pytest.raises(UnsupportedModelError, match="does not factor through the fiber point"):
        ChowModel(
            name="bad",
            generators=[("h", 1), ("s", 1)],
            relations=[((2, 0), []), ((1, 1), []), ((0, 3), [])],
            rel_dim=1,
            total_dim=2,
            base_generators=["s"],
            tangent_chern=None,
            point_class=(0, 2),
        )


def test_bundle_class_validation():
    m = model_pn_x_pm(1, 1)
    line = BundleClass.line(m, {"h": 1, "s": 1})
    assert line.rank == 1
    assert line.chern.coefficient((1, 0)) == 1
    bad_chern = TruncatedSeries(m.vars, m.total_dim, {(1, 0): 1})
    with pytest.raises(ModelError):
        BundleClass(rank=1, chern=bad_chern)  # constant term != 1


# ----------------------------------------------------------------------
# properties


@st.composite
def hirzebruch_series(draw):
    m = model_hirzebruch(2)
    n = len(m.vars)
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 2) for _ in range(n))),
                st.integers(-5, 5),
            ),
            max_size=5,
        )
    )
    return m, TruncatedSeries.from_terms(m.vars, m.total_dim, items)


@settings(max_examples=50, deadline=None)
@given(hirzebruch_series())
def test_normal_form_idempotent_and_linear(ms):
    m, s = ms
    nf = m.normal_form(s)
    assert m.normal_form(nf) == nf
    assert m.normal_form(s + s) == nf + nf


@settings(max_examples=50, deadline=None)
@given(hirzebruch_series(), hirzebruch_series())
def test_normal_form_multiplicative(a, b):
    m, s = a
    _, t = b
    assert m.normal_form(s * t) == m.normal_form(m.normal_form(s) * m.normal_form(t))
