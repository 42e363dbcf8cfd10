"""Tests for model intersection rings with triangular rewrite presentations.

Expected integrals were derived by hand from the standard presentations
(one relation per leading generator power) and frozen here before the
module was written.
"""

import json

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from detlam import chowmodel
from detlam.charclass import adams_rescale
from detlam.chowmodel import (
    ChowModel,
    ModelError,
    UnsupportedModelError,
    load_model,
    load_model_file,
    model_hirzebruch,
    model_pn,
    model_pn_x_pm,
)
from detlam.exactalg import DomainError, Rational, StructureError, TruncatedSeries, VarTable


def mono(model, exps, coeff=1):
    return TruncatedSeries(model.vars, model.total_dim, {exps: coeff})


def one(model):
    return TruncatedSeries.one(model.vars, model.total_dim)


def integrate(model, a, b):
    """The integral of a b over the model as a Rational: the integer
    pairing ``ChowModel._pair`` divided out."""
    return Rational(*model._pair(a, b))


# ----------------------------------------------------------------------
# projective space over a point


def test_pn_normal_form_and_integrate():
    p2 = model_pn(2)
    h3 = mono(p2, (3,))
    assert p2.normal_form(h3).is_zero()
    assert integrate(p2, mono(p2, (2,)), one(p2)) == 1
    assert integrate(p2, mono(p2, (1,)), one(p2)) == 0
    assert integrate(p2, mono(p2, (2,), Rational(5, 3)), one(p2)) == Rational(5, 3)


@pytest.mark.parametrize("bound", [1, 4])
def test_normal_form_rejects_a_series_at_another_bound(bound):
    p2 = model_pn(2)
    other = TruncatedSeries(p2.vars, bound, {(1,): 2})
    with pytest.raises(ModelError, match="^series lives in a different ring$"):
        p2.normal_form(other)
    with pytest.raises(ModelError, match="^series lives in a different ring$"):
        integrate(p2, mono(p2, (1,)), other)


@pytest.mark.parametrize(
    "other",
    [
        TruncatedSeries(VarTable([("h", 1)]), 1, {(1,): 2}),
        TruncatedSeries(VarTable([("h", 1)]), 4, {(1,): 2}),
        TruncatedSeries(VarTable([("g", 1)]), 2, {(1,): 2}),
    ],
    ids=["bound-1", "bound-4", "other-variables"],
)
def test_integrate_rejects_a_series_of_another_ring(other):
    p2 = model_pn(2)
    own = mono(p2, (1,))
    for args in [(other, other), (other, own), (own, other)]:
        with pytest.raises(ModelError, match="^series lives in a different ring$"):
            integrate(p2, *args)


def test_pn_structure():
    p1 = model_pn(1)
    assert p1.total_dim == 1 and p1.rel_dim == 1
    assert p1.tangent_chern.terms[(1,)] == 2  # c1(T) = 2h
    p3 = model_pn(3)
    assert p3.tangent_chern.terms[(1,)] == 4
    assert integrate(p3, p3.normal_form(mono(p3, (3,))), one(p3)) == 1


# ----------------------------------------------------------------------
# product family P1 x P1 -> P1


def test_product_family_basics():
    m = model_pn_x_pm(1, 1)
    assert m.rel_dim == 1 and m.total_dim == 2
    assert integrate(m, mono(m, (1, 1)), one(m)) == 1
    assert m.normal_form(mono(m, (2, 0))).is_zero()
    assert m.normal_form(mono(m, (0, 2))).is_zero()


def test_first_chern_checks_a_zero_coefficient_but_adds_no_term():
    m = model_pn_x_pm(1, 1)
    assert m.first_chern({"h": 0, "s": 3}) == mono(m, (0, 1), 3)
    assert m.first_chern({"h": 0, "s": 0}).is_zero()
    with pytest.raises(StructureError, match="unknown variable 'x'"):
        m.first_chern({"x": 0})
    with pytest.raises(ModelError, match="coefficient of h"):
        m.first_chern({"h": False})


def first_chern_by_exponents(m, line):
    """c_1(L) through the validating constructor, one exponent vector per
    generator: the route ``first_chern`` took before it wrote packed keys."""
    n = len(m.vars)
    terms = {tuple(int(j == m.vars.index(g)) for j in range(n)): a for g, a in line.items()}
    return TruncatedSeries(m.vars, m.total_dim, terms)


def test_first_chern_drops_every_term_above_a_point_window():
    # one generator h with h = 0: total_dim 0, so a degree-1 term lies
    # above the window
    pt = ChowModel("pt", [("h", 1)], [((1,), [])], 0, 0, [], None, (0,))
    assert pt.first_chern({"h": 3}).is_zero()
    assert first_chern_by_exponents(pt, {"h": 3}).is_zero()


def test_builtin_model_names():
    assert chowmodel.builtin_model(" P2xP1 ").name == "P2xP1"
    assert chowmodel.builtin_model("p3").name == "P3"


@pytest.mark.parametrize(
    "name", ["P1_0xP1", "P+2xP1", "P 2xP1", "P\u0663", "P\u0661xP\u0661", "P2xP", "Px1", "P2xP1x"]
)
def test_builtin_model_names_read_ascii_digits_only(name):
    # int() alone reads "1_0" as 10, "+2" and " 2" as 2 and Arabic-Indic
    # digits as their values
    with pytest.raises(ModelError, match="^unknown model "):
        chowmodel.builtin_model(name)


# ----------------------------------------------------------------------
# Hirzebruch surfaces


def test_hirzebruch_relations_frozen():
    for e in range(4):
        m = model_hirzebruch(e)
        nf = m.normal_form(mono(m, (2, 0)))  # z^2 -> -e z f
        assert nf.terms.get((1, 1), 0) == -e
        assert integrate(m, mono(m, (1, 1)), one(m)) == 1
        assert integrate(m, mono(m, (2, 0)), one(m)) == -e
        assert m.normal_form(mono(m, (0, 2))).is_zero()
        # x := 2z + e f satisfies x^2 = 0
        x = mono(m, (1, 0), 2) + mono(m, (0, 1), e)
        assert m.normal_form(x * x).is_zero()


def test_hirzebruch_zero_matches_product():
    f0 = model_hirzebruch(0)
    p = model_pn_x_pm(1, 1)
    # z <-> h, f <-> s on every monomial of degree <= 2
    for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert integrate(f0, mono(f0, exps), one(f0)) == integrate(p, mono(p, exps), one(p))


def test_hirzebruch_euler_characteristic_anchor():
    # chi(O) = integral of (c1^2 + c2)/12 for the total tangent sheaf,
    # c(T) = (1 + 2z + e f)(1 + 2f); must equal 1 for every e
    from detlam.charclass import todd_from_chern

    for e in range(4):
        m = model_hirzebruch(e)
        base_t = mono(m, (0, 0)) + mono(m, (0, 1), 2)
        total = m.normal_form(m.tangent_chern * base_t)
        assert integrate(m, todd_from_chern(total), one(m)) == 1


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
    base_t = TruncatedSeries(bad.vars, 2, {(0, 0): 1, (0, 1): 2})
    total = bad.normal_form(bad.tangent_chern * base_t)
    chi = integrate(bad, todd_from_chern(total), one(bad))
    assert chi != 1 and chi.denominator != 1


# ----------------------------------------------------------------------
# load / dump


def test_model_json_round_trip():
    m = model_hirzebruch(3)
    obj = m.to_obj()
    m2 = load_model(obj)
    assert integrate(m2, mono(m2, (2, 0)), one(m2)) == -3
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
        assert integrate(m, mono(m, (k,)), one(m)) == integrate(ref, mono(ref, (k,)), one(ref))


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


def test_validation_rejects_two_normal_fiber_points():
    # h and k are both normal fiber monomials of degree rel_dim = 1; h s = k s
    # leaves k s as the one normal monomial of degree 2, so the point class holds
    with pytest.raises(UnsupportedModelError, match="need exactly one normal fiber monomial"):
        ChowModel(
            name="bad",
            generators=[("h", 1), ("k", 1), ("s", 1)],
            relations=[
                ((2, 0, 0), []),
                ((1, 1, 0), []),
                ((0, 2, 0), []),
                ((0, 0, 2), []),
                ((1, 0, 1), [((0, 1, 1), 1)]),
            ],
            rel_dim=1,
            total_dim=2,
            base_generators=["s"],
            tangent_chern=None,
            point_class=(0, 1, 1),
        )


def test_validation_rejects_a_fiber_monomial_above_the_fiber_point():
    # s h = h^2 makes h^2 the point class; it is a normal fiber monomial of
    # degree 2, above the fiber point h of degree rel_dim = 1
    with pytest.raises(UnsupportedModelError, match="fiber degree exceeds the fiber point"):
        ChowModel(
            name="bad",
            generators=[("s", 1), ("h", 1)],
            relations=[((2, 0), []), ((1, 1), [((0, 2), 1)]), ((0, 3), [])],
            rel_dim=1,
            total_dim=2,
            base_generators=["s"],
            tangent_chern=None,
            point_class=(0, 2),
        )


def test_closure_reads_every_degree_up_to_the_largest_weight():
    # c has weight 2 and h^2 = c: nothing of degree 3 is normal, but c^2 of
    # degree 4 = total_dim + 2 is, so the ring does not vanish above total_dim
    with pytest.raises(ModelError, match=r"normal monomial \(0, 2\) of degree 4"):
        ChowModel(
            name="bad",
            generators=[("h", 1), ("c", 2)],
            relations=[((2, 0), [((0, 1), 1)]), ((1, 1), [])],
            rel_dim=2,
            total_dim=2,
            base_generators=[],
            tangent_chern=None,
            point_class=(0, 1),
        )


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


# ----------------------------------------------------------------------
# the top-degree pairing against the normal-form route


def integral_by_normal_form(m, a, b=None):
    """The point-class coefficient of the normal form of a*b: the route
    the model's integral took before the top-degree pairing."""
    return m.normal_form(a if b is None else a * b).terms.get(m.point_class, Rational(0))


# z^2 = (3/2) z f makes the integral of z^2 a non-integer, so the pairing
# table carries a common denominator of 2
HALF_RULE_MODEL = {
    "name": "half",
    "generators": [{"name": "z", "weight": 1}, {"name": "f", "weight": 1}],
    "relations": [
        {"lead": [2, 0], "replace": [{"exponents": [1, 1], "coeff": "3/2"}]},
        {"lead": [0, 2], "replace": []},
    ],
    "rel_dim": 1,
    "total_dim": 2,
    "base_generators": ["f"],
    "point_class": [1, 1],
}


PAIRING_MODELS = ["P1", "P2", "P3", "P4", "P1xP1", "P2xP1", "P3xP1", "F0", "F1", "F2", "F3", "half"]


@pytest.fixture(scope="module")
def pairing_models(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "half.json"
    path.write_text(json.dumps(HALF_RULE_MODEL), encoding="utf-8")
    models = (
        [model_pn(n) for n in range(1, 5)]
        + [model_pn_x_pm(n, 1) for n in range(1, 4)]
        + [model_hirzebruch(e) for e in range(4)]
        + [load_model_file(str(path))]
    )
    assert [m.name for m in models] == PAIRING_MODELS
    return dict(zip(PAIRING_MODELS, models))


def test_half_rule_model_has_a_fractional_integral(pairing_models):
    m = pairing_models["half"]
    assert integrate(m, mono(m, (2, 0)), one(m)) == Rational(3, 2)
    assert integrate(m, mono(m, (1, 0)), mono(m, (1, 0), 2)) == 3


@st.composite
def model_series(draw, m):
    """Series whose exponents run up to total_dim in every generator, so
    most draws hold monomials that are not in normal form."""
    n = len(m.vars)
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, m.total_dim) for _ in range(n))),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
            ),
            max_size=6,
        )
    )
    return TruncatedSeries.from_terms(m.vars, m.total_dim, items)


@pytest.mark.parametrize("name", PAIRING_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integrate_matches_the_normal_form_route(pairing_models, name, data):
    m = pairing_models[name]
    a = data.draw(model_series(m), label="a")
    b = data.draw(model_series(m), label="b")
    want = integral_by_normal_form(m, a, b)
    assert integrate(m, a, b) == want
    assert integrate(m, b, a) == want
    assert integrate(m, a, one(m)) == integral_by_normal_form(m, a)
    assert integrate(m, m.normal_form(a), m.normal_form(b)) == want


@pytest.mark.parametrize("name", PAIRING_MODELS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_twisted_pairing_is_the_pairing_of_the_rescaled_series(pairing_models, name, data):
    # the integral of psi^t(a) b weighs the pairing of a's degree-k part by
    # t^k; the per-line degrees pair psi^t(ch L), built by adams_rescale from
    # a normal form, so rescaling must keep normal forms normal
    m = pairing_models[name]
    a = data.draw(model_series(m), label="a")
    b = data.draw(model_series(m), label="b")
    for t in range(-3, 4):
        want = sum(t**k * integrate(m, a.component(k), b) for k in range(m.total_dim + 1))
        assert integrate(m, adams_rescale(a, t), b) == want
        assert integrate(m, b, adams_rescale(a, t)) == want
        assert adams_rescale(m.normal_form(a), t) == m.normal_form(adams_rescale(a, t))


@st.composite
def unreduced_series(draw, m):
    """A series on a VarTable equal to the model's but not the same
    object, with a denominator above 1, holding the base generator's
    square, a rule lead in every product family and Hirzebruch surface."""
    vars_ = VarTable(list(zip(m.vars.names, m.vars.weights)))
    n = len(vars_)
    terms = dict(
        draw(
            st.lists(
                st.tuples(
                    st.tuples(*(st.integers(0, m.total_dim) for _ in range(n))),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6),
                ),
                max_size=6,
            )
        )
    )
    terms[(0,) * n] = Rational(1, draw(st.integers(2, 6)))
    terms[(0, 2) + (0,) * (n - 2)] = draw(st.integers(1, 3))
    return TruncatedSeries(vars_, m.total_dim, terms)


@pytest.mark.parametrize("name", ["P1xP1", "P2xP1", "P3xP1", "F0", "F1", "F2", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pairing_kernel_is_integrate_on_integers(pairing_models, name, data):
    m = pairing_models[name]
    a = data.draw(unreduced_series(m), label="a")
    b = data.draw(unreduced_series(m), label="b")
    assert a.vars == m.vars and a.vars is not m.vars
    assert a._den > 1 and b._den > 1
    assert m.normal_form(a) != a and m.normal_form(b) != b
    num, den = m._pair(a, b)
    assert type(num) is int and type(den) is int and den > 0
    assert Rational(num, den) == integral_by_normal_form(m, a, b)


@pytest.mark.parametrize("name", PAIRING_MODELS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_first_chern_matches_the_exponent_route(pairing_models, name, data):
    m = pairing_models[name]
    line = data.draw(
        st.dictionaries(st.sampled_from(m.vars.names), st.integers(-5, 5)), label="line"
    )
    got = m.first_chern(line)
    assert got == first_chern_by_exponents(m, line)
    assert got._lay is m._lay


def test_integrate_is_exact_off_normal_form(pairing_models):
    # every monomial of the window, reducible ones included
    for m in pairing_models.values():
        window = (
            exps
            for k in range(m.total_dim + 1)
            for exps in chowmodel._exponents_of_degree(m.vars.weights, k)
        )
        a = TruncatedSeries.from_terms(
            m.vars, m.total_dim, [(exps, Rational(1, i + 2)) for i, exps in enumerate(window)]
        )
        if len(m.vars) > 1:
            assert m.normal_form(a) != a
        assert integrate(m, a, one(m)) == integral_by_normal_form(m, a)
        assert integrate(m, a, a) == integral_by_normal_form(m, a, a)


def recursive_exponents_of_degree(weights, degree):
    """The exponent vectors of one weighted degree, one recursion level per
    weight: the lexicographic enumeration the odometer must reproduce."""
    if not weights:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    for e in range(degree // w + 1) if w else (0,):
        for rest in recursive_exponents_of_degree(weights[1:], degree - e * w):
            yield (e,) + rest


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5), st.integers(0, 9))
def test_exponents_of_degree_in_lexicographic_order(weights, degree):
    got = list(chowmodel._exponents_of_degree(tuple(weights), degree))
    assert got == list(recursive_exponents_of_degree(tuple(weights), degree))


def elementwise_exponents_ok(exps, n):
    """The per-element Python predicate: the oracle for the vectors
    ChowModel._exponents accepts."""
    return isinstance(exps, (list, tuple)) and len(exps) == n and not any(
        type(e) is not int or e < 0 for e in exps
    )


EXPONENT_ELEMENTS = st.one_of(
    st.integers(-3, 5),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.text(max_size=2),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 5), max_size=4).map(tuple),
        st.lists(EXPONENT_ELEMENTS, max_size=4),
        st.lists(EXPONENT_ELEMENTS, max_size=4).map(tuple),
        st.frozensets(st.integers(0, 5), max_size=3),
        st.dictionaries(st.integers(0, 5), st.integers(0, 5), max_size=3),
        st.text(max_size=3),
        st.integers(),
        st.none(),
    )
)
def test_exponent_check_equals_the_elementwise_predicate(exps):
    model = model_hirzebruch(1)
    n = len(model.vars)
    try:
        got = model._exponents(exps, "point class")
    except ModelError as exc:
        got = str(exc)
    if elementwise_exponents_ok(exps, n):
        assert got == tuple(exps)
    else:
        assert got == f"bad point class {exps!r}: need {n} nonnegative integers"


# ----------------------------------------------------------------------
# the normal-monomial checks against the reducing checks they replaced


class ReducingModel(ChowModel):
    """ChowModel with the closure and fibration checks that reduce every
    monomial above the window and walk the whole window: the oracle for the
    normal-monomial checks."""

    def _check_dimension_closure(self):
        top = self.total_dim
        cache = {}
        for deg in range(top + 1, top + max(self.vars.weights) + 1):
            for exps in chowmodel._exponents_of_degree(self.vars.weights, deg):
                if dense_reduce(self, exps, cache):
                    raise ModelError(f"monomial {exps} of degree {deg} does not normalize to zero")

    def _find_relative_point(self):
        if self.rel_dim == 0:
            return (0,) * len(self.vars)
        if all(i in self._base_idx for i in range(len(self.vars))):
            raise ModelError("no fiber generators for a positive relative dimension")
        candidates = [
            exps
            for exps in chowmodel._exponents_of_degree(self.vars.weights, self.rel_dim)
            if all(exps[i] == 0 for i in self._base_idx) and self._is_normal(exps)
        ]
        if len(candidates) != 1:
            raise UnsupportedModelError("need exactly one normal fiber monomial")
        rel_pt = candidates[0]
        for deg in range(self.total_dim + 1):
            for exps in chowmodel._exponents_of_degree(self.vars.weights, deg):
                if not self._is_normal(exps):
                    continue
                fiber_part = tuple(0 if i in self._base_idx else e for i, e in enumerate(exps))
                if not self._is_normal(fiber_part):
                    raise UnsupportedModelError("normal monomials do not split over the base")
                if self.vars.degree(fiber_part) >= self.rel_dim and fiber_part != rel_pt:
                    raise UnsupportedModelError("fiber degree exceeds the fiber point")
        return rel_pt


@st.composite
def presentations(draw):
    """Small homogeneous, decreasing presentations. Most carry a power rule
    g^a = 0 per generator with total_dim at the top degree of those powers,
    so a good share passes closure and reaches the fibration check."""
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.integers(1, 2)) for _ in range(n))
    powers = [draw(st.integers(1, 3)) for _ in range(n)]
    top = sum((a - 1) * w for a, w in zip(powers, weights))
    total = top if 1 <= top <= 4 and draw(st.integers(0, 3)) else draw(st.integers(1, 4))
    vt = VarTable([(f"g{i}", w) for i, w in enumerate(weights)])
    rules = {}
    for i, a in enumerate(powers):
        if draw(st.integers(0, 4)):
            rules[tuple(a * (j == i) for j in range(n))] = []
    for _ in range(draw(st.integers(0, 2))):
        lead = tuple(draw(st.integers(0, 2)) for _ in range(n))
        deg = vt.degree(lead)
        if deg == 0 or lead in rules:
            continue
        below = [
            e for e in chowmodel._exponents_of_degree(weights, deg) if e < lead
        ]
        picked = draw(st.lists(st.sampled_from(below), unique=True, max_size=2)) if below else []
        coeffs = st.sampled_from([1, -1, 2, "1/2", "-3/2"])
        rules[lead] = [(e, draw(coeffs)) for e in picked]
    rel_dim = draw(st.integers(0, total))
    names = [f"g{i}" for i in range(n)]
    family = int(rel_dim < total)
    base = draw(st.lists(st.sampled_from(names), min_size=family, max_size=max(n - 1, family), unique=True))
    tops = list(chowmodel._exponents_of_degree(weights, total)) or [(total,) + (0,) * (n - 1)]
    normal = [e for e in tops if not any(all(a <= b for a, b in zip(r, e)) for r in rules)]
    point = draw(st.sampled_from(normal if normal and draw(st.integers(0, 5)) else tops))
    return dict(
        name="drawn",
        generators=list(zip(names, weights)),
        relations=list(rules.items()),
        rel_dim=rel_dim,
        total_dim=total,
        base_generators=base,
        tangent_chern=None,
        point_class=point,
    )


def build(cls, kwargs):
    try:
        return cls(**kwargs)
    except ModelError as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(presentations())
def test_normal_monomial_checks_match_the_reducing_checks(kwargs):
    got, want = build(ChowModel, kwargs), build(ReducingModel, kwargs)
    if isinstance(want, ModelError):
        assert type(got) is type(want)
    else:
        assert isinstance(got, ChowModel), got
        assert got.to_obj() == want.to_obj()
        assert (got._top, got._top_den) == (want._top, want._top_den)


def dense_reduce(m, exps, cache):
    """Reduce by the first rule in ``m.rules`` order whose lead divides the
    monomial, found by testing every lead: the oracle for the lead index."""
    if exps not in cache:
        out = {exps: Rational(1)}
        for lead, replace in m.rules:
            if all(a <= b for a, b in zip(lead, exps)):
                out = {}
                for rexps, rc in replace:
                    prod = tuple(r + b - a for r, a, b in zip(rexps, lead, exps))
                    for nexps, nc in dense_reduce(m, prod, cache).items():
                        out[nexps] = out.get(nexps, Rational(0)) + rc * nc
                out = {e: c for e, c in out.items() if c}
                break
        cache[exps] = out
    return cache[exps]


class RulesOnly(ChowModel):
    """The rewrite rules of a presentation and nothing else checked, so
    every drawn rule set reduces, valid model or not."""

    def __init__(self, generators, relations, total_dim, **_):
        self.vars = VarTable(generators)
        self.total_dim = total_dim
        self._lay = self.vars._layout(total_dim)
        self._ring = TruncatedSeries.zero(self.vars, total_dim)
        self.rules, self._leads_at, self._packed = self._parse_rules(relations)
        self._nf = {}


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_reduction_applies_the_first_dividing_rule(kwargs):
    # drawn rule sets need not be confluent, so the rule chosen shows; the
    # table holds window monomials only, so the comparison stops at total_dim
    m = RulesOnly(**kwargs)
    cache = {}
    for deg in range(kwargs["total_dim"] + 1):
        for exps in chowmodel._exponents_of_degree(m.vars.weights, deg):
            image, den = m._reduce(m._lay.key(exps))
            got = {m._lay.exps(k): Rational(v, den) for k, v in image.items()}
            assert got == dense_reduce(m, exps, cache)


@pytest.mark.parametrize(
    "outcome",
    [
        lambda m: isinstance(m, ChowModel) and m.rel_dim == m.total_dim,
        lambda m: isinstance(m, ChowModel) and m.rel_dim < m.total_dim,
        lambda m: type(m) is UnsupportedModelError,
    ],
    ids=["point-model", "family", "unsupported"],
)
def test_drawn_presentations_reach_each_outcome(outcome):
    # the oracle comparison is only as good as the outcomes its draws reach
    quick = settings(max_examples=2000, phases=[Phase.generate], database=None)
    find(presentations(), lambda kw: outcome(build(ChowModel, kw)), settings=quick)
