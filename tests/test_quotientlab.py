"""Tests for sign-involution quotients of graded polynomial algebras.

The oracle counts monomials by (degree, parity) directly, one variable at a
time, and every series-level claim is checked against those counts. A second
oracle enumerates every exponent vector in the window and shares no code with
either the library or the first oracle.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from detlam.exactalg import DomainError, StructureError
from detlam.quotientlab import (
    FixedIdeal,
    FlatnessReport,
    MAX_BOUND,
    GradedAlgebra,
    conormal_degree_zero,
    fixed_ideal,
    flatness_verdict,
    hilbert_series,
    invariants_hs,
    quotient_report,
    series_coefficients,
    signed_hilbert_series,
)


def monomial_counts(variables, bound):
    """Counts of monomials by degree, split by total sign parity."""
    even = [0] * (bound + 1)
    odd = [0] * (bound + 1)
    even[0] = 1
    for _name, d, p in variables:
        for n in range(d, bound + 1):
            if p == 0:
                even[n] += even[n - d]
                odd[n] += odd[n - d]
            else:
                even[n], odd[n] = even[n] + odd[n - d], odd[n] + even[n - d]
    return even, odd


def enumerated_counts(variables, bound):
    """Brute force: list every exponent vector of weighted degree <= bound and
    tally it by degree, as (all monomials, parity-signed sum)."""
    plain = [0] * (bound + 1)
    signed = [0] * (bound + 1)
    ranges = [range(bound // d + 1) for _name, d, _p in variables]
    for exps in product(*ranges):
        degree = sum(e * d for e, (_n, d, _p) in zip(exps, variables))
        if degree <= bound:
            parity = sum(e * p for e, (_n, _d, p) in zip(exps, variables)) % 2
            plain[degree] += 1
            signed[degree] += -1 if parity else 1
    return plain, signed


def seeded_algebra(seed):
    rng = random.Random(seed)
    n = 1 + seed % 4
    return tuple((f"v{i}", rng.randint(1, 4), rng.randint(0, 1)) for i in range(n))


def alg(*variables):
    return GradedAlgebra(tuple(variables))


@st.composite
def small_algebras(draw):
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 1)),
            min_size=1,
            max_size=5,
        )
    )
    return alg(*((f"x{i}", d, p) for i, (d, p) in enumerate(shapes)))


class TestGradedAlgebra:
    def test_basic_fields(self):
        a = alg(("x", 1, 1), ("y", 2, 0))
        assert a.odd_variables == (("x", 1, 1),)

    def test_requires_variables(self):
        with pytest.raises(StructureError):
            GradedAlgebra(())

    def test_rejects_bad_parity(self):
        with pytest.raises(StructureError):
            alg(("x", 1, 2))

    def test_rejects_bad_degree(self):
        with pytest.raises(StructureError):
            alg(("x", 0, 1))
        with pytest.raises(StructureError):
            alg(("x", -3, 0))

    def test_rejects_duplicate_names(self):
        with pytest.raises(StructureError):
            alg(("x", 1, 1), ("x", 2, 0))

    def test_rejects_bad_names(self):
        with pytest.raises(StructureError):
            alg(("", 1, 1))
        with pytest.raises(StructureError):
            alg(("x y", 1, 1))

    def test_from_spec(self):
        a = GradedAlgebra.from_spec("x:1:odd,y:2:even")
        assert a.variables == (("x", 1, 1), ("y", 2, 0))
        b = GradedAlgebra.from_spec("u:3:1")
        assert b.variables == (("u", 3, 1),)

    def test_from_spec_rejects(self):
        for text in ["", "x", "x:1", "x:1:odd:extra", "x:0:odd", "x:1:maybe"]:
            with pytest.raises(StructureError):
                GradedAlgebra.from_spec(text)


class TestHilbertSeries:
    def test_single_odd_variable_invariants(self):
        a = alg(("x", 1, 1))
        got = series_coefficients(invariants_hs(a, bound=8))
        assert got == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_odd_plus_even_invariants(self):
        a = alg(("x", 1, 1), ("y", 1, 0))
        got = series_coefficients(invariants_hs(a, bound=5))
        assert got == [1, 1, 2, 2, 3, 3]

    def test_two_odd_invariants(self):
        a = alg(("x", 1, 1), ("y", 1, 1))
        got = series_coefficients(invariants_hs(a, bound=6))
        assert got == [1, 0, 3, 0, 5, 0, 7]

    def test_full_series_is_monomial_count(self):
        a = alg(("x", 1, 1), ("y", 2, 0), ("z", 3, 1))
        even, odd = monomial_counts(a.variables, 12)
        got = series_coefficients(hilbert_series(a, bound=12))
        assert got == [e + o for e, o in zip(even, odd)]

    def test_signed_series_is_trace(self):
        a = alg(("x", 1, 1), ("y", 2, 0))
        even, odd = monomial_counts(a.variables, 10)
        got = series_coefficients(signed_hilbert_series(a, bound=10))
        assert got == [e - o for e, o in zip(even, odd)]

    @settings(max_examples=60, deadline=None)
    @given(small_algebras())
    def test_parity_decomposition_randomized(self, a):
        bound = 20
        even, odd = monomial_counts(a.variables, bound)
        assert series_coefficients(invariants_hs(a, bound)) == even
        total = hilbert_series(a, bound)
        odd_part = total - invariants_hs(a, bound)
        assert series_coefficients(odd_part) == odd

    def test_default_bound(self):
        s = hilbert_series(alg(("x", 1, 1)))
        assert s.bound == 40

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_enumerated_monomials(self, seed):
        variables = seeded_algebra(seed)
        bound = 6 + seed % 7
        plain, signed = enumerated_counts(variables, bound)
        a = alg(*variables)
        assert series_coefficients(hilbert_series(a, bound)) == plain
        assert series_coefficients(signed_hilbert_series(a, bound)) == signed


class TestFixedIdeal:
    def test_one_odd_is_cartier(self):
        fi = fixed_ideal(alg(("x", 1, 1), ("y", 1, 0)))
        assert fi == FixedIdeal(("x",), True, False)

    def test_two_odd_not_cartier(self):
        fi = fixed_ideal(alg(("x", 1, 1), ("y", 1, 1)))
        assert fi.generators == ("x", "y")
        assert not fi.cartier

    def test_no_odd_flags_everything(self):
        fi = fixed_ideal(alg(("x", 1, 0), ("y", 2, 0)))
        assert fi.generators == ()
        assert not fi.cartier
        assert fi.fixed_locus_is_everything

    @settings(max_examples=60, deadline=None)
    @given(small_algebras())
    def test_cartier_iff_exactly_one_odd(self, a):
        fi = fixed_ideal(a)
        assert fi.cartier == (len(a.odd_variables) == 1)


class TestFlatness:
    def test_single_odd_free(self):
        rep = flatness_verdict(alg(("x", 1, 1)))
        assert rep.verdict == "FREE"
        assert rep.basis == ("1", "x")
        assert rep.ratio_coeffs[:4] == (1, 1, 0, 0)
        assert rep.certified
        assert rep.witness is None

    def test_two_odd_not_free(self):
        rep = flatness_verdict(alg(("x", 1, 1), ("y", 1, 1)))
        assert rep.verdict == "NOT-FREE"
        assert rep.basis is None
        assert rep.witness == {"degree": 3, "coefficient": -2}
        assert rep.ratio_coeffs[:8] == (1, 2, 0, -2, 0, 2, 0, -2)

    def test_odd_plus_inert_even_free(self):
        rep = flatness_verdict(alg(("x", 1, 1), ("y", 1, 0)))
        assert rep.verdict == "FREE"
        assert rep.basis == ("1", "x")

    def test_no_odd_variables_free_on_unit_basis(self):
        rep = flatness_verdict(alg(("x", 1, 0), ("y", 3, 0)))
        assert rep.verdict == "FREE"
        assert rep.basis == ("1",)
        assert rep.ratio_coeffs == (1,) + (0,) * (rep.bound)

    def test_window_too_small_is_inconclusive(self):
        rep = flatness_verdict(alg(("x", 30, 1), ("y", 30, 1)), bound=40)
        assert rep.verdict == "INCONCLUSIVE"
        assert "window" in rep.note

    def test_candidate_mismatch_without_negative_is_inconclusive(self):
        rep = flatness_verdict(alg(("x", 1, 1), ("y", 1, 1)), bound=2)
        assert rep.verdict == "INCONCLUSIVE"

    def test_not_free_requires_negative_inside_bound(self):
        rep = flatness_verdict(alg(("x", 1, 1), ("y", 1, 1)))
        neg = [c for c in rep.ratio_coeffs if c < 0]
        assert neg

    @settings(max_examples=40, deadline=None)
    @given(small_algebras())
    def test_cartier_implies_free(self, a):
        if len(a.odd_variables) != 1:
            return
        rep = flatness_verdict(a)
        assert rep.verdict == "FREE"
        name = a.odd_variables[0][0]
        assert rep.basis == ("1", name)

    @settings(max_examples=40, deadline=None)
    @given(small_algebras())
    def test_verdict_consistency_randomized(self, a):
        rep = flatness_verdict(a)
        if rep.verdict == "FREE":
            assert rep.basis is not None and rep.certified
        if rep.verdict == "NOT-FREE":
            assert rep.witness["coefficient"] < 0
            assert 0 <= rep.witness["degree"] <= rep.bound

    def test_free_verdict_recheck_multiplicative(self):
        a = alg(("x", 2, 1), ("y", 1, 0), ("z", 3, 0))
        rep = flatness_verdict(a)
        assert rep.verdict == "FREE"
        bound = rep.bound
        b_poly = [0] * (bound + 1)
        for m in rep.basis:
            deg = 0 if m == "1" else dict((n, d) for n, d, _ in a.variables)[m]
            b_poly[deg] += 1
        inv = series_coefficients(invariants_hs(a, bound))
        total = series_coefficients(hilbert_series(a, bound))
        conv = [
            sum(b_poly[i] * inv[n - i] for i in range(n + 1))
            for n in range(bound + 1)
        ]
        assert conv == total

    def test_one_hilbert_series_per_verdict(self, monkeypatch):
        from detlam import quotientlab

        built = []

        def counted(algebra, bound):
            built.append(bound)
            return hilbert_series(algebra, bound)

        monkeypatch.setattr(quotientlab, "hilbert_series", counted)
        a = alg(("x", 1, 1), ("y", 2, 0))
        rep = flatness_verdict(a, bound=12)
        assert built == [12]
        assert rep.verdict == "FREE" and rep.ratio_coeffs == (1, 1) + (0,) * 11
        assert series_coefficients(invariants_hs(a, 12)) == monomial_counts(a.variables, 12)[0]

    def test_one_hilbert_series_per_report(self, monkeypatch):
        from detlam import quotientlab

        built = []

        def counted(fn, kind):
            def wrapper(algebra, bound):
                built.append((kind, bound))
                return fn(algebra, bound)

            return wrapper

        monkeypatch.setattr(quotientlab, "hilbert_series", counted(hilbert_series, "plain"))
        monkeypatch.setattr(
            quotientlab, "signed_hilbert_series", counted(signed_hilbert_series, "signed")
        )
        a = alg(("x", 1, 1), ("y", 2, 0))
        obj = quotient_report(a, bound=12)
        assert sorted(built) == [("plain", 12), ("signed", 12)]
        even, odd = monomial_counts(a.variables, 12)
        assert obj["verdict"] == "FREE"
        assert obj["hs_R"] == [e + o for e, o in zip(even, odd)]
        assert obj["hs_R0"] == even

    def test_report_serializes(self):
        rep = flatness_verdict(alg(("x", 1, 1)))
        obj = quotient_report(alg(("x", 1, 1)))
        json.dumps(obj)
        assert obj["verdict"] == "FREE"
        assert isinstance(rep, FlatnessReport)

    def test_determinism(self):
        a = alg(("x", 1, 1), ("y", 2, 0))
        assert flatness_verdict(a) == flatness_verdict(a)
        assert quotient_report(a) == quotient_report(a)


class TestConormal:
    def test_single_odd_true(self):
        assert conormal_degree_zero(alg(("x", 1, 1))) is True

    def test_odd_with_even_companion_true(self):
        assert conormal_degree_zero(alg(("x", 1, 1), ("y", 1, 0))) is True

    def test_non_cartier_errors(self):
        with pytest.raises(DomainError):
            conormal_degree_zero(alg(("x", 1, 1), ("y", 1, 1)))
        with pytest.raises(DomainError):
            conormal_degree_zero(alg(("x", 1, 0)))


class TestQuotientReport:
    def test_keys_and_values(self):
        obj = quotient_report(alg(("x", 1, 1), ("y", 1, 0)), bound=6)
        assert set(obj) == {
            "variables",
            "bound",
            "hs_R",
            "hs_R0",
            "ratio",
            "verdict",
            "basis",
            "cartier",
            "conormal_degree_zero",
            "witness",
            "note",
        }
        assert obj["verdict"] == "FREE"
        assert obj["cartier"] is True
        assert obj["conormal_degree_zero"] is True
        assert obj["hs_R"][:3] == [1, 2, 3]

    def test_non_cartier_reports_null_conormal(self):
        obj = quotient_report(alg(("x", 1, 1), ("y", 1, 1)), bound=6)
        assert obj["cartier"] is False
        assert obj["conormal_degree_zero"] is None
        assert obj["verdict"] == "NOT-FREE"

    def test_byte_stable(self):
        a = alg(("x", 1, 1), ("y", 2, 0))
        one = json.dumps(quotient_report(a, bound=10), sort_keys=True)
        two = json.dumps(quotient_report(a, bound=10), sort_keys=True)
        assert one == two

    def test_bound_ceiling(self):
        a = alg(("x", 1, 1))
        at_cap = quotient_report(a, bound=MAX_BOUND)
        assert at_cap["verdict"] == "FREE" and len(at_cap["ratio"]) == MAX_BOUND + 1
        # cap + 1 is tried first, so a missing check fails here at a small
        # bound instead of allocating at 10**12
        for bound in (MAX_BOUND + 1, 10**12):
            for fn in (hilbert_series, signed_hilbert_series, flatness_verdict, quotient_report):
                with pytest.raises(DomainError, match=f"MAX_BOUND = {MAX_BOUND}"):
                    fn(a, bound)
