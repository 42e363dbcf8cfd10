"""Tests for sign-involution quotients of graded polynomial algebras.

The oracle counts monomials by (degree, parity) directly, one variable at a
time, and every series-level claim is checked against those counts. A second
oracle enumerates every exponent vector in the window and shares no code with
either the library or the first oracle. ``oracle_report`` recomputes whole
verdicts on ``TruncatedSeries``: a series inverse and products instead of the
library's integer-list division and folds. ``dense_report`` recomputes them on
integer lists by the dense O(bound^2) division and convolution the library ran
before it cleared the common denominator.
"""

import json
import random
import time
from itertools import combinations, product
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from detlam import quotientlab
from detlam.exactalg import DomainError, StructureError, TruncatedSeries, VarTable
from detlam.quotientlab import (
    FixedIdeal,
    FlatnessReport,
    MAX_BOUND,
    MAX_VARIABLES,
    GradedAlgebra,
    conormal_degree_zero,
    fixed_ideal,
    flatness_verdict,
    hilbert_series,
    invariants_hs,
    quotient_report,
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

    def test_variable_ceiling(self):
        at_cap = alg(*((f"x{i}", 1, i % 2) for i in range(MAX_VARIABLES)))
        assert len(at_cap.variables) == MAX_VARIABLES
        for n in (MAX_VARIABLES + 1, 5000):
            with pytest.raises(StructureError, match=f"MAX_VARIABLES = {MAX_VARIABLES}"):
                alg(*((f"x{i}", 1, 1) for i in range(n)))

    def test_from_spec_rejects(self):
        for text in ["", "x", "x:1", "x:1:odd:extra", "x:0:odd", "x:1:maybe"]:
            with pytest.raises(StructureError):
                GradedAlgebra.from_spec(text)


class TestHilbertSeries:
    def test_single_odd_variable_invariants(self):
        a = alg(("x", 1, 1))
        got = invariants_hs(a, bound=8)
        assert got == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_odd_plus_even_invariants(self):
        a = alg(("x", 1, 1), ("y", 1, 0))
        got = invariants_hs(a, bound=5)
        assert got == [1, 1, 2, 2, 3, 3]

    def test_two_odd_invariants(self):
        a = alg(("x", 1, 1), ("y", 1, 1))
        got = invariants_hs(a, bound=6)
        assert got == [1, 0, 3, 0, 5, 0, 7]

    def test_full_series_is_monomial_count(self):
        a = alg(("x", 1, 1), ("y", 2, 0), ("z", 3, 1))
        even, odd = monomial_counts(a.variables, 12)
        got = hilbert_series(a, bound=12)
        assert got == [e + o for e, o in zip(even, odd)]

    def test_signed_series_is_trace(self):
        a = alg(("x", 1, 1), ("y", 2, 0))
        even, odd = monomial_counts(a.variables, 10)
        got = signed_hilbert_series(a, bound=10)
        assert got == [e - o for e, o in zip(even, odd)]

    @settings(max_examples=60, deadline=None)
    @given(small_algebras())
    def test_parity_decomposition_randomized(self, a):
        bound = 20
        even, odd = monomial_counts(a.variables, bound)
        assert invariants_hs(a, bound) == even
        total = hilbert_series(a, bound)
        odd_part = [t - e for t, e in zip(total, invariants_hs(a, bound))]
        assert odd_part == odd

    def test_default_bound(self):
        s = hilbert_series(alg(("x", 1, 1)))
        assert len(s) == 41

    def test_negative_bound_rejected(self):
        for fn in (hilbert_series, signed_hilbert_series, invariants_hs):
            for bound in (-1, "5", None):
                with pytest.raises(StructureError, match="nonnegative"):
                    fn(alg(("x", 1, 1)), bound)

    def test_bad_bounds_raise_one_error_class(self):
        # a bool is an int to isinstance; it must not reach a report as
        # "bound": true, and a non-int must fail the same way everywhere
        a = alg(("x", 1, 1))
        fns = (hilbert_series, signed_hilbert_series, invariants_hs, flatness_verdict, quotient_report)
        for fn in fns:
            for bound in ("5", None, True, False, 5.0):
                with pytest.raises(StructureError, match="bound must be"):
                    fn(a, bound)
        for fn in (flatness_verdict, quotient_report):
            for bound in (0, -1):
                with pytest.raises(StructureError, match="positive"):
                    fn(a, bound)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_enumerated_monomials(self, seed):
        variables = seeded_algebra(seed)
        bound = 6 + seed % 7
        plain, signed = enumerated_counts(variables, bound)
        a = alg(*variables)
        assert hilbert_series(a, bound) == plain
        assert signed_hilbert_series(a, bound) == signed


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
        inv = invariants_hs(a, bound)
        total = hilbert_series(a, bound)
        conv = [
            sum(b_poly[i] * inv[n - i] for i in range(n + 1))
            for n in range(bound + 1)
        ]
        assert conv == total

    def test_many_odd_variables_stay_fast(self):
        # the candidate basis has 2**40 members; only a FREE verdict lists them
        a = alg(*((f"x{i}", 100, 1) for i in range(40)))
        start = time.perf_counter()
        rep = flatness_verdict(a, bound=40)
        assert time.perf_counter() - start < 0.5
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.note == "window too small to certify the candidate basis"
        assert rep.ratio_coeffs == (1,) + (0,) * 40

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
        assert invariants_hs(a, 12) == monomial_counts(a.variables, 12)[0]

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


_T = VarTable(("t",))


def candidate_basis(a):
    """Squarefree odd monomials as (degree, label), enumerated subset by subset."""
    odd_vars = a.odd_variables
    return sorted(
        (sum(d for _n, d, _p in subset), "*".join(n for n, _d, _p in subset) or "1")
        for r in range(len(odd_vars) + 1)
        for subset in combinations(odd_vars, r)
    )


def assemble_report(a, bound, coeffs, matches):
    """The verdict from the ratio ``coeffs`` and the defect test's outcome."""
    for k in range(bound):
        if coeffs[k] < 0:
            return FlatnessReport(
                "NOT-FREE",
                bound,
                coeffs,
                None,
                {"degree": k, "coefficient": coeffs[k]},
                True,
                "a free module's ratio series has the basis degrees as non-negative coefficients",
            )
    if matches and 2 * sum(d for _n, d, _p in a.odd_variables) < bound:
        return FlatnessReport(
            "FREE",
            bound,
            coeffs,
            tuple(label for _deg, label in candidate_basis(a)),
            None,
            True,
            "candidate basis reproduces the Hilbert series; the window exceeds "
            "twice the total odd degree, forcing the identity",
        )
    if matches:
        note = "window too small to certify the candidate basis"
    else:
        note = "candidate basis does not match inside the window"
    return FlatnessReport("INCONCLUSIVE", bound, coeffs, None, None, False, note)


def oracle_report(a, bound):
    """The series-object route: hs and inv as ``TruncatedSeries`` from the
    monomial counts, the ratio as ``hs * inv.inverse()``, the candidate basis
    enumerated subset by subset, and the defect ``candidate * inv - hs``."""
    even, odd = monomial_counts(a.variables, bound)
    hs = TruncatedSeries(_T, bound, {(n,): e + o for n, (e, o) in enumerate(zip(even, odd))})
    inv = TruncatedSeries(_T, bound, {(n,): e for n, e in enumerate(even)})
    ratio = hs * inv.inverse()
    fractions = [ratio.terms.get((n,), 0) for n in range(bound + 1)]
    assert all(c.denominator == 1 for c in fractions)
    coeffs = tuple(int(c) for c in fractions)
    basis_terms = (((deg,), 1) for deg, _label in candidate_basis(a))
    candidate = TruncatedSeries.from_terms(_T, bound, basis_terms)
    return assemble_report(a, bound, coeffs, (candidate * inv - hs).is_zero())


def dense_divide(num, den):
    """num / den for integer lists with den[0] == 1, over every k:
    r_n = num_n - sum_{k=1..n} den_k r_{n-k}, with r_{n-1}, ..., r_0 newest first."""
    newest_first, tail = [], den[1:]
    for c in num:
        newest_first.insert(0, c - sum(map(mul, tail, newest_first)))
    return tuple(reversed(newest_first))


def dense_product(poly, series):
    """The truncated convolution of ``poly`` with ``series``, term by term."""
    return [
        sum(map(mul, poly[: n + 1], series[n::-1])) for n in range(len(series))
    ]


def dense_report(a, bound):
    """The integer-list route before the common denominator was cleared: the
    dense division HS_R / HS_{R0} and the dense convolution of the candidate
    basis series, expanded subset by subset, with HS_{R0}."""
    even, odd = monomial_counts(a.variables, bound)
    hs = list(map(add, even, odd))
    candidate = [0] * (bound + 1)
    for deg, _label in candidate_basis(a):
        if deg <= bound:
            candidate[deg] += 1
    return assemble_report(a, bound, dense_divide(hs, even), dense_product(candidate, even) == hs)


class TestSeriesRouteOracle:
    """The integer-list verdict against the series-object route it replaced:
    ratio, verdict, witness, basis, certified flag and note all equal."""

    @settings(max_examples=150, deadline=None)
    @given(small_algebras(), st.integers(1, 60))
    def test_matches_series_route(self, a, bound):
        assert flatness_verdict(a, bound) == oracle_report(a, bound)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_series_route_seeded(self, seed):
        a = alg(*seeded_algebra(seed))
        for bound in (2, 9, 60):
            assert flatness_verdict(a, bound) == oracle_report(a, bound)

    def test_oracle_sees_every_verdict(self):
        verdicts = {
            oracle_report(alg(*v), 40).verdict
            for v in [(("x", 1, 1),), (("x", 1, 1), ("y", 1, 1)), (("x", 30, 1), ("y", 30, 1))]
        }
        assert verdicts == {"FREE", "NOT-FREE", "INCONCLUSIVE"}


@st.composite
def windowed_algebras(draw):
    """Up to 8 variables of degree 1..6 with a bound 1..120, or a bound at
    most the total odd degree (so often below it, and below some degrees)."""
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 6), st.integers(0, 1)), min_size=1, max_size=8)
    )
    a = alg(*((f"x{i}", d, p) for i, (d, p) in enumerate(shapes)))
    odd_total = sum(d for d, p in shapes if p)
    bound = draw(st.integers(1, 120) | st.integers(1, max(1, odd_total)))
    return a, bound


# (variables, bound): bounds below the total odd degree, degrees above the
# bound, and the widest algebras at the largest window
DENSE_CASES = [
    ((("x", 6, 1), ("y", 6, 1)), 4),
    ((("x", 6, 1), ("y", 1, 1), ("z", 5, 0)), 5),
    ((("x", 1, 1), ("y", 1, 1), ("z", 1, 1)), 2),
    ((("x", 2, 1), ("y", 3, 1), ("z", 6, 0)), 4),
    ((("x", 5, 1), ("y", 2, 0)), 9),
    ((("x", 5, 1), ("y", 2, 0)), 11),
    (tuple((f"x{i}", 1 + i % 6, 1) for i in range(8)), 20),
    (tuple((f"x{i}", 1 + i % 6, 1) for i in range(8)), 120),
    (tuple((f"x{i}", 1 + i % 6, i % 2) for i in range(8)), 120),
    ((("x", 6, 0),), 3),
]


class TestDenseOracle:
    """The linear-time division and folds against the dense O(bound^2)
    division and convolution they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(windowed_algebras())
    def test_matches_dense_route(self, case):
        a, bound = case
        assert flatness_verdict(a, bound) == dense_report(a, bound)

    @pytest.mark.parametrize("variables,bound", DENSE_CASES)
    def test_matches_dense_route_at_the_edges(self, variables, bound):
        a = alg(*variables)
        assert flatness_verdict(a, bound) == dense_report(a, bound)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=50),
        st.lists(st.just(0) | st.integers(-(10**20), 10**20), max_size=60),
    )
    def test_division_is_exact_on_integer_lists(self, num, den_tail):
        den = [1] + den_tail
        ratio = quotientlab._divide(num, den)
        assert ratio == dense_divide(num, den)
        assert dense_product(den, ratio) == num

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(1, 50), st.sampled_from((1, -1))), max_size=5),
    )
    def test_folds_are_the_dense_product(self, series, factors):
        folded = list(series)
        poly = [1]
        for degree, sign in factors:
            quotientlab._fold(folded, degree, sign)
            shifted = [0] * degree + poly
            poly = [c + sign * s for c, s in zip(poly + [0] * degree, shifted)]
        assert folded == dense_product(poly, series)


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

    def test_largest_ratio_prints_at_both_ceilings(self):
        # odd variables of degree 1 grow the ratio fastest; JSON output needs
        # every coefficient within Python's default int-to-text digit limit
        a = alg(*((f"x{i}", 1, 1) for i in range(MAX_VARIABLES)))
        obj = quotient_report(a, bound=MAX_BOUND)
        assert obj["verdict"] == "NOT-FREE"
        assert 2000 < len(str(max(obj["ratio"], key=abs))) < 4300
        json.dumps(obj)
