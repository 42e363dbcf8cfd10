"""Model intersection rings presented by triangular rewrite rules.

A model is a graded ring Q[g_1..g_r] / (rules) with one rewrite rule per
leading monomial, each rule strictly decreasing in graded-lex order, so
every reduction terminates. detlam reduces a monomial by the first rule in
rule order whose lead divides it, and does not yet check that the rules
are confluent (ROADMAP item 12): for rules that are not, the normal form
and the degrees read from it depend on that order, and need not be those
of the presented ring. The model also
carries the data a verification needs: relative and total dimension, marked
base generators for family models, the total Chern class of the relative
tangent sheaf, and the point class that normalizes integration. Built-in
and file models alike give the tangent class as (exponents, coefficient)
terms, which the model reads once on its own ring and keeps in normal
form; a class with a component above rel_dim in normal form is refused at
load, since c_i(T_f) = 0 for i > rel_dim. What does not depend on a line
bundle is cached on first use: the normal forms of monomials and the
rank-zero classes of the relative cotangent sheaf (``cotangent_rank_zero``),
whose weighted sums are its Sym characters.

Reduction works on the packed keys of the model's ring (see ``exactalg``),
whose window is the monomials of degree at most total_dim; each rule with
a lead in it is packed once. When a lead divides a monomial, subtracting
its key leaves every field nonnegative, and keys add without carry in the
window, so ``key - lead + key(replacement)`` is the rewritten monomial.
One table maps each key to its normal form as integer numerators over
keys and one denominator. A key cannot hold a monomial above total_dim,
so the table holds window monomials only. A rewrite keeps the degree and
lowers the monomial in lex order, so it reaches only smaller keys: a
reduction collects the keys it reaches and fills the table smallest key
first, and a chain of rewrites of any length reduces without recursion.
Finding a monomial's first dividing rule (``_first_rule``) reads the leads
filed under each generator in its support, up to the first divisor, so
loading refuses, before validation, a rule set whose lead tests over the
window could exceed ``MAX_MODEL_LEAD_TESTS``. The arithmetic on those
entries is
``exactalg``'s, the one owner of the format: a rule's replacement is
converted by ``_over_lcm``, a rewrite and ``normal_form`` sum entries by
``_accumulate``, and a rewrite's entry is put in lowest terms by
``_reduced``.

Integration is the intersection pairing A^k x A^(n-k) -> A^n = Q, n =
total_dim (Fulton, *Intersection Theory*, 1984, section 19.1): the integral
of a product a b is the sum, over the term pairs of a and b whose weighted
degrees add to n, of the coefficient product times the integral of the
product monomial. Rules are homogeneous, so only the degree-n part of a b
reaches the point class, and the lower degrees are never multiplied or
reduced. The integral of every degree-n monomial is read once, while
validation reduces it, from the normal-form table into a table from packed
key to point-class coefficient. The pairing runs on integers: ``_pair``
returns the integral as an integer numerator over a denominator, which
``grrcheck`` divides once to check a degree or tests for zero, building a
``Rational`` only for a value it reports. Schubert2 (Macaulay2) and Katz &
Stromme's "Schubert" integrate by the same top-degree reading.

Two checks read normal monomials, those no rule lead divides (the standard
monomials of Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 2 section 6), instead of reducing:

* Closure. A rewrite keeps the degree, so all monomials of degree D reduce
  to zero exactly when none of degree D is normal. The check reads degrees
  total_dim + 1 .. total_dim + (largest weight); a heavier monomial is a
  generator times one of lower degree.
* Fibration. The fiber part of a monomial (base exponents set to 0)
  divides it, so the fiber part of a normal monomial is normal. So every
  normal monomial has a fiber part of degree below rel_dim or equal to the
  fiber point exactly when that point is the one normal fiber monomial of
  degree rel_dim and none has a degree in rel_dim + 1 .. total_dim.

Built-in presentations:

* ``model_pn(n)``: projective n-space over a point.
* ``model_pn_x_pm(n, m)``: the product family P^n x P^m -> P^m.
* ``model_hirzebruch(e)``: the ruled surface P(O + O(-e)) -> P^1 with
  fiber relation z^2 = -e z f and relative tangent class 1 + (2z + e f).
"""

import json
import re
from functools import reduce
from itertools import accumulate, compress
from math import comb, lcm

from .charclass import _rank_zero_sym, adams_rescale, ch_from_chern
from .exactalg import DomainError, StructureError, TruncatedSeries, VarTable
from .exactalg import _accumulate, _as_rational, _over_lcm, _reduced, _series

__all__ = [
    "ModelError",
    "UnsupportedModelError",
    "ChowModel",
    "load_model",
    "load_model_file",
    "builtin_model",
    "model_pn",
    "model_pn_x_pm",
    "model_hirzebruch",
    "MAX_MODEL_DIM",
    "MAX_MODEL_WINDOW",
    "MAX_MODEL_LEAD_TESTS",
]


class ModelError(ValueError):
    """The presentation fails validation."""


class UnsupportedModelError(ModelError):
    """The presentation is consistent but outside the supported fragment."""


def _exponents_of_degree(weights: tuple[int, ...], degree: int):
    """All exponent vectors with the given weighted total degree, in
    lexicographic order; a weight of 0 holds its exponent at 0.

    An odometer over every exponent but the last, which the degree left
    over fixes, so no call nests per generator: ``left`` is the degree not
    yet spent, and each step raises the last exponent that still fits after
    zeroing those behind it.
    """
    if not weights:
        if degree == 0:
            yield ()
        return
    *head, last = weights
    exps = [0] * len(weights)
    left = degree
    while True:
        if last and left % last == 0:
            exps[-1] = left // last
            yield tuple(exps)
        elif not last and not left:
            exps[-1] = 0
            yield tuple(exps)
        i = len(head) - 1
        while i >= 0 and not 0 < head[i] <= left:
            left += exps[i] * head[i]
            exps[i] = 0
            i -= 1
        if i < 0:
            return
        exps[i] += 1
        left -= head[i]


# Largest validation window of a model: the monomials of weighted degree <=
# total_dim + (largest weight), which validation enumerates. On a 2-core host
# a file with five weight-one generators and 42,504 monomials in its window
# loads in about 0.18 s. The cap was set when validation reduced every one of
# them: seven generators with g_i^3 = 0 (170,544 monomials) took 2.8 s.
MAX_MODEL_WINDOW = 50_000


def _check_window(name: str, weights: tuple[int, ...], top: int) -> list[int]:
    """Count the monomials in the validation window without listing them,
    and return the running counts: entry d is the number of monomials of
    weighted degree <= d.

    ways[k] is the number of exponent vectors of weighted degree k over the
    generators seen so far (the coin-change recurrence), one generator at a
    time; the count stops at the first generator that takes it past the
    ceiling. The window's degree is checked first, since validation loops
    over every degree in it and the count needs a list that long.
    """
    last = top + max(weights, default=1)
    if last > MAX_MODEL_WINDOW:
        raise ModelError(
            f"model {name!r} needs a validation window up to degree {last}, "
            f"above the ceiling MAX_MODEL_WINDOW = {MAX_MODEL_WINDOW}"
        )
    ways = [1] + [0] * last
    for w in weights:
        for k in range(w, last + 1):
            ways[k] += ways[k - w]
        if sum(ways) > MAX_MODEL_WINDOW:
            raise ModelError(
                f"model {name!r} has more than MAX_MODEL_WINDOW = {MAX_MODEL_WINDOW} "
                f"monomials of degree <= {last} to validate"
            )
    return list(accumulate(ways))


# Largest number of lead tests one pass of the lead scan over the validation
# window may make (``ChowModel._check_lead_scan``). On a 2-core host a file
# with three generators, 1,088 rules and 7.1 million loads in 0.12-0.17 s,
# and the slowest files measured near the ceiling (chains over five to eight
# generators, 5.2-7.5 million) in 0.27-0.52 s. The cap was set when a scan
# read every lead of a bucket: then those files took 0.7-1.3 and 1.9-2.7 s,
# and four generators with 3,310 rules (35 million) took 6 s.
MAX_MODEL_LEAD_TESTS = 8_000_000


class ChowModel:
    """A graded ring with a terminating, dimension-closed rewrite system.

    ``generators`` are (name, weight) pairs, ``relations`` (lead,
    replacement) pairs with the replacement a list of (exponents,
    coefficient) terms, and ``tangent_chern`` the total Chern class
    c(T_f) of the relative tangent sheaf as (exponents, coefficient) terms,
    or None for the class 1. A coefficient is an int, a Rational or a
    string such as "3/2". The tangent terms are read once, by
    ``TruncatedSeries.from_terms`` on the model's own ring: a monomial
    named twice is one term with the coefficients summed, and a term above
    total_dim is dropped. ``tangent_chern`` keeps the class in normal form.

    Construction validates, in order: the generators, the tangent terms,
    the dimensions and their ceilings (``MAX_MODEL_DIM``,
    ``MAX_MODEL_WINDOW``), the base generators, the rules and the lead-scan
    ceiling (``MAX_MODEL_LEAD_TESTS``), dimension closure, the point class,
    the tangent class (constant term 1 and, in normal form, no component
    above rel_dim, since c_i(T_f) = 0 for i > rel_dim) and the fibration.
    A failed check raises ``ModelError``, ``DomainError`` (the dimension
    ceiling) or ``StructureError`` (a malformed value the ring reads: a
    coefficient, a tangent term, an unknown generator name).
    """

    def __init__(
        self,
        name: str,
        generators,
        relations,
        rel_dim: int,
        total_dim: int,
        base_generators,
        tangent_chern,
        point_class,
    ):
        self.name = str(name)
        try:
            self.vars = VarTable(generators)
        except StructureError as exc:
            raise ModelError(str(exc)) from exc
        # read first, so that with a tangent class a bad total_dim is
        # reported by the ring's own check, as for any series
        tangent = (
            None
            if tangent_chern is None
            else TruncatedSeries.from_terms(self.vars, total_dim, tangent_chern)
        )
        if type(rel_dim) is not int or type(total_dim) is not int:
            raise ModelError("dimensions must be integers")
        if not 0 <= rel_dim <= total_dim:
            raise ModelError("need 0 <= rel_dim <= total_dim")
        _check_model_dim(self.name, total_dim)
        self.rel_dim = rel_dim
        self.total_dim = total_dim
        within = _check_window(self.name, self.vars.weights, total_dim)

        base = tuple(base_generators)
        self._base_idx = frozenset(self.vars.index(b) for b in base)
        if len(self._base_idx) != len(base):
            raise ModelError("duplicate base generators")
        if (rel_dim < total_dim) != bool(base):
            raise ModelError("base generators must be marked exactly for family models")
        self.base_generators = base

        self._lay = self.vars._layout(total_dim)
        # the zero series of the model's ring: the ring every series the
        # model builds (normal forms, c_1(L)) is put on
        self._ring = TruncatedSeries.zero(self.vars, total_dim)
        self.rules, self._leads_at, self._packed = self._parse_rules(relations)
        self._check_lead_scan(within)
        self._nf: dict[int, tuple[dict, int]] = {}
        self._cotangent_g: tuple[TruncatedSeries, ...] | None = None
        self._check_dimension_closure()
        self.point_class = self._check_point_class(point_class)
        self.tangent_chern = self._check_tangent(tangent)
        rel_point = self._find_relative_point()
        if any(p < r for p, r in zip(self.point_class, rel_point)):
            raise UnsupportedModelError("point class does not factor through the fiber point")

    # ------------------------------------------------------------------
    # validation helpers

    def _exponents(self, exps, what: str) -> tuple[int, ...]:
        """An exponent vector over the generators: a list or tuple of
        nonnegative ints (no bools), one per generator. The element checks
        run in C: the set of element types, then the least element."""
        if (
            not isinstance(exps, (list, tuple))
            or len(exps) != len(self.vars)
            or not set(map(type, exps)) <= {int}
            or min(exps, default=0) < 0
        ):
            raise ModelError(f"bad {what} {exps!r}: need {len(self.vars)} nonnegative integers")
        return tuple(exps)

    def _parse_rules(self, relations):
        """The rules, biggest lead first, the lead index and the packed
        rules. The index files each lead's support (its nonzero (index,
        exponent) pairs, read once and also giving its degree) and position
        under its first nonzero index, each bucket in rule order. A lead
        divides a monomial only if that index is in the monomial's support,
        so ``_first_rule`` reads only the leads filed there, each bucket up
        to its first divisor: one lead per monomial when each generator has
        its own rule. A lead above the window divides no window monomial,
        so its packed rule is None."""
        weights = self.vars.weights
        parsed = []
        seen = set()
        for lead, replace in relations:
            lead = self._exponents(lead, "rule lead")
            support = tuple((i, lead[i]) for i in compress(range(len(lead)), lead))
            if not support:
                raise ModelError(f"bad rule lead {lead!r}")
            if lead in seen:
                raise ModelError(f"duplicate rule lead {lead!r}")
            seen.add(lead)
            degree = sum(weights[i] * a for i, a in support)
            # a monomial written twice is one term, at its first place, with
            # the coefficients summed, so the rule printed is the rule applied
            terms = {}
            for exps, coeff in replace:
                exps = self._exponents(exps, "replacement exponents")
                coeff = _as_rational(coeff)
                if not coeff:
                    raise ModelError("zero replacement coefficient")
                if self.vars.degree(exps) != degree:
                    raise ModelError(f"rule {lead!r} is not homogeneous")
                # of equal degree, so graded-lex order is lexicographic
                if exps >= lead:
                    raise ModelError(
                        f"rule {lead!r} is not strictly decreasing; would not terminate"
                    )
                terms[exps] = terms.get(exps, 0) + coeff
            if not all(terms.values()):
                raise ModelError(f"replacement coefficients in rule {lead!r} sum to zero")
            parsed.append((degree, lead, tuple(terms.items()), support))
        parsed.sort(key=lambda rule: rule[:2], reverse=True)
        index: dict[int, list] = {}
        for pos, (*_, support) in enumerate(parsed):
            index.setdefault(support[0][0], []).append((pos, support))
        packed = tuple(
            self._pack(lead, terms) if degree <= self.total_dim else None
            for degree, lead, terms, _ in parsed
        )
        return tuple((lead, terms) for _, lead, terms, _ in parsed), index, packed

    def _check_lead_scan(self, within: list[int]):
        """Refuse, before any lead is tested, a rule set whose lead scan
        could be slow. A window monomial reads at most the leads filed under
        each generator in its support (``_first_rule``), and within[last - w]
        window monomials contain a generator of weight w, so the sum below
        bounds the lead tests of one pass over the window."""
        last, weights = len(within) - 1, self.vars.weights
        tests = sum(
            len(leads) * within[last - weights[i]]
            for i, leads in self._leads_at.items()
            if weights[i] <= last
        )
        if tests > MAX_MODEL_LEAD_TESTS:
            raise ModelError(
                f"model {self.name!r} may make {tests} lead tests in one pass over its "
                f"validation window, above the ceiling MAX_MODEL_LEAD_TESTS = "
                f"{MAX_MODEL_LEAD_TESTS}"
            )

    def _pack(self, lead, terms):
        """A rule as the lead's key and the replacement's normal-form entry."""
        key = self._lay.key
        return key(lead), _over_lcm([(key(e), c) for e, c in terms])

    def _reduce(self, key: int) -> tuple[dict, int]:
        """Normal form of the window monomial ``key`` as ({key: numerator},
        denominator) in lowest terms, cached in the one normal-form table.
        The first dividing rule in ``self.rules`` order (``_first_rule``)
        rewrites it, by the key arithmetic of the module docstring; rules
        are homogeneous, so every rewrite stays in the window.

        A miss first collects the keys it reaches, each with its rule, and
        then fills the table smallest key first. A rewrite keeps the degree
        and lowers the monomial in lex order, so it reaches only smaller
        keys, whose entries are then in the table: no rewrite takes a frame
        of its own, and a monomial's rule is looked up once."""
        nf = self._nf
        if key not in nf:
            steps, todo = {}, [key]
            while todo:
                k = todo.pop()
                if k in nf or k in steps:
                    continue
                pos = self._first_rule(self._lay.exps(k))
                if pos is None:
                    nf[k] = {k: 1}, 1
                    continue
                lead, rule = self._packed[pos]
                steps[k] = k - lead, rule
                todo.extend(k - lead + t for t in rule[0])
            for k in sorted(steps):
                rest, (terms, rden) = steps[k]
                acc, den = _accumulate([(c, nf[rest + t]) for t, c in terms.items()])
                image = _reduced(self._ring, acc, den * rden)
                nf[k] = image._num, image._den
        return nf[key]

    def _first_rule(self, exps: tuple[int, ...]) -> int | None:
        """Position of the first rule in ``self.rules`` order whose lead
        divides the monomial, or None for a normal monomial: the one lead
        scan. Each generator's bucket is in rule order, so its scan stops at
        its first divisor or at a position past the best found."""
        leads, best = self._leads_at, None
        for i in compress(range(len(exps)), exps):
            for pos, support in leads.get(i, ()):
                if best is not None and pos > best:
                    break
                for j, a in support:
                    if exps[j] < a:
                        break
                else:
                    best = pos
                    break
        return best

    def _is_normal(self, exps: tuple[int, ...]) -> bool:
        return self._first_rule(exps) is None

    def _normal_monomials(self, weights: tuple[int, ...], degrees):
        """Normal monomials over ``weights`` of the given degrees, lazily."""
        return (e for d in degrees for e in _exponents_of_degree(weights, d) if self._is_normal(e))

    def _check_dimension_closure(self):
        # the closure argument of the module docstring; a generator that is
        # itself a rule lead divides no normal monomial, so weight 0 holds
        # its exponent at 0 and the enumeration skips it
        top = self.total_dim
        weights = self.vars.weights
        alone = {i for i, leads in self._leads_at.items() if any(s == ((i, 1),) for _, s in leads)}
        sparse = tuple(0 if i in alone else w for i, w in enumerate(weights))
        for exps in self._normal_monomials(sparse, range(top + 1, top + max(weights) + 1)):
            raise ModelError(
                f"normal monomial {exps} of degree {self.vars.degree(exps)} lies above "
                f"total_dim = {top}, so it does not normalize to zero"
            )

    def _check_point_class(self, point_class):
        pt = self._exponents(point_class, "point class")
        if self.vars.degree(pt) != self.total_dim:
            raise ModelError("point class must have degree total_dim")
        if not self._is_normal(pt):
            raise ModelError("point class must be in normal form")
        lay, pkey = self._lay, self._lay.key(pt)
        top = {}
        for exps in _exponents_of_degree(self.vars.weights, self.total_dim):
            key = lay.key(exps)
            image, den = self._reduce(key)
            if image.keys() - {pkey}:
                raise ModelError(
                    f"degree-{self.total_dim} monomial {exps} is not a multiple "
                    "of the point class"
                )
            top[key] = image.get(pkey, 0), den
        # the integral of each degree-total_dim monomial, by packed key, as
        # an integer numerator over the one denominator _top_den
        self._top_den = tden = reduce(lcm, (den for _, den in top.values()), 1)
        self._top = {k: c * (tden // den) for k, (c, den) in top.items()}
        return pt

    def _check_tangent(self, tangent):
        """The tangent class in normal form: constant term 1 and, since
        c_i(T_f) = 0 for i > rel_dim, no component above rel_dim."""
        if tangent is None:
            return TruncatedSeries.one(self.vars, self.total_dim)
        if tangent.constant_term != 1:
            raise ModelError("tangent total Chern class must have constant term 1")
        nf = self.normal_form(tangent)
        top = max(k >> self._lay.dshift for k in nf._num)
        if top > self.rel_dim:
            raise ModelError(
                f"tangent_chern has a nonzero degree-{top} component in normal form, "
                f"above rel_dim = {self.rel_dim}; c_i(T_f) = 0 for i > rel_dim"
            )
        return nf

    def _find_relative_point(self):
        if self.rel_dim == 0:
            return (0,) * len(self.vars)
        # the fibration argument of the module docstring; weight 0 holds the
        # base exponents at 0, so these weights enumerate fiber monomials only
        fiber = tuple(0 if i in self._base_idx else w for i, w in enumerate(self.vars.weights))
        if not any(fiber):
            raise ModelError("no fiber generators for a positive relative dimension")
        candidates = list(self._normal_monomials(fiber, [self.rel_dim]))
        if len(candidates) != 1:
            raise UnsupportedModelError(
                f"need exactly one normal fiber monomial of degree {self.rel_dim}, "
                f"found {len(candidates)}"
            )
        if any(self._normal_monomials(fiber, range(self.rel_dim + 1, self.total_dim + 1))):
            raise UnsupportedModelError(
                "fiber degree exceeds the fiber point; pushforward unsupported"
            )
        return candidates[0]

    # ------------------------------------------------------------------
    # ring API

    def first_chern(self, coeffs: dict) -> TruncatedSeries:
        """c_1(L) = sum(a_g * g) of the line bundle L described by ``coeffs``,
        a map from weight-one generators g to int coefficients a_g (no bools),
        built as one series: the one entry for every line bundle.

        A zero coefficient is checked but adds no term. Each other term is
        written as its generator's packed key (``_Layout.gen``, the key
        ``TruncatedSeries.gen`` writes), so a line takes time linear in its
        generator count. On a model of total_dim 0 a degree-1 term lies
        above the window and is dropped.
        """
        vars_, gen = self.vars, self._lay.gen
        num = {}
        for gname, a in coeffs.items():
            if type(a) is not int:
                raise ModelError(f"coefficient of {gname} must be an integer, not {a!r}")
            i = vars_.index(gname)
            if vars_.weights[i] != 1:
                raise ModelError(f"generator {gname} has weight > 1; not a divisor class")
            if a and self.total_dim:
                num[gen(i)] = a
        return _series(self._ring, num, 1)

    def _check_ring(self, series: TruncatedSeries):
        # a series the model built is on its layout; one on an equal but
        # distinct VarTable is compared by value
        if series._lay is not self._lay and (
            series.vars != self.vars or series.bound != self.total_dim
        ):
            raise ModelError("series lives in a different ring")

    def normal_form(self, series: TruncatedSeries) -> TruncatedSeries:
        """Reduce every term of a series of the model's ring, truncated at
        total_dim: the sum of each term's numerator times its monomial's
        entry in the normal-form table (``_reduce``). The result is on the
        model's own ``VarTable``."""
        self._check_ring(series)
        nf, reduce_ = self._nf.get, self._reduce
        acc, den = _accumulate([(num, nf(k) or reduce_(k)) for k, num in series._num.items()])
        return _reduced(self._ring, acc, series._den * den)

    def cotangent_rank_zero(self) -> tuple[TruncatedSeries, ...]:
        """The rank-zero classes G_0..G_n of the relative cotangent sheaf
        Omega, n = min(2d, total_dim) with d = rel_dim, in normal form
        (``charclass._rank_zero_sym``): weighted sums of them are the
        characters of the Sym^0..Sym^(2d) Omega that the exponent identity
        twists. c(Omega) = psi^(-1) c(T) and ch(Omega) are taken in normal
        form, and each G_i is reduced as it is built, so every product
        multiplies normal forms; the relations are homogeneous, so that
        equals reducing the unreduced classes at the end. Built once, on
        first use, and kept."""
        g = self._cotangent_g
        if g is None:
            chern = self.normal_form(adams_rescale(self.tangent_chern, -1))
            ch = self.normal_form(ch_from_chern(self.rel_dim, chern))
            n = min(2 * self.rel_dim, self.total_dim)
            g = self._cotangent_g = tuple(_rank_zero_sym(ch, n, self.normal_form))
        return g

    def _pair(self, a: TruncatedSeries, b: TruncatedSeries) -> tuple[int, int]:
        """The integral of a b over the model, by the top-degree pairing of
        the module docstring, as (numerator, denominator), denominator > 0
        and not reduced: the one pairing kernel, on integers only.

        On packed keys the product of two monomials is the sum of their
        keys, and its degree is total_dim exactly when their degrees add to
        it, so each such pair reads its integral from the table filled at
        validation. Reduction is linear and keeps degree, so for confluent
        rules the pairing is exact on any two series of the model's ring,
        in normal form or not. detlam does not yet check confluence
        (ROADMAP item 12), and on rules that are not confluent a series and
        its normal form can pair differently.
        The operand with fewer terms is binned by the degree of its
        partners, and each term of the other reads its bin: one pass over
        each operand, whichever order they come in.

        >>> m = model_pn_x_pm(1, 1)
        >>> h, s = (TruncatedSeries.gen(m.vars, m.total_dim, g) for g in "hs")
        >>> m._pair(h, s)
        (1, 1)
        >>> m._pair(h, h)
        (0, 1)
        """
        self._check_ring(a)
        self._check_ring(b)
        top, shift, n = self._top, self._lay.dshift, self.total_dim
        small, large = a._num, b._num
        if len(small) > len(large):
            small, large = large, small
        bins: dict[int, list] = {}
        for k, v in small.items():
            bins.setdefault(n - (k >> shift), []).append((k, v))
        num = 0
        for kb, vb in large.items():
            for ka, va in bins.get(kb >> shift, ()):
                num += va * vb * top[ka + kb]
        return num, a._den * b._den * self._top_den

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        def terms(pairs):  # rule replacements and the tangent class alike
            return [{"exponents": list(e), "coeff": str(c)} for e, c in pairs]

        return {
            "name": self.name,
            "generators": [
                {"name": n, "weight": w}
                for n, w in zip(self.vars.names, self.vars.weights)
            ],
            "relations": [
                {"lead": list(lead), "replace": terms(replace)} for lead, replace in self.rules
            ],
            "rel_dim": self.rel_dim,
            "total_dim": self.total_dim,
            "base_generators": list(self.base_generators),
            "tangent_chern": terms(self.tangent_chern.sorted_items()),
            "point_class": list(self.point_class),
        }

    def __repr__(self) -> str:
        return f"<ChowModel {self.name}: rel_dim={self.rel_dim} total_dim={self.total_dim}>"


# ----------------------------------------------------------------------
# built-in models


# Largest total dimension of a built-in projective model (n for P^n, n + m
# for P^n x P^m). The slowest command at the ceiling, verify-main on
# P31xP1, takes about 0.2 s at the CLI on a 2-core host.
MAX_MODEL_DIM = 32


def _check_model_dim(name: str, dim: int):
    if dim > MAX_MODEL_DIM:
        raise DomainError(
            f"{name} has dimension {dim}, above the ceiling MAX_MODEL_DIM = {MAX_MODEL_DIM}"
        )


def model_pn(n: int) -> ChowModel:
    """P^n over a point: one generator h, relation h^(n+1) = 0, tangent
    class (1 + h)^(n+1) written as its terms C(n+1, k) h^k."""
    if n < 1:
        raise ModelError("need n >= 1")
    _check_model_dim(f"P{n}", n)
    return ChowModel(
        name=f"P{n}",
        generators=[("h", 1)],
        relations=[((n + 1,), [])],
        rel_dim=n,
        total_dim=n,
        base_generators=[],
        tangent_chern=[((k,), comb(n + 1, k)) for k in range(n + 1)],
        point_class=(n,),
    )


def model_pn_x_pm(n: int, m: int) -> ChowModel:
    """The product family P^n x P^m -> P^m; h is the fiber class, s the
    base, and the relative tangent class is (1 + h)^(n+1), written as its
    terms C(n+1, k) h^k."""
    if n < 1 or m < 1:
        raise ModelError("need n, m >= 1")
    _check_model_dim(f"P{n}xP{m}", n + m)
    return ChowModel(
        name=f"P{n}xP{m}",
        generators=[("h", 1), ("s", 1)],
        relations=[((n + 1, 0), []), ((0, m + 1), [])],
        rel_dim=n,
        total_dim=n + m,
        base_generators=["s"],
        tangent_chern=[((k, 0), comb(n + 1, k)) for k in range(n + 1)],
        point_class=(n, m),
    )


def model_hirzebruch(e: int) -> ChowModel:
    """The ruled surface P(O + O(-e)) over P^1.

    Generators z (fiber hyperplane class) and f (base point class) with
    z^2 = -e z f, f^2 = 0; the relative tangent class is 1 + (2z + e f),
    whose square is zero in the ring, and the point class is z f. The sign
    pairing is pinned by chi(O) = 1 and the e = 0 product comparison.
    """
    if e < 0:
        raise ModelError("need e >= 0")
    return ChowModel(
        name=f"F{e}",
        generators=[("z", 1), ("f", 1)],
        relations=[((0, 2), []), ((2, 0), [((1, 1), -e)] if e else [])],
        rel_dim=1,
        total_dim=2,
        base_generators=["f"],
        tangent_chern=[((0, 0), 1), ((1, 0), 2), ((0, 1), e)],
        point_class=(1, 1),
    )


# P<n> and P<n>xP<m>, in ASCII digits only: int() alone would also read
# "1_0", "+2", " 2" and non-ASCII digits
_PROJECTIVE_NAME = re.compile(r"p([0-9]+)(?:xp([0-9]+))?")


def builtin_model(name: str, n: int | None = None, m: int | None = None, e: int | None = None) -> ChowModel:
    """Dispatch a built-in model by CLI-style name and parameters."""
    key = name.strip().lower()
    if key in ("pn", "p"):
        if n is None:
            raise ModelError("Pn needs --n")
        return model_pn(n)
    if key == "pnxpm":
        if n is None or m is None:
            raise ModelError("PnxPm needs --n and --m")
        return model_pn_x_pm(n, m)
    if key == "hirzebruch":
        if e is None:
            raise ModelError("Hirzebruch needs --e")
        return model_hirzebruch(e)
    match = _PROJECTIVE_NAME.fullmatch(key)
    if match is None:
        raise ModelError(f"unknown model {name!r}")
    try:
        dims = [int(g) for g in match.groups() if g is not None]
    except ValueError:  # past Python's int-from-text digit limit
        raise ModelError(f"unknown model {name!r}") from None
    return model_pn(*dims) if len(dims) == 1 else model_pn_x_pm(*dims)


# ----------------------------------------------------------------------
# JSON loading


def _json_list(obj: dict, key: str, default=None) -> list:
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, list):
        raise ModelError(f"{key} must be a JSON list, not {value!r}")
    return value


def _generator(record):
    """A {"name", "weight"} record as a (name, weight) pair; a [name, weight]
    list passes as it is."""
    if isinstance(record, str):
        raise ModelError(f"generator {record!r} must be an object or a [name, weight] list")
    return record if isinstance(record, list) else (record["name"], record.get("weight", 1))


def load_model(obj: dict) -> ChowModel:
    """Build and validate a model from its JSON schema dict.

    Records are reshaped, never converted, and ``ChowModel`` checks each
    value once: the tangent_chern records go to it as (exponents,
    coefficient) terms, and a missing or empty list is the class 1.
    """
    if not isinstance(obj, dict):
        raise ModelError("model description must be an object")
    try:
        generators = [_generator(g) for g in _json_list(obj, "generators")]
        total = obj["total_dim"]
        tangent = [(r["exponents"], r["coeff"]) for r in _json_list(obj, "tangent_chern", [])]
        return ChowModel(
            name=obj.get("name", "model"),
            generators=generators,
            relations=[
                (rel["lead"], [(r["exponents"], r["coeff"]) for r in _json_list(rel, "replace")])
                for rel in _json_list(obj, "relations", [])
            ],
            rel_dim=obj["rel_dim"],
            total_dim=total,
            base_generators=_json_list(obj, "base_generators", []),
            tangent_chern=tangent or None,
            point_class=_json_list(obj, "point_class"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (ModelError, DomainError)):
            raise
        raise ModelError(f"malformed model description: {exc}") from exc


def load_model_file(path: str) -> ChowModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelError(f"cannot read model file {path!r}: {exc}") from exc
    return load_model(obj)
