"""Model intersection rings presented by triangular rewrite rules.

A model is a graded ring Q[g_1..g_r] / (rules) with one rewrite rule per
leading monomial, each rule strictly decreasing in graded-lex order, so
normal forms exist and are reached by exhaustive reduction. The model also
carries the data a verification needs: relative and total dimension, marked
base generators for family models, the total Chern class of the relative
tangent sheaf, and the point class that normalizes integration.

Integration is the intersection pairing A^k x A^(n-k) -> A^n = Q, n =
total_dim (Fulton, *Intersection Theory*, 1984, section 19.1): the integral
of a product a b is the sum, over the term pairs of a and b whose weighted
degrees add to n, of the coefficient product times the integral of the
product monomial. Rules are homogeneous, so only the degree-n part of a b
reaches the point class, and the lower degrees are never multiplied or
reduced. The integral of every degree-n monomial is read once, while
validation reduces it, into a table from packed key to point-class
coefficient. Schubert2 (Macaulay2) and Katz & Stromme's "Schubert"
integrate by the same top-degree reading.

Built-in presentations:

* ``model_pn(n)``: projective n-space over a point.
* ``model_pn_x_pm(n, m)``: the product family P^n x P^m -> P^m.
* ``model_hirzebruch(e)``: the ruled surface P(O + O(-e)) -> P^1 with
  fiber relation z^2 = -e z f and relative tangent class 1 + (2z + e f).
"""

import json
from dataclasses import dataclass
from functools import reduce
from math import lcm

from .charclass import adams_rescale, ch_from_chern, sym_ch_table
from .exactalg import DomainError, Rational, StructureError, TruncatedSeries, VarTable, _reduced

__all__ = [
    "ModelError",
    "UnsupportedModelError",
    "ChowModel",
    "BundleClass",
    "load_model",
    "load_model_file",
    "builtin_model",
    "model_pn",
    "model_pn_x_pm",
    "model_hirzebruch",
    "MAX_MODEL_DIM",
    "MAX_MODEL_WINDOW",
]


class ModelError(ValueError):
    """The presentation fails validation."""


class UnsupportedModelError(ModelError):
    """The presentation is consistent but outside the supported fragment."""


def _exponents_of_degree(weights: tuple[int, ...], degree: int):
    """All exponent vectors with the given weighted total degree."""
    if not weights:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    for e in range(degree // w + 1):
        for rest in _exponents_of_degree(weights[1:], degree - e * w):
            yield (e,) + rest


# Largest validation window of a model. Validation reduces every monomial of
# weighted degree <= total_dim + (largest weight), so its cost follows their
# number: about 12 us each on a 2-core host. A file with five weight-one
# generators and 42,504 monomials in its window loads in about 0.5 s; seven
# generators with g_i^3 = 0 (170,544 monomials) took 2.8 s before this cap.
MAX_MODEL_WINDOW = 50_000


def _check_window(name: str, weights: tuple[int, ...], top: int):
    """Count the monomials in the validation window without listing them.

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


def _divides(lead: tuple[int, ...], exps: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(lead, exps))


class ChowModel:
    """A graded ring with a terminating, dimension-closed rewrite system."""

    def __init__(
        self,
        name: str,
        generators,
        relations,
        rel_dim: int,
        total_dim: int,
        base_generators,
        tangent_chern: TruncatedSeries | None,
        point_class,
    ):
        self.name = str(name)
        try:
            self.vars = VarTable(generators)
        except StructureError as exc:
            raise ModelError(str(exc)) from exc
        if not isinstance(rel_dim, int) or not isinstance(total_dim, int):
            raise ModelError("dimensions must be integers")
        if not 0 <= rel_dim <= total_dim:
            raise ModelError("need 0 <= rel_dim <= total_dim")
        self.rel_dim = rel_dim
        self.total_dim = total_dim
        _check_window(self.name, self.vars.weights, total_dim)

        base = tuple(base_generators)
        for b in base:
            self.vars.index(b)
        if len(set(base)) != len(base):
            raise ModelError("duplicate base generators")
        if (rel_dim < total_dim) != bool(base):
            raise ModelError("base generators must be marked exactly for family models")
        self.base_generators = base
        self._base_idx = frozenset(self.vars.index(b) for b in base)

        self.rules = self._parse_rules(relations)
        self._nf_cache: dict[tuple[int, ...], dict] = {}
        self._packed_nf: dict[int, tuple[dict, int]] = {}
        self._cotangent_sym: tuple[TruncatedSeries, ...] | None = None
        self._check_dimension_closure()
        self.point_class = self._check_point_class(point_class)
        self.tangent_chern = self._check_tangent(tangent_chern)
        rel_point = self._find_relative_point()
        if any(p < r for p, r in zip(self.point_class, rel_point)):
            raise UnsupportedModelError("point class does not factor through the fiber point")

    # ------------------------------------------------------------------
    # validation helpers

    def _mono_key(self, exps: tuple[int, ...]):
        return (self.vars.degree(exps), exps)

    def _parse_rules(self, relations):
        rules = []
        leads = set()
        for rel in relations:
            if isinstance(rel, dict):
                lead = tuple(int(e) for e in rel["lead"])
                replace = [
                    (tuple(int(e) for e in rec["exponents"]), Rational(str(rec["coeff"])))
                    for rec in rel["replace"]
                ]
            else:
                lead, replace = rel
                lead = tuple(int(e) for e in lead)
                replace = [(tuple(int(e) for e in x), Rational(c)) for x, c in replace]
            if len(lead) != len(self.vars) or all(e == 0 for e in lead):
                raise ModelError(f"bad rule lead {lead!r}")
            if lead in leads:
                raise ModelError(f"duplicate rule lead {lead!r}")
            leads.add(lead)
            for exps, coeff in replace:
                if len(exps) != len(self.vars):
                    raise ModelError("bad replacement exponents")
                if not coeff:
                    raise ModelError("zero replacement coefficient")
                if self.vars.degree(exps) != self.vars.degree(lead):
                    raise ModelError(f"rule {lead!r} is not homogeneous")
                if self._mono_key(exps) >= self._mono_key(lead):
                    raise ModelError(
                        f"rule {lead!r} is not strictly decreasing; would not terminate"
                    )
            rules.append((lead, tuple(replace)))
        # deterministic application order: biggest lead first
        rules.sort(key=lambda r: self._mono_key(r[0]), reverse=True)
        return tuple(rules)

    def _reduce_monomial(self, exps: tuple[int, ...]) -> dict:
        """Normal form of one monomial as {exponents: Rational}, cached.

        Every rule is homogeneous (``_parse_rules`` rejects any other), so
        each rewrite step keeps the degree of the monomial: a monomial inside
        the window [0, total_dim] only ever reaches monomials of its own
        degree. ``normal_form`` therefore takes only series truncated at
        total_dim, and the dimension-closure check can reduce monomials
        above the window through this same recursion.
        """
        cached = self._nf_cache.get(exps)
        if cached is not None:
            return cached
        out: dict[tuple[int, ...], Rational] = {exps: Rational(1)}
        for lead, replace in self.rules:
            if _divides(lead, exps):
                rest = tuple(b - a for a, b in zip(lead, exps))
                out = {}
                for rexps, rc in replace:
                    prod = tuple(a + b for a, b in zip(rexps, rest))
                    for nexps, nc in self._reduce_monomial(prod).items():
                        v = out.get(nexps, Rational(0)) + rc * nc
                        if v:
                            out[nexps] = v
                        else:
                            del out[nexps]
                break
        self._nf_cache[exps] = out
        return out

    def _check_dimension_closure(self):
        top = self.total_dim
        max_w = max(self.vars.weights)
        # homogeneous rules preserve degree, so a monomial just above the
        # window must reduce to the empty sum; anything heavier factors
        # through this window one variable at a time
        for deg in range(top + 1, top + max_w + 1):
            for exps in _exponents_of_degree(self.vars.weights, deg):
                if self._reduce_monomial(exps):
                    raise ModelError(
                        f"monomial {exps} of degree {deg} does not normalize to zero"
                    )

    def _is_normal(self, exps: tuple[int, ...]) -> bool:
        return not any(_divides(lead, exps) for lead, _ in self.rules)

    def _check_point_class(self, point_class):
        pt = tuple(int(e) for e in point_class)
        if len(pt) != len(self.vars):
            raise ModelError("point class length mismatch")
        if self.vars.degree(pt) != self.total_dim:
            raise ModelError("point class must have degree total_dim")
        if not self._is_normal(pt):
            raise ModelError("point class must be in normal form")
        lay = self.vars._layout(self.total_dim)
        top = {}
        for exps in _exponents_of_degree(self.vars.weights, self.total_dim):
            nf = self._reduce_monomial(exps)
            if any(e != pt for e in nf):
                raise ModelError(
                    f"degree-{self.total_dim} monomial {exps} is not a multiple "
                    "of the point class"
                )
            top[lay.key(exps)] = nf.get(pt, Rational(0))
        # the integral of each degree-total_dim monomial, by packed key, as
        # an integer numerator over the one denominator _top_den
        self._top_den = den = reduce(lcm, (c.denominator for c in top.values()), 1)
        self._top = {k: c.numerator * (den // c.denominator) for k, c in top.items()}
        return pt

    def _check_tangent(self, tangent):
        if tangent is None:
            return self.one()
        if not isinstance(tangent, TruncatedSeries):
            raise ModelError("tangent_chern must be a TruncatedSeries")
        if tangent.vars != self.vars or tangent.bound != self.total_dim:
            raise ModelError("tangent_chern lives in the wrong ring")
        if tangent.constant_term != 1:
            raise ModelError("tangent total Chern class must have constant term 1")
        return self.normal_form(tangent)

    def _find_relative_point(self):
        if self.rel_dim == 0:
            return (0,) * len(self.vars)
        fiber_idx = [i for i in range(len(self.vars)) if i not in self._base_idx]
        if not fiber_idx:
            raise ModelError("no fiber generators for a positive relative dimension")
        candidates = [
            exps
            for exps in _exponents_of_degree(self.vars.weights, self.rel_dim)
            if all(exps[i] == 0 for i in self._base_idx) and self._is_normal(exps)
        ]
        if len(candidates) != 1:
            raise UnsupportedModelError(
                f"need exactly one normal fiber monomial of degree {self.rel_dim}, "
                f"found {len(candidates)}"
            )
        rel_pt = candidates[0]
        # the ring must fiber over the base: every normal monomial must split
        # into a normal fiber part times a base part, and fiber parts of full
        # fiber degree must coincide with the fiber point
        for deg in range(self.total_dim + 1):
            for exps in _exponents_of_degree(self.vars.weights, deg):
                if not self._is_normal(exps):
                    continue
                fiber_part = tuple(
                    0 if i in self._base_idx else e for i, e in enumerate(exps)
                )
                if not self._is_normal(fiber_part):
                    raise UnsupportedModelError(
                        "normal monomials do not split over the base"
                    )
                fdeg = self.vars.degree(fiber_part)
                if fdeg >= self.rel_dim and fiber_part != rel_pt:
                    raise UnsupportedModelError(
                        "fiber degree exceeds the fiber point; pushforward unsupported"
                    )
        return rel_pt

    # ------------------------------------------------------------------
    # ring API

    def one(self) -> TruncatedSeries:
        return TruncatedSeries.one(self.vars, self.total_dim)

    def first_chern(self, coeffs: dict) -> TruncatedSeries:
        """Degree-one class sum(a_g * g) for weight-one generators g, built
        as one series."""
        terms = {}
        for gname, a in coeffs.items():
            i = self.vars.index(gname)
            if self.vars.weights[i] != 1:
                raise ModelError(f"generator {gname} has weight > 1; not a divisor class")
            terms[tuple(int(j == i) for j in range(len(self.vars)))] = a
        return TruncatedSeries(self.vars, self.total_dim, terms)

    def _check_ring(self, series: TruncatedSeries):
        if series.vars != self.vars or series.bound != self.total_dim:
            raise ModelError("series lives in a different ring")

    def normal_form(self, series: TruncatedSeries) -> TruncatedSeries:
        """Reduce every term of a series of the model's ring, truncated at
        total_dim.

        Works on the series' packed form (see ``exactalg``): the reduction
        of each monomial is cached as integer numerators over packed keys
        and one denominator.
        """
        self._check_ring(series)
        lay = series._lay
        cache = self._packed_nf
        images = []
        for key, num in series._num.items():
            image = cache.get(key)
            if image is None:
                nf = self._reduce_monomial(lay.exps(key))
                rden = reduce(lcm, (c.denominator for c in nf.values()), 1)
                image = cache[key] = (
                    {lay.key(e): c.numerator * (rden // c.denominator) for e, c in nf.items()},
                    rden,
                )
            images.append((num, image))
        den = reduce(lcm, (rden for _num, (_img, rden) in images), 1)
        acc: dict[int, int] = {}
        get = acc.get
        for num, (image, rden) in images:
            m = num * (den // rden)
            for k, v in image.items():
                acc[k] = get(k, 0) + m * v
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        return _reduced(series, acc, series._den * den)

    def cotangent_sym_table(self) -> tuple[TruncatedSeries, ...]:
        """Chern characters of Sym^0..Sym^(2d) of the relative cotangent
        sheaf Omega, d = rel_dim, in normal form: the symmetric powers the
        right side of the exponent identity twists.

        c(Omega) = psi^(-1) c(T) and ch(Omega) are taken in normal form, and
        the entries are ``sym_ch_table(ch(Omega), 2d, self.normal_form)``:
        each entry is reduced as the table is built, so every product of the
        recurrence multiplies normal forms. The relations are homogeneous, so
        that equals reducing the unreduced table at the end. None of it
        depends on a line bundle, so the table is built on first use and
        cached on the model, like the normal forms of monomials.
        """
        if self._cotangent_sym is None:
            chern = self.normal_form(adams_rescale(self.tangent_chern, -1))
            ch = self.normal_form(ch_from_chern(self.rel_dim, chern))
            self._cotangent_sym = tuple(sym_ch_table(ch, 2 * self.rel_dim, self.normal_form))
        return self._cotangent_sym

    def integrate(self, a: TruncatedSeries, b: TruncatedSeries | None = None) -> Rational:
        """The integral of a b over the model (b = 1 when omitted), by the
        top-degree pairing of the module docstring.

        On packed keys the product of two monomials is the sum of their
        keys, and its degree is total_dim exactly when their degrees add to
        it, so each such pair reads its integral from the table filled at
        validation. Reduction is linear and keeps degree, so the pairing is
        exact on any two series of the model's ring, in normal form or not.

        >>> m = model_pn_x_pm(1, 1)
        >>> h, s = (TruncatedSeries.gen(m.vars, m.total_dim, g) for g in "hs")
        >>> m.integrate(h, s)
        Fraction(1, 1)
        >>> m.integrate(h)
        Fraction(0, 1)
        """
        if b is None:
            b = self.one()
        self._check_ring(a)
        self._check_ring(b)
        top, shift, n = self._top, a._lay.dshift, self.total_dim
        by_degree: list[list] = [[] for _ in range(n + 1)]
        for kb, vb in b._num.items():
            by_degree[kb >> shift].append((kb, vb))
        num = 0
        for ka, va in a._num.items():
            for kb, vb in by_degree[n - (ka >> shift)]:
                num += va * vb * top[ka + kb]
        return Rational(num, a._den * b._den * self._top_den)

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        def series_obj(s: TruncatedSeries):
            return [
                {"exponents": list(e), "coeff": str(c)} for e, c in s.sorted_items()
            ]

        return {
            "name": self.name,
            "generators": [
                {"name": n, "weight": w}
                for n, w in zip(self.vars.names, self.vars.weights)
            ],
            "relations": [
                {
                    "lead": list(lead),
                    "replace": [
                        {"exponents": list(e), "coeff": str(c)} for e, c in replace
                    ],
                }
                for lead, replace in self.rules
            ],
            "rel_dim": self.rel_dim,
            "total_dim": self.total_dim,
            "base_generators": list(self.base_generators),
            "tangent_chern": series_obj(self.tangent_chern),
            "point_class": list(self.point_class),
        }

    def __repr__(self) -> str:
        return f"<ChowModel {self.name}: rel_dim={self.rel_dim} total_dim={self.total_dim}>"


@dataclass(frozen=True)
class BundleClass:
    """A sheaf class on a model: a rank with a total Chern class."""

    rank: int
    chern: TruncatedSeries

    def __post_init__(self):
        if self.chern.constant_term != 1:
            raise ModelError("total Chern class must start with 1")

    @classmethod
    def line(cls, model: ChowModel, coeffs: dict) -> "BundleClass":
        c1 = model.first_chern(coeffs)
        return cls(rank=1, chern=model.normal_form(model.one() + c1))


# ----------------------------------------------------------------------
# built-in models


# Largest total dimension of a built-in projective model (n for P^n, n + m
# for P^n x P^m). The slowest command at the ceiling, verify-main on
# P31xP1, takes about 0.8 s on a 2-core host.
MAX_MODEL_DIM = 32


def _check_model_dim(name: str, dim: int):
    if dim > MAX_MODEL_DIM:
        raise DomainError(
            f"{name} has dimension {dim}, above the ceiling MAX_MODEL_DIM = {MAX_MODEL_DIM}"
        )


def model_pn(n: int) -> ChowModel:
    """P^n over a point: one generator h, relation h^(n+1) = 0."""
    if n < 1:
        raise ModelError("need n >= 1")
    _check_model_dim(f"P{n}", n)
    vt = [("h", 1)]
    vars_ = VarTable(vt)
    tangent = (TruncatedSeries.one(vars_, n) + TruncatedSeries.gen(vars_, n, "h")) ** (n + 1)
    return ChowModel(
        name=f"P{n}",
        generators=vt,
        relations=[((n + 1,), [])],
        rel_dim=n,
        total_dim=n,
        base_generators=[],
        tangent_chern=tangent,
        point_class=(n,),
    )


def model_pn_x_pm(n: int, m: int) -> ChowModel:
    """The product family P^n x P^m -> P^m; h is the fiber class, s the base."""
    if n < 1 or m < 1:
        raise ModelError("need n, m >= 1")
    _check_model_dim(f"P{n}xP{m}", n + m)
    vt = [("h", 1), ("s", 1)]
    vars_ = VarTable(vt)
    total = n + m
    one = TruncatedSeries.one(vars_, total)
    h = TruncatedSeries.gen(vars_, total, "h")
    return ChowModel(
        name=f"P{n}xP{m}",
        generators=vt,
        relations=[((n + 1, 0), []), ((0, m + 1), [])],
        rel_dim=n,
        total_dim=total,
        base_generators=["s"],
        tangent_chern=(one + h) ** (n + 1),
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
    vt = [("z", 1), ("f", 1)]
    vars_ = VarTable(vt)
    one = TruncatedSeries.one(vars_, 2)
    z = TruncatedSeries.gen(vars_, 2, "z")
    f = TruncatedSeries.gen(vars_, 2, "f")
    relations = [((0, 2), [])]
    if e:
        relations.append(((2, 0), [((1, 1), Rational(-e))]))
    else:
        relations.append(((2, 0), []))
    return ChowModel(
        name=f"F{e}",
        generators=vt,
        relations=relations,
        rel_dim=1,
        total_dim=2,
        base_generators=["f"],
        tangent_chern=one + z.scale(2) + f.scale(e),
        point_class=(1, 1),
    )


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
    if key.startswith("p") and "x" in key and key.count("p") == 2:
        # forms like P1xP1 / P2xP1
        try:
            left, right = key[1:].split("xp")
            n, m = int(left), int(right)
        except ValueError as exc:
            raise ModelError(f"cannot parse product model {name!r}") from exc
        return model_pn_x_pm(n, m)
    if key == "hirzebruch":
        if e is None:
            raise ModelError("Hirzebruch needs --e")
        return model_hirzebruch(e)
    if key.startswith("p") and key[1:].isdigit():
        return model_pn(int(key[1:]))
    raise ModelError(f"unknown model {name!r}")


# ----------------------------------------------------------------------
# JSON loading


def load_model(obj: dict) -> ChowModel:
    """Build and validate a model from its JSON schema dict."""
    if not isinstance(obj, dict):
        raise ModelError("model description must be an object")
    try:
        total = int(obj["total_dim"])
        _check_model_dim(str(obj.get("name", "model")), total)
        generators = [
            (g["name"], int(g.get("weight", 1))) if isinstance(g, dict) else (g[0], int(g[1]))
            for g in obj["generators"]
        ]
        vars_ = VarTable(generators)
        tangent = TruncatedSeries.from_terms(
            vars_,
            total,
            [
                (tuple(int(x) for x in rec["exponents"]), Rational(str(rec["coeff"])))
                for rec in obj.get("tangent_chern", [])
            ],
        )
        return ChowModel(
            name=obj.get("name", "model"),
            generators=generators,
            relations=obj.get("relations", []),
            rel_dim=int(obj["rel_dim"]),
            total_dim=total,
            base_generators=obj.get("base_generators", []),
            tangent_chern=tangent if obj.get("tangent_chern") else None,
            point_class=tuple(int(x) for x in obj["point_class"]),
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
