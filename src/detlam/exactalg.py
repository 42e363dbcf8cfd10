"""Truncated multivariate power series with exact rational coefficients.

A series lives over a fixed :class:`VarTable` (ordered variable names with
positive integer weights) and a fixed truncation bound: every monomial of
weighted total degree above the bound is discarded, so all ring operations
are exact on the retained window. Coefficients are ``fractions.Fraction``
values, re-exported as :data:`Rational`.

``inverse`` and ``exp`` never multiply whole series. They split the input f
once into weighted-degree components f_0..f_bound and build the result g one
component at a time, each from the components already built:

* inverse: g_0 = 1/f_0 and g_n = -(1/f_0) * sum_{k=1..n} f_k g_{n-k};
* exp (f_0 = 0): g_0 = 1 and n g_n = sum_{k=1..n} k f_k g_{n-k}.

These are the classical power-series recurrences of Knuth (The Art of
Computer Programming, vol. 2, section 4.7) and Brent & Kung ("Fast algorithms
for manipulating formal power series", JACM 25, 1978). A univariate inverse
costs O(bound^2) coefficient products instead of the O(bound^3) of summing
the powers of 1 - f/f_0.

Examples
--------
>>> vt = VarTable([("x", 1), ("y", 1)])
>>> x = TruncatedSeries.gen(vt, 3, "x")
>>> y = TruncatedSeries.gen(vt, 3, "y")
>>> (x + y).exp() == x.exp() * y.exp()
True
>>> (TruncatedSeries.one(vt, 3) - x).inverse().coefficient((2, 0))
Fraction(1, 1)
"""

from fractions import Fraction as Rational
from operator import add
from typing import Iterable, Sequence

__all__ = [
    "Rational",
    "StructureError",
    "DomainError",
    "VarTable",
    "TruncatedSeries",
]


class StructureError(ValueError):
    """Incompatible variable tables, bounds, or malformed structural data."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


def _as_rational(value) -> Rational:
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value)
    if isinstance(value, str):
        return Rational(value)
    raise StructureError(f"not an exact rational: {value!r}")


class VarTable:
    """Ordered variable names with positive integer weights.

    The weight of a variable is the weighted degree its first power carries;
    generators of a graded ring with generators in several degrees (for
    instance Chern classes c_k of weight k) are modeled by weights > 1.
    """

    __slots__ = ("names", "weights", "_index")

    def __init__(self, variables: Iterable):
        names = []
        weights = []
        for item in variables:
            if isinstance(item, str):
                name, weight = item, 1
            else:
                name, weight = item
            if not isinstance(name, str) or not name:
                raise StructureError(f"bad variable name: {name!r}")
            if not isinstance(weight, int) or weight < 1:
                raise StructureError(f"weight of {name} must be a positive int")
            names.append(name)
            weights.append(weight)
        if len(set(names)) != len(names):
            raise StructureError("duplicate variable names")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *a):
        raise AttributeError("VarTable is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"unknown variable {name!r}") from None

    def degree(self, exponents: Sequence[int]) -> int:
        if len(exponents) != len(self.names):
            raise StructureError("exponent vector length mismatch")
        return sum(e * w for e, w in zip(exponents, self.weights))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"VarTable({body})"


class TruncatedSeries:
    """A sparse exact power series truncated at a weighted total degree.

    Terms are held as a map from exponent vectors to nonzero Rational
    coefficients; every stored vector has weighted degree <= ``bound``.
    Instances are treated as immutable.
    """

    __slots__ = ("vars", "bound", "terms")

    def __init__(self, vars: VarTable, bound: int, terms: dict | None = None):
        if not isinstance(vars, VarTable):
            raise StructureError("vars must be a VarTable")
        if not isinstance(bound, int) or bound < 0:
            raise StructureError("bound must be a nonnegative int")
        clean: dict[tuple[int, ...], Rational] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vars) or any(e < 0 or not isinstance(e, int) for e in exps):
                raise StructureError(f"bad exponent vector {exps!r}")
            coeff = _as_rational(coeff)
            if coeff and vars.degree(exps) <= bound:
                clean[exps] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_terms(cls, vars: VarTable, bound: int, items) -> "TruncatedSeries":
        acc: dict[tuple[int, ...], Rational] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            acc[exps] = acc.get(exps, Rational(0)) + _as_rational(coeff)
        return cls(vars, bound, acc)

    @classmethod
    def zero(cls, vars: VarTable, bound: int) -> "TruncatedSeries":
        return cls(vars, bound, {})

    @classmethod
    def one(cls, vars: VarTable, bound: int) -> "TruncatedSeries":
        return cls.constant(vars, bound, 1)

    @classmethod
    def constant(cls, vars: VarTable, bound: int, value) -> "TruncatedSeries":
        return cls(vars, bound, {(0,) * len(vars): _as_rational(value)})

    @classmethod
    def gen(cls, vars: VarTable, bound: int, name: str) -> "TruncatedSeries":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, bound, {exps: Rational(1)})

    # ------------------------------------------------------------------
    # basic queries

    def coefficient(self, exponents) -> Rational:
        return self.terms.get(tuple(exponents), Rational(0))

    @property
    def constant_term(self) -> Rational:
        return self.terms.get((0,) * len(self.vars), Rational(0))

    def is_zero(self) -> bool:
        return not self.terms

    def _key(self, exps: tuple[int, ...]):
        return (self.vars.degree(exps), exps)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: self._key(kv[0]))

    def _check(self, other: "TruncatedSeries"):
        if self.vars != other.vars or self.bound != other.bound:
            raise StructureError("mismatched variable tables or bounds")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, (int, Rational)):
            other = TruncatedSeries.constant(self.vars, self.bound, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            v = acc.get(exps, Rational(0)) + coeff
            if v:
                acc[exps] = v
            else:
                acc.pop(exps, None)
        return TruncatedSeries(self.vars, self.bound, acc)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.vars, self.bound, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Rational)):
            other = TruncatedSeries.constant(self.vars, self.bound, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        value = _as_rational(value)
        if not value:
            return TruncatedSeries.zero(self.vars, self.bound)
        return TruncatedSeries(
            self.vars, self.bound, {e: c * value for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        vars_, bound = self.vars, self.bound
        weights = vars_.weights
        acc: dict[tuple[int, ...], Rational] = {}
        left = [(e, vars_.degree(e), c) for e, c in self.terms.items()]
        for fe, fc in other.terms.items():
            fdeg = vars_.degree(fe)
            for e, deg, c in left:
                if deg + fdeg > bound:
                    continue
                key = tuple(a + b for a, b in zip(e, fe))
                v = acc.get(key, Rational(0)) + c * fc
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        return TruncatedSeries(vars_, bound, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Rational)):
            other = _as_rational(other)
            if not other:
                raise DomainError("division by zero")
            return self.scale(Rational(1) / other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("only nonnegative integer powers are defined")
        out = TruncatedSeries.one(self.vars, self.bound)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _components(self) -> list[list]:
        """The terms split by weighted degree: entry k lists the degree-k
        (exponents, coefficient) pairs, for k = 0..bound."""
        parts: list[list] = [[] for _ in range(self.bound + 1)]
        degree = self.vars.degree
        for exps, coeff in self.terms.items():
            parts[degree(exps)].append((exps, coeff))
        return parts

    def _graded_solve(self, head: Rational, parts: list, outer) -> "TruncatedSeries":
        """The series g with g_0 = head and, for n = 1..bound,
        g_n = outer(n) * sum_{k=1..n} parts[k] * g_{n-k},
        one homogeneous component at a time (each g_n is final once built)."""
        zero = (0,) * len(self.vars)
        g: list[list] = [[(zero, head)]]
        out = {zero: head}
        for n in range(1, self.bound + 1):
            acc: dict[tuple[int, ...], Rational] = {}
            for k in range(1, n + 1):
                fk, gk = parts[k], g[n - k]
                if not fk or not gk:
                    continue
                for fe, fc in fk:
                    for ge, gc in gk:
                        key = tuple(map(add, fe, ge))
                        acc[key] = acc.get(key, 0) + fc * gc
            scale = outer(n)
            gn = [(e, c * scale) for e, c in acc.items() if c]
            g.append(gn)
            out.update(gn)
        return TruncatedSeries(self.vars, self.bound, out)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, exactly on the window.

        With f_k the weighted-degree-k component of ``self`` and g = exp(f),
        the weighted Euler operator E (E x^a = deg(a) x^a) is a derivation,
        so E g = E(f) g; comparing degree-n parts gives g_0 = 1 and
        n g_n = sum_{k=1..n} k f_k g_{n-k} (Knuth, TAOCP vol. 2, 4.7;
        Brent & Kung, JACM 25, 1978), for any positive variable weights.
        """
        if self.constant_term:
            raise DomainError("exp needs zero constant term")
        parts = [[(e, c * k) for e, c in part] for k, part in enumerate(self._components())]
        return self._graded_solve(Rational(1), parts, lambda n: Rational(1, n))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        With f_k the weighted-degree-k component of ``self`` (f_0 = c0, as
        every weight is at least 1) and g = 1/f, the degree-n part of f g = 1
        gives g_0 = 1/c0 and g_n = -(1/c0) sum_{k=1..n} f_k g_{n-k}
        (Knuth, TAOCP vol. 2, 4.7; Brent & Kung, JACM 25, 1978).
        """
        c0 = self.constant_term
        if not c0:
            raise DomainError("inverse needs a nonzero constant term")
        inv_c0 = 1 / c0
        minus_inv_c0 = -inv_c0
        return self._graded_solve(inv_c0, self._components(), lambda n: minus_inv_c0)

    def component(self, k: int) -> "TruncatedSeries":
        """The weighted-degree-k homogeneous part, kept at the same bound."""
        keep = {e: c for e, c in self.terms.items() if self.vars.degree(e) == k}
        return TruncatedSeries(self.vars, self.bound, keep)

    # ------------------------------------------------------------------
    # comparison and serialization

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):
            other = TruncatedSeries.constant(self.vars, self.bound, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.bound == other.bound
            and self.terms == other.terms
        )

    __hash__ = None

    def to_obj(self) -> list[dict]:
        """Deterministic JSON-ready form: records sorted by (degree, exps)."""
        return [
            {
                "exponents": list(exps),
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
            }
            for exps, coeff in self.sorted_items()
        ]

    def __repr__(self) -> str:
        if self.is_zero():
            return "<series 0>"
        bits = []
        for exps, coeff in self.sorted_items()[:8]:
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.vars.names, exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self.terms) > 8 else ""
        return "<series " + " + ".join(bits) + tail + ">"
