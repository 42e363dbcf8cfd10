"""Truncated multivariate power series with exact rational coefficients.

A series lives over a fixed :class:`VarTable` (ordered variable names with
positive integer weights) and a fixed truncation bound: every monomial of
weighted total degree above the bound is discarded, so all ring operations
are exact on the retained window. Coefficients read back as
``fractions.Fraction`` values, re-exported as :data:`Rational`.

Layout. Inside a series each monomial is one ``int`` key and the
coefficients are ``int`` numerators over one positive common denominator,
with the gcd of the denominator and all numerators taken out once per
result (so equal series have equal numerators and denominators). The
layout of one (variable table, bound) pair has fields of width
``W = bound.bit_length() + 1``: the weighted degree sits in the top field,
above the exponent fields, which hold variable 0 in the highest bits:

    key = deg << (n*W) | e_0 << ((n-1)*W) | ... | e_(n-1).

This is the packed-monomial layout of sparse polynomial kernels (Monagan &
Pearce, "Sparse polynomial division using a heap", JSC 46, 2011).

* No carry: every exponent of a window monomial is at most ``bound``, so
  the sum of two is at most ``2*bound < 2**W``. Adding two keys therefore
  adds every field exactly, degree included: it multiplies the monomials.
* Truncation: a sum of two keys has degree above the bound exactly when it
  is at least ``(bound + 1) << (n*W)``, one integer comparison.
* Order: comparing keys as ints compares the degree first and then the
  exponents from variable 0 on, which is the ``(degree, exponents)`` order
  ``sorted_items`` and ``to_obj`` print. A product loop over key-sorted
  operands can stop the inner loop at the first partner whose sum leaves
  the window, since every later partner has a larger key.

The public surface reads the packed form back: ``terms`` is an exponents ->
``Fraction`` view whose length is the stored term count, and ``to_obj``
and ``repr`` unpack on demand.

This module is the one owner of arithmetic on the packed form. Each
operation on it has one helper, which every caller in the package uses:

* ``_over_lcm``, coefficients to integer numerators over their lcm: the
  validating constructor and ``ChowModel._pack`` (a rule's replacement);
* ``_accumulate``, the weighted sum over a common denominator: ``+``,
  ``_combine`` (and so ``scale``, the sum of one pair),
  ``ChowModel.normal_form`` and ``ChowModel._reduce``;
* ``_reduced``, the lowest-terms pass: every ring operation, and
  ``ChowModel`` reads its normal-form entries off its result;
* ``_Layout.gen``, a generator's key: ``TruncatedSeries.gen``,
  ``ChowModel.first_chern`` and ``grrcheck.verify_main_all_lines``.

Other callers read the packed form without doing that arithmetic:
``charclass.adams_rescale`` and ``charclass._rank_zero_sym`` (through
``_graded_weigh``, which scales each degree by its own integer, and the
latter also through ``_combine``), ``charclass.power_sums`` and
``ch_from_chern`` (through ``_power_sums``, the series of the integer
components of ``_newton``, Newton's recurrence on integer numerators, and
``_combine``), ``todd_from_chern`` (through ``_multiplicative_class``,
which feeds the components of ``_newton`` straight into the exp
recurrence), ``charclass._require_unit`` (the constant numerator against
``_den``), ``ChowModel._pair``, the integer pairing behind every model
degree (through ``_num``, ``_den`` and the degree field of ``_lay``), and
``grrcheck.verify_main_all_lines`` (one-key series through ``_series``).
``inverse`` has no product caller, since the quotient lab divides its
integer series itself; it stays because the benchmark's span tracer
(``perfbench/tracer.py``) wraps it by name and the quotient-lab tests use
it in their oracle route.

``inverse`` and ``exp`` never multiply whole series. They split the input f
once into weighted-degree components f_0..f_bound and build the result g one
component at a time, each from the components already built:

* inverse: g_0 = 1/f_0 and g_n = -(1/f_0) * sum_{k=1..n} f_k g_{n-k};
* exp (f_0 = 0): g_0 = 1 and n g_n = sum_{k=1..n} k f_k g_{n-k}.

These are the classical power-series recurrences of Knuth (The Art of
Computer Programming, vol. 2, section 4.7) and Brent & Kung ("Fast algorithms
for manipulating formal power series", JACM 25, 1978). A univariate inverse
costs O(bound^2) coefficient products instead of the O(bound^3) of summing
the powers of 1 - f/f_0. Both run on integer numerators; the methods' own
docstrings give the scaling that keeps every step integral.

Examples
--------
>>> vt = VarTable([("x", 1), ("y", 1)])
>>> x = TruncatedSeries.gen(vt, 3, "x")
>>> y = TruncatedSeries.gen(vt, 3, "y")
>>> (x + y).exp() == x.exp() * y.exp()
True
>>> (TruncatedSeries.one(vt, 3) - x).inverse().terms[(2, 0)]
Fraction(1, 1)
"""

from collections.abc import Mapping
from fractions import Fraction as Rational
from functools import reduce
from math import gcd, lcm
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
    """An int, a Rational or a string such as "3/2"; not a bool or a float.
    A string with a zero denominator, such as "1/0", is refused as
    malformed data, like any other string that is not a rational."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, (int, str)) and type(value) is not bool:
        try:
            return Rational(value)
        except ZeroDivisionError:
            raise StructureError(f"zero denominator in {value!r}") from None
    raise StructureError(f"not an exact rational: {value!r}")


class VarTable:
    """Ordered variable names with positive integer weights.

    The weight of a variable is the weighted degree its first power carries;
    generators of a graded ring with generators in several degrees (for
    instance Chern classes c_k of weight k) are modeled by weights > 1.
    """

    __slots__ = ("names", "weights", "_index", "_layouts")

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
            if type(weight) is not int or weight < 1:
                raise StructureError(f"weight of {name} must be a positive int")
            names.append(name)
            weights.append(weight)
        if len(set(names)) != len(names):
            raise StructureError("duplicate variable names")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_layouts", {})

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

    def _layout(self, bound: int) -> "_Layout":
        lay = self._layouts.get(bound)
        if lay is None:
            lay = self._layouts[bound] = _Layout(self.weights, bound)
        return lay

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


class _Layout:
    """The packed keys of one (weights, bound) pair; see the module docstring.

    It holds no reference to its VarTable, which caches it: a cycle would
    leave every dropped table to the cyclic garbage collector."""

    __slots__ = ("weights", "bound", "width", "mask", "dshift", "limit")

    def __init__(self, weights: tuple[int, ...], bound: int):
        self.weights = weights
        self.bound = bound
        self.width = bound.bit_length() + 1
        self.mask = (1 << self.width) - 1
        self.dshift = self.width * len(self.weights)
        self.limit = (bound + 1) << self.dshift

    def key(self, exps) -> int | None:
        """The key of a window monomial; None for a vector of the wrong
        length, with a negative or non-int entry, or above the bound."""
        if len(exps) != len(self.weights):
            return None
        deg = packed = 0
        width = self.width
        for e, w in zip(exps, self.weights):
            if not isinstance(e, int) or e < 0:
                return None
            deg += e * w
            packed = (packed << width) | e
        if deg > self.bound:
            return None
        return (deg << self.dshift) | packed

    def exps(self, key: int) -> tuple[int, ...]:
        out = []
        width, mask = self.width, self.mask
        for _ in self.weights:
            out.append(key & mask)
            key >>= width
        return tuple(reversed(out))

    def gen(self, i: int) -> int | None:
        """The key of generator i's first power, its weight over a single
        exponent 1; None when the weight lies above the bound."""
        weight = self.weights[i]
        if weight > self.bound:
            return None
        return (weight << self.dshift) | (1 << (len(self.weights) - 1 - i) * self.width)


def _ring_layout(vars: VarTable, bound: int) -> _Layout:
    """The layout of the ring of series in ``vars`` up to ``bound``, after
    checking both."""
    if not isinstance(vars, VarTable):
        raise StructureError("vars must be a VarTable")
    if not isinstance(bound, int) or bound < 0:
        raise StructureError("bound must be a nonnegative int")
    return vars._layout(bound)


class _Terms(Mapping):
    """The read-only exponents -> Rational view that ``TruncatedSeries.terms``
    returns; its length is the stored term count, built without Fractions."""

    __slots__ = ("_series",)

    def __len__(self) -> int:
        return len(self._series._num)

    def __iter__(self):
        return map(self._series._lay.exps, self._series._num)

    def __getitem__(self, exps) -> Rational:
        s = self._series
        num = s._num.get(s._lay.key(tuple(exps)))
        if num is None:
            raise KeyError(exps)
        return Rational(num, s._den)


class TruncatedSeries:
    """A sparse exact power series truncated at a weighted total degree.

    Terms read back through ``terms`` as a map from exponent vectors to
    nonzero Rational coefficients; every stored vector has weighted degree
    <= ``bound``. Instances are treated as immutable.
    """

    __slots__ = ("vars", "_lay", "_num", "_den")

    def __init__(self, vars: VarTable, bound: int, terms: dict | None = None):
        lay = _ring_layout(vars, bound)
        clean: list[tuple[int, int | Rational]] = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vars) or any(type(e) is not int or e < 0 for e in exps):
                raise StructureError(f"bad exponent vector {exps!r}")
            if type(coeff) is not int:
                coeff = _as_rational(coeff)
            if coeff:
                key = lay.key(exps)  # None above the bound
                if key is not None:
                    clean.append((key, coeff))
        num, den = _over_lcm(clean)
        _set_vars(self, vars)
        _set_lay(self, lay)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def bound(self) -> int:
        return self._lay.bound

    def _like(self, value) -> "TruncatedSeries":
        """The constant ``value`` in this ring."""
        if type(value) is not int:  # an int is its own numerator
            value = _as_rational(value)
        return _series(self, {0: value.numerator} if value else {}, value.denominator)

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
        # built packed, not by the validating constructor: constants are
        # most of the series the checks build from scratch
        lay = _ring_layout(vars, bound)
        out = _blank(TruncatedSeries)
        _set_vars(out, vars)
        _set_lay(out, lay)
        _set_num(out, {})
        _set_den(out, 1)
        return out

    @classmethod
    def one(cls, vars: VarTable, bound: int) -> "TruncatedSeries":
        return cls.constant(vars, bound, 1)

    @classmethod
    def constant(cls, vars: VarTable, bound: int, value) -> "TruncatedSeries":
        return cls.zero(vars, bound)._like(value)

    @classmethod
    def gen(cls, vars: VarTable, bound: int, name: str) -> "TruncatedSeries":
        """The generator ``name``, written as its one packed key
        (``_Layout.gen``); the zero series when its weight lies above the
        bound."""
        i = vars.index(name)
        ring = cls.zero(vars, bound)
        key = ring._lay.gen(i)
        return ring if key is None else _series(ring, {key: 1}, 1)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def terms(self) -> Mapping:
        # built without a Python-level __init__: the benchmark tracer takes
        # len(s.terms) on every traced product
        view = _blank(_Terms)
        _set_series(view, self)
        return view

    @property
    def constant_term(self) -> Rational:
        num = self._num.get(0)
        return Rational(num, self._den) if num else Rational(0)

    def is_zero(self) -> bool:
        return not self._num

    def sorted_items(self):
        exps, den = self._lay.exps, self._den
        return [(exps(k), Rational(v, den)) for k, v in sorted(self._num.items())]

    def _check(self, other: "TruncatedSeries"):
        if self._lay is not other._lay and (
            self.vars != other.vars or self.bound != other.bound
        ):
            raise StructureError("mismatched variable tables or bounds")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
        elif isinstance(other, (int, Rational)):
            other = self._like(other)
        else:
            return NotImplemented
        if not other._num:
            return self
        parts = (1, (self._num, self._den)), (1, (other._num, other._den))
        return _reduced(self, *_accumulate(parts))

    __radd__ = __add__

    def __neg__(self):
        return _series(self, {k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Rational)):
            other = self._like(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        return _combine(self, ((value, self),))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, (int, Rational)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        if not self._num or not other._num:
            return _series(self, {}, 1)
        limit = self._lay.limit
        right = sorted(other._num.items())
        low = right[0][0]
        acc: dict[int, int] = {}
        get = acc.get
        for ka, na in sorted(self._num.items()):
            room = limit - ka
            if low >= room:
                break
            for kb, nb in right:
                if kb >= room:
                    break
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        return _reduced(self, acc, self._den * other._den)

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

    def _components(self, weight) -> list[list]:
        """The numerators split by weighted degree: entry k lists the
        degree-k (key, numerator * weight[k]) pairs, for k = 0..bound."""
        parts: list[list] = [[] for _ in range(self.bound + 1)]
        shift = self._lay.dshift
        for k, v in self._num.items():
            deg = k >> shift
            parts[deg].append((k, v * weight[deg]))
        return parts

    def _graded_solve(self, parts: list, head: int, divisor, den: int, scale: list) -> "TruncatedSeries":
        """The series sum_n H_n * scale[n] / den, where H_0 = head and, for
        n = 1..bound, H_n = (sum_{k=1..n} parts[k] * H_{n-k}) / divisor(n)
        with every division exact, built one homogeneous component at a
        time (each H_n is final once built)."""
        h: list[list] = [[(0, head)]]
        for n in range(1, self.bound + 1):
            acc: dict[int, int] = {}
            get = acc.get
            for k in range(1, n + 1):
                fk, hk = parts[k], h[n - k]
                if not fk or not hk:
                    continue
                for fe, fc in fk:
                    for he, hc in hk:
                        key = fe + he
                        acc[key] = get(key, 0) + fc * hc
            q = divisor(n)
            h.append([(e, c // q) for e, c in acc.items() if c])
        num = {}
        for n, hn in enumerate(h):
            m = scale[n]
            for e, c in hn:
                num[e] = c * m
        if den < 0:
            num = {e: -c for e, c in num.items()}
            den = -den
        return _reduced(self, num, den)

    def _newton(self) -> list[list]:
        """Newton's recurrence for the power sums p_1..p_bound of the roots
        of ``self``, a total Chern class c with constant term 1, on integer
        numerators: entry n lists the degree-n (key, P_n) pairs, where
        p_n = P_n / D^n and D is the denominator of c; entry 0 is empty.

        Newton's identity (Macdonald, Symmetric Functions and Hall
        Polynomials, I.2) reads p_n = (-1)^(n-1) n e_n +
        sum_{i=1..n-1} (-1)^(n-1-i) e_{n-i} p_i, with e_m the degree-m
        component of c. In integers: with c = C/D and
        E_m = (-1)^(m-1) D^(m-1) C_m, it becomes
        P_n = n E_n + sum_{i=1..n-1} E_{n-i} P_i, with no division; each
        P_n is built once, one homogeneous component at a time.
        """
        bound, d = self.bound, self._den
        weight = [0, 1]
        for _ in range(2, bound + 1):
            weight.append(-weight[-1] * d)
        parts = self._components(weight)
        ps: list[list] = [[]]
        for n in range(1, bound + 1):
            acc = {e: n * c for e, c in parts[n]}
            get = acc.get
            for i in range(1, n):
                fk, pi = parts[n - i], ps[i]
                if not fk or not pi:
                    continue
                for fe, fc in fk:
                    for pe, pc in pi:
                        key = fe + pe
                        acc[key] = get(key, 0) + fc * pc
            ps.append([(e, c) for e, c in acc.items() if c])
        return ps

    def _power_sums(self) -> list["TruncatedSeries"]:
        """Power sums p_0..p_bound of the roots of ``self`` (see ``_newton``);
        p_0 is the zero series."""
        out = [_series(self, {}, 1)]
        dn = 1
        for pn in self._newton()[1:]:
            dn *= self._den
            out.append(_reduced(self, dict(pn), dn))
        return out

    def _multiplicative_class(self, log_weights: tuple[int, tuple[int, ...]]) -> "TruncatedSeries":
        """The multiplicative class exp(sum_{k=1..bound} g_k p_k) of the
        bundle whose total Chern class is ``self``, where p_k are the power
        sums of its roots: each root x contributes the factor
        exp(sum_k g_k x^k) (Hirzebruch, Topological Methods in Algebraic
        Geometry, 1.7). ``log_weights`` is ``_log_weights`` of g_1..g_bound:
        an integer b such that the denominator of each g_k divides b^k, and
        the integers w_k = k g_k b^k.

        One graded pass. p_k is homogeneous of degree k, so the degree-k
        component of the logarithm is g_k p_k = g_k P_k / D^k, with P_k from
        ``_newton``. With G = D b, that is F_k / G^k for the integer
        F_k = g_k b^k P_k. The exp recurrence of ``exp`` then needs no other
        scaling: with B = bound!, H_n = g_n G^n B is an integer (g_n sums
        products of components of total degree n over factorials up to n!),
        H_0 = B and n H_n = sum_{k=1..n} k F_k H_{n-k} =
        sum_{k=1..n} w_k P_k H_{n-k}, an exact division by n.
        """
        b, weights = log_weights
        bound = self.bound
        ps = self._newton()
        parts: list[list] = [[]]
        for w, pk in zip(weights, ps[1:]):
            parts.append([(e, c * w) for e, c in pk] if w else [])
        g, gpow = self._den * b, [1]
        fact = 1
        for k in range(1, bound + 1):
            gpow.append(gpow[-1] * g)
            fact *= k
        return self._graded_solve(parts, fact, lambda n: n, gpow[-1] * fact, gpow[::-1])

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, exactly on the window.

        With f_k the weighted-degree-k component of ``self`` and g = exp(f),
        the weighted Euler operator E (E x^a = deg(a) x^a) is a derivation,
        so E g = E(f) g; comparing degree-n parts gives g_0 = 1 and
        n g_n = sum_{k=1..n} k f_k g_{n-k} (Knuth, TAOCP vol. 2, 4.7;
        Brent & Kung, JACM 25, 1978), for any positive variable weights.

        In integers: with f = F/D and B = bound!, H_n = g_n D^n B is an
        integer, since g_n is a sum of products of at most n components of
        f over factorials up to n!. Then H_0 = B and
        n H_n = sum_{k=1..n} (k D^(k-1) F_k) H_{n-k}, an exact division by n.
        """
        if 0 in self._num:
            raise DomainError("exp needs zero constant term")
        bound, d = self.bound, self._den
        dpow = [1]
        fact = 1
        for k in range(1, bound + 1):
            dpow.append(dpow[-1] * d)
            fact *= k
        weight = [0] + [k * dpow[k - 1] for k in range(1, bound + 1)]
        scale = dpow[::-1]
        return self._graded_solve(
            self._components(weight), fact, lambda n: n, dpow[-1] * fact, scale
        )

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        With f_k the weighted-degree-k component of ``self`` (f_0 = c0, as
        every weight is at least 1) and g = 1/f, the degree-n part of f g = 1
        gives g_0 = 1/c0 and g_n = -(1/c0) sum_{k=1..n} f_k g_{n-k}
        (Knuth, TAOCP vol. 2, 4.7; Brent & Kung, JACM 25, 1978).

        In integers: write f = F/D = (c/D) P, with c the gcd of the integer
        numerators F, so P = F/c has integer coefficients and constant term
        p. Then 1/P has degree-n part H_n / p^(n+1) with H_0 = 1 and
        H_n = -sum_{k=1..n} (p^(k-1) F_k) H_{n-k} / c, an exact division by
        -c, and 1/f = (D/c) / P.
        """
        num = self._num
        c0 = num.get(0)
        if not c0:
            raise DomainError("inverse needs a nonzero constant term")
        bound = self.bound
        content = reduce(gcd, num.values())
        p = c0 // content
        ppow = [1]
        for _ in range(bound + 1):
            ppow.append(ppow[-1] * p)
        scale = [self._den * ppow[bound - n] for n in range(bound + 1)]
        return self._graded_solve(
            self._components([1] + ppow[:bound]),
            1,
            lambda n: -content,
            content * ppow[bound + 1],
            scale,
        )

    def component(self, k: int) -> "TruncatedSeries":
        """The weighted-degree-k homogeneous part, kept at the same bound."""
        shift = self._lay.dshift
        return _reduced(
            self, {e: v for e, v in self._num.items() if e >> shift == k}, self._den
        )

    def _graded_weigh(self, weight) -> "TruncatedSeries":
        """Multiply the weighted-degree-k component by the int weight[k]."""
        shift = self._lay.dshift
        num = {}
        for e, v in self._num.items():
            w = weight[e >> shift]
            if w:
                num[e] = v * w
        return _reduced(self, num, self._den)

    # ------------------------------------------------------------------
    # comparison and serialization

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):
            other = self._like(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.bound == other.bound
            and self._den == other._den
            and self._num == other._num
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
        tail = " + ..." if len(self._num) > 8 else ""
        return "<series " + " + ".join(bits) + tail + ">"


_blank = object.__new__
_set_vars = TruncatedSeries.vars.__set__
_set_lay = TruncatedSeries._lay.__set__
_set_num = TruncatedSeries._num.__set__
_set_den = TruncatedSeries._den.__set__
_set_series = _Terms._series.__set__


def _series(ring: TruncatedSeries, num: dict, den: int) -> TruncatedSeries:
    """The series in the ring (variables and bound) of ``ring`` with integer
    numerators ``num`` (packed keys, no zero values) over ``den`` > 0,
    already in lowest terms. Results of the ring operations are built here,
    not by the validating constructor."""
    out = _blank(TruncatedSeries)
    _set_vars(out, ring.vars)
    _set_lay(out, ring._lay)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _reduced(ring: TruncatedSeries, num: dict, den: int) -> TruncatedSeries:
    """As ``_series``, after taking out the gcd of den and the numerators:
    the one lowest-terms pass of the package (``ChowModel._reduce`` reads
    its normal-form entries off the series it returns)."""
    if den != 1:
        # reduce, not gcd(den, *values): a fresh argument tuple of every
        # size would be parked in the interpreter's tuple free lists
        g = reduce(gcd, num.values(), den)
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return _series(ring, num, den)


def _log_weights(log_coeffs: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    """The integer form (b, (w_1..w_n)) of log coefficients g_1..g_n that
    ``TruncatedSeries._multiplicative_class`` takes: the denominator of each
    g_k divides b^k, and w_k = k g_k b^k. b grows one factor at a time, only
    by what g_k's denominator lacks in b^k, so it stays far below the lcm
    of the denominators; every earlier g_j's denominator still divides b^j."""
    b = 1
    for k, g in enumerate(log_coeffs, 1):
        b *= g.denominator // gcd(g.denominator, b**k)
    return b, tuple(k * g.numerator * (b**k // g.denominator) for k, g in enumerate(log_coeffs, 1))


def _over_lcm(pairs: list) -> tuple[dict, int]:
    """The (key, coefficient) pairs, each coefficient a nonzero int or
    reduced Rational, as integer numerators over the lcm of the
    denominators (an int's is 1): the one conversion from coefficients to
    the packed form, shared by ``TruncatedSeries`` and ``ChowModel._pack``.
    Over that lcm the numerators share no factor with it, so the result is
    already in lowest terms."""
    den = reduce(lcm, (c.denominator for _, c in pairs), 1)
    return {k: c.numerator * (den // c.denominator) for k, c in pairs}, den


def _accumulate(parts) -> tuple[dict, int]:
    """sum m * num / den over the sequence ``parts`` of (m, (num, den)), with
    an int multiplier m, numerators num on packed keys and a denominator
    den > 0, as integer numerators over the lcm of the denominators, zeros
    dropped and not reduced: the one weighted sum of the package, behind
    ``+``, ``_combine`` and ``ChowModel``'s reduction. (num, den) is the
    shape of a ``ChowModel`` normal-form entry, so ``normal_form`` passes
    its table's entries as they are."""
    den = reduce(lcm, (d for _, (_, d) in parts), 1)
    acc: dict[int, int] = {}
    get = acc.get
    for m, (num, d) in parts:
        m *= den // d
        for k, v in num.items():
            acc[k] = get(k, 0) + m * v
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    return acc, den


def _combine(ring: TruncatedSeries, terms) -> TruncatedSeries:
    """sum w * s over the (weight, series) pairs ``terms``, every series in
    the ring of ``ring`` and every weight an int or Rational (no bool): one
    ``_accumulate`` over a common denominator, reduced once by
    ``_reduced``. ``scale`` is the sum of one pair. An int weight stays an
    int (its denominator is 1)."""
    parts = []
    for w, s in terms:
        if type(w) is not int:
            w = _as_rational(w)
        if w:
            parts.append((w.numerator, (s._num, s._den * w.denominator)))
    return _reduced(ring, *_accumulate(parts))
