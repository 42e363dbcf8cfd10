"""Characteristic-class conversions on exact truncated series.

Everything is driven by symmetric-function identities, never by explicit
Chern roots: Newton's recurrence turns the graded components of a total
Chern class into power sums, the Chern character and the Todd class are
exponential expressions in those power sums, Adams operations rescale
graded components, and symmetric-power characters come out of the
generating identity

    sum_j ch(Sym^j E) t^j = exp( sum_{m>=1} (t^m / m) psi^m(ch E) ),

read off through the equivalent recurrence j*s_j = sum_m psi^m(ch E) s_{j-m}.
That recurrence produces s_0..s_top in a single pass, so ``sym_ch_table``
returns the whole list and ``sym_ch`` is its last entry: a caller that
needs several symmetric powers builds the table once per call instead of
re-running the recurrence for each degree.

Newton's recurrence runs once over the packed graded components of the
class on integer numerators (``TruncatedSeries._power_sums``), and the
Chern character and the Todd logarithm sum their weighted power sums over
one common denominator; neither calls a series inverse. The only cache
here is the Todd logarithm's coefficients, per bound. The classes of a
model's cotangent sheaf (c, ch and the Sym characters) are cached on the
model, by ``ChowModel.cotangent_sym_table``.
"""

from functools import lru_cache
from math import comb

from .exactalg import DomainError, Rational, TruncatedSeries, VarTable, _combine

__all__ = [
    "power_sums",
    "ch_from_chern",
    "todd_from_chern",
    "adams_rescale",
    "dual_ch",
    "sym_ch",
    "sym_ch_table",
]


def _require_unit(c: TruncatedSeries, what: str):
    if c.constant_term != 1:
        raise DomainError(f"{what} must have constant term 1")


def power_sums(chern: TruncatedSeries) -> list[TruncatedSeries]:
    """Power sums p_0..p_bound of the roots of a total Chern class.

    p_0 is returned as the zero series (the rank is not encoded in the
    class); for k >= 1 Newton's identity gives
    p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(k-1-i) e_{k-i} p_i,
    run once over the graded components of the class on integer numerators
    (``TruncatedSeries._power_sums``).

    For a split class (1 + a)(1 + b), p_k = a^k + b^k:

    >>> vt = VarTable([("a", 1), ("b", 1)])
    >>> a, b = (TruncatedSeries.gen(vt, 3, n) for n in "ab")
    >>> p = power_sums((1 + a) * (1 + b))
    >>> all(p[k] == a**k + b**k for k in range(1, 4))
    True
    """
    _require_unit(chern, "total Chern class")
    return chern._power_sums()


def ch_from_chern(rank: int, chern: TruncatedSeries) -> TruncatedSeries:
    """Chern character: rank + sum_{k>=1} p_k / k!, summed over one common
    denominator."""
    terms = [(rank, TruncatedSeries.one(chern.vars, chern.bound))]
    fact = 1
    for k, pk in enumerate(power_sums(chern)[1:], 1):
        fact *= k
        terms.append((Rational(1, fact), pk))
    return _combine(chern, terms)


@lru_cache(maxsize=None)
def _todd_log_coeffs(bound: int) -> tuple[Rational, ...]:
    """Coefficients g_1..g_bound with log(x / (1 - e^(-x))) = sum g_k x^k.

    The logarithm's derivative is 1/x - 1/(e^x - 1), and
    x/(e^x - 1) = sum_k B_k x^k / k! defines the Bernoulli numbers
    (B_0 = 1, B_1 = -1/2), so g_k = -B_k / (k k!) for k >= 1: g_1 = 1/2,
    g_2 = -1/24, and g_k = 0 for odd k >= 3 (Hirzebruch, Topological
    Methods in Algebraic Geometry, 1.7). The B_k come from
    sum_{j=0..m} C(m+1, j) B_j = 0.
    """
    bern = [Rational(1)]
    out = []
    fact = 1
    for k in range(1, bound + 1):
        bern.append(-sum(comb(k + 1, j) * bern[j] for j in range(k)) / (k + 1))
        fact *= k
        out.append(-bern[k] / (k * fact))
    return tuple(out)


def todd_from_chern(chern: TruncatedSeries) -> TruncatedSeries:
    """Todd class of the bundle with the given total Chern class.

    Computed as exp(sum_k g_k p_k) where g is the logarithm of the single
    root factor x/(1 - e^(-x)); multiplicativity over sums of bundles is
    then automatic. The sum is taken over one common denominator.
    """
    p = power_sums(chern)
    return _combine(chern, zip(_todd_log_coeffs(chern.bound), p[1:])).exp()


def adams_rescale(ch: TruncatedSeries, m: int) -> TruncatedSeries:
    """Adams operation psi^m: multiply the degree-k component by m^k."""
    if not isinstance(m, int):
        raise DomainError("Adams index must be an integer")
    return ch._graded_scale(m)


def dual_ch(ch: TruncatedSeries) -> TruncatedSeries:
    """Chern character of the dual: psi^(-1)."""
    return adams_rescale(ch, -1)


def sym_ch_table(ch: TruncatedSeries, top: int) -> list[TruncatedSeries]:
    """Chern characters [s_0, ..., s_top] of the symmetric powers Sym^0..Sym^top.

    s_0 = 1 and j*s_j = sum_{m=1}^{j} psi^m(ch) * s_{j-m}, the coefficient
    recurrence of the generating identity in the module docstring; every
    entry comes out of the same pass.

    For a line bundle with ch = e^a, s_j = e^(j*a):

    >>> vt = VarTable([("a", 1)])
    >>> a = TruncatedSeries.gen(vt, 3, "a")
    >>> table = sym_ch_table(a.exp(), 3)
    >>> all(s == (a * j).exp() for j, s in enumerate(table))
    True
    """
    if top < 0:
        raise DomainError("symmetric power degree must be >= 0")
    psi = [None] + [adams_rescale(ch, m) for m in range(1, top + 1)]
    s = [TruncatedSeries.one(ch.vars, ch.bound)]
    for n in range(1, top + 1):
        acc = TruncatedSeries.zero(ch.vars, ch.bound)
        for m in range(1, n + 1):
            acc = acc + psi[m] * s[n - m]
        s.append(acc / n)
    return s


def sym_ch(ch: TruncatedSeries, j: int) -> TruncatedSeries:
    """Chern character of the j-th symmetric power: ``sym_ch_table(ch, j)[j]``."""
    return sym_ch_table(ch, j)[j]
