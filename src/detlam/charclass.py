"""Characteristic-class conversions on exact truncated series.

Everything is driven by symmetric-function identities, never by explicit
Chern roots: Newton's recurrence turns the graded components of a total
Chern class into power sums, the Chern character and the Todd class are
exponential expressions in those power sums, Adams operations rescale
graded components, and symmetric-power characters come out of the
generating identity

    sum_j ch(Sym^j E) t^j = exp( sum_{m>=1} (t^m / m) psi^m(ch E) )
                          = prod_k 1 / (1 - t e^(x_k)).

It is read through the rank-zero part of ch E: with z_k = e^(x_k) - 1, the
Sym^j character is a binomial combination s_j = sum_i C(r + j - 1, j - i)
G_i of the complete symmetric functions G_i = h_i(z) (``_sym_weights``),
and G_i vanishes above the truncation degree. ``_rank_zero_sym`` builds
G_0..G_n by Newton's identity on the power sums of the z_k (each a Stirling
rescale of ch). Every consumer weighs the G_i instead of forming the s_j:
``sym_ch`` sums them, ``grrcheck.universal_report`` folds each twist's
terms into one weighted sum, and ``grrcheck.verify_main_on_model`` pairs
each G_i of a model's cotangent sheaf (``ChowModel.cotangent_rank_zero``)
with the twisted line class and weighs the integer pairings. The Adams
recurrence j*s_j = sum_m psi^m(ch E) s_{j-m} would need a series product
per (j, m) pair; the tests keep it as an independent oracle.

Newton's recurrence runs once over the packed graded components of the
class on integer numerators (``TruncatedSeries._newton``). The Chern
character sums the power sums p_k / k! over one common denominator. The
Todd class is Hirzebruch's multiplicative sequence exp(sum_k g_k p_k),
built in one graded pass (``TruncatedSeries._multiplicative_class``): p_k
is homogeneous of degree k, so the integer components of the power sums
feed the exp recurrence directly as the degree-k components g_k p_k of the
logarithm, and no power-sum series is built. Neither calls a series
inverse. The only caches here are the Todd logarithm's coefficients and
their integer form, per bound. The G_i of a model's cotangent sheaf, in
normal form, are cached on the model.
"""

from functools import lru_cache
from math import comb

from .exactalg import DomainError, Rational, TruncatedSeries, VarTable, _combine, _log_weights

__all__ = [
    "power_sums",
    "ch_from_chern",
    "todd_from_chern",
    "adams_rescale",
    "dual_ch",
    "sym_ch",
]


def _require_unit(c: TruncatedSeries, what: str):
    # the constant term is 1 exactly when its packed numerator equals the
    # series' denominator (both are in lowest terms)
    if c._num.get(0) != c._den:
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


@lru_cache(maxsize=None)
def _todd_log_weights(bound: int) -> tuple[int, tuple[int, ...]]:
    """``_todd_log_coeffs(bound)`` in the integer form the multiplicative
    class kernel takes."""
    return _log_weights(_todd_log_coeffs(bound))


def todd_from_chern(chern: TruncatedSeries) -> TruncatedSeries:
    """Todd class of the bundle with the given total Chern class.

    The multiplicative sequence exp(sum_k g_k p_k), where g is the
    logarithm of the single root factor x/(1 - e^(-x)) and p_k are the power
    sums of the roots; multiplicativity over sums of bundles is then
    automatic. It is built in one graded pass from the integer components of
    Newton's recurrence (``TruncatedSeries._multiplicative_class``).
    """
    _require_unit(chern, "total Chern class")
    return chern._multiplicative_class(_todd_log_weights(chern.bound))


def adams_rescale(ch: TruncatedSeries, m: int) -> TruncatedSeries:
    """Adams operation psi^m: multiply the degree-k component by m^k."""
    if not isinstance(m, int):
        raise DomainError("Adams index must be an integer")
    return ch._graded_scale(m)


def dual_ch(ch: TruncatedSeries) -> TruncatedSeries:
    """Chern character of the dual: psi^(-1)."""
    return adams_rescale(ch, -1)


def _rank_zero_sym(ch: TruncatedSeries, n: int, normal_form=None) -> list[TruncatedSeries]:
    """G_0..G_n, where G_i = h_i(z) is the i-th complete symmetric function
    of z_k = e^(x_k) - 1 over the roots x_k of the class whose Chern
    character is ``ch``; only the components of degree >= 1 are read.

    z_k has no constant term, so G_i has degree >= i and vanishes for
    i > bound. Newton's identity for complete symmetric functions gives
    G_0 = 1 and i G_i = sum_{m=1..i} p_m G_{i-m}, with p_m = sum_k z_k^m.
    Since (e^x - 1)^m = sum_k m! S(k, m) x^k / k!, with S the Stirling
    numbers of the second kind, p_m is ch with its degree-k component
    scaled by the number m! S(k, m) of surjections from k onto m; it is 0
    below degree m and on the constant term, so no Adams operation is
    needed.

    ``normal_form``, when given, is applied to each G_i as it is built, so
    every product multiplies reduced classes. It must be a linear map that
    keeps degree and respects products, as a model's normal form does (its
    relations are homogeneous): the G_i then equal the normal forms of
    those built without it.
    """
    # surj[k] = m! S(k, m) for the current m, from m! S(k, m) =
    # m (m-1)! S(k-1, m-1) + m m! S(k-1, m)
    surj = [1] + [0] * ch.bound
    p: list = [None]
    for m in range(1, n + 1):
        prev = surj
        surj = [0] * (ch.bound + 1)
        for k in range(m, ch.bound + 1):
            surj[k] = m * (prev[k - 1] + surj[k - 1])
        p.append(ch._graded_weigh(surj))
    g = [TruncatedSeries.one(ch.vars, ch.bound)]
    for i in range(1, n + 1):
        inv = Rational(1, i)
        gi = _combine(ch, [(inv, p[i])] + [(inv, p[m] * g[i - m]) for m in range(1, i)])
        g.append(gi if normal_form is None else normal_form(gi))
    return g


@lru_cache(maxsize=None, typed=True)
def _sym_weights(r, j: int, n: int) -> tuple:
    """C(r + j - 1, j - i) for i = 0..min(j, n): s_j = sum_i of these times
    G_i (``_rank_zero_sym``). The binomial is a polynomial in the rank r,
    evaluated by C(x, k + 1) = C(x, k) (x - k) / (k + 1), an exact integer
    division when r is an integer. Built once per (r, j, n), as
    ``grrcheck.main_combo`` is: the weights are immutable. The cache is
    typed, so an int rank never reads weights built for an equal Rational."""
    x = r + j - 1
    out = [1]
    for k in range(j):
        c = out[-1] * (x - k)
        out.append(c // (k + 1) if type(c) is int else c / (k + 1))
    return tuple(out[::-1][: n + 1])


def sym_ch(ch: TruncatedSeries, j: int) -> TruncatedSeries:
    """Chern character of the j-th symmetric power Sym^j.

    Write ch = r + sum_k (e^(x_k) - 1) with z_k = e^(x_k) - 1. Each factor
    1/(1 - t e^x) of the generating identity in the module docstring is
    (1 - t)^(-1) / (1 - u z) with u = t/(1 - t), so
    sum_j s_j t^j = sum_i t^i (1 - t)^(-r-i) G_i with G_i = h_i(z), and

        s_j = sum_{i=0..min(j, bound)} C(r + j - 1, j - i) G_i:

    the sigma-analogue of the gamma operations gamma_t = lambda_(t/(1-t))
    (Atiyah, K-Theory, 1967; Fulton & Lang, Riemann-Roch Algebra, 1985,
    ch. I and III). The G_i come from ``_rank_zero_sym`` and the weights
    from ``_sym_weights``; the sum is one ``_combine``, with no further
    product.

    For a line bundle with ch = e^a, s_j = e^(j*a):

    >>> vt = VarTable([("a", 1)])
    >>> a = TruncatedSeries.gen(vt, 3, "a")
    >>> ch = a.exp()
    >>> all(sym_ch(ch, j) == (a * j).exp() for j in range(5))
    True
    """
    if j < 0:
        raise DomainError("symmetric power degree must be >= 0")
    n = min(j, ch.bound)
    r = ch.constant_term
    if r.denominator == 1:
        r = int(r)  # integer binomials
    return _combine(ch, zip(_sym_weights(r, j, n), _rank_zero_sym(ch, n)))
