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
re-running the recurrence for each degree. Nothing is cached across calls.
"""

from functools import lru_cache

from .exactalg import DomainError, Rational, TruncatedSeries, VarTable

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
    p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(k-1-i) e_{k-i} p_i.
    """
    _require_unit(chern, "total Chern class")
    bound = chern.bound
    e = [chern.component(k) for k in range(bound + 1)]
    p = [TruncatedSeries.zero(chern.vars, bound)]
    for k in range(1, bound + 1):
        acc = e[k] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + e[k - i] * p[i] * ((-1) ** (k - 1 - i))
        p.append(acc)
    return p


def ch_from_chern(rank: int, chern: TruncatedSeries) -> TruncatedSeries:
    """Chern character: rank + sum_{k>=1} p_k / k!."""
    p = power_sums(chern)
    out = TruncatedSeries.constant(chern.vars, chern.bound, rank)
    fact = 1
    for k in range(1, chern.bound + 1):
        fact *= k
        out = out + p[k] / fact
    return out


@lru_cache(maxsize=None)
def _todd_log_coeffs(bound: int) -> tuple[Rational, ...]:
    """Coefficients g_k with log(x / (1 - e^(-x))) = sum g_k x^k.

    Uses g' = t' * (1/t) where 1/t = (1 - e^(-x))/x is known termwise
    from factorials, avoiding a general series logarithm.
    """
    vt = VarTable([("x", 1)])
    fact = [1]
    for k in range(1, bound + 3):
        fact.append(fact[-1] * k)
    inv_t = TruncatedSeries.from_terms(
        vt, bound, [((n,), Rational((-1) ** n, fact[n + 1])) for n in range(bound + 1)]
    )
    t = inv_t.inverse()
    t_prime = TruncatedSeries.from_terms(
        vt, bound, [((k - 1,), c * k) for (k,), c in t.terms.items() if k]
    )
    g_prime = t_prime * inv_t
    return tuple(
        g_prime.coefficient((k - 1,)) / k for k in range(1, bound + 1)
    )


def todd_from_chern(chern: TruncatedSeries) -> TruncatedSeries:
    """Todd class of the bundle with the given total Chern class.

    Computed as exp(sum_k g_k p_k) where g is the logarithm of the single
    root factor x/(1 - e^(-x)); multiplicativity over sums of bundles is
    then automatic.
    """
    p = power_sums(chern)
    g = _todd_log_coeffs(chern.bound)
    acc = TruncatedSeries.zero(chern.vars, chern.bound)
    for k in range(1, chern.bound + 1):
        acc = acc + p[k] * g[k - 1]
    return acc.exp()


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
