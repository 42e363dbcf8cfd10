"""Integer coefficient combinatorics for the power-identity tables.

Two families of exact integer data drive everything downstream:

* ``pk_poly(k)``: the polynomial P_k(t) = sum_{i=0}^{k} 2^(k-i) (2-t)^i,
  which satisfies t*P_k(t) = 2^(k+1) - (2-t)^(k+1) for every k >= 0.
  ``pk_identity_check(k)`` verifies that identity by expanding its two
  sides on independent routes: the left side is t times ``pk_poly``, the
  sum built by repeated multiplication by 2 - t; the right side comes
  from the binomial theorem, coefficient j of (2-t)^(k+1) being
  C(k+1, j) 2^(k+1-j) (-1)^j, each formed from the one before by the
  ratio of consecutive terms. Neither side is derived from the other and
  they share no power table, so a faster expansion of one side cannot
  turn the check into a tautology.
* ``coeff_table(d)``: the exponent table c_j = sum_{i=j}^{2d} 2^(2d-i)
  (-1)^j C(i,j), j = 0..2d, whose alternating entries sum to 2^(2d)
  and whose leading entry is 1.

All arithmetic uses unbounded Python integers; nothing is floated.
"""

from math import comb

from ._record import record
from .exactalg import DomainError

__all__ = [
    "DomainError",
    "CoeffTable",
    "pk_poly",
    "pk_identity_check",
    "coeff_table",
    "MAX_COEFF_DIM",
    "MAX_POLYID_K",
    "binomial_expansion_check",
]


# Largest k of the polyid sweep (CLI ``polyid --max-k``). The carried P_k
# and the term-ratio binomial expansion make both sides cost about K^2
# integer operations in all; --max-k 256 takes about 0.08 s on a 2-core host.
MAX_POLYID_K = 256

# The last P_k built, as (k, coefficients), kept only for k <= MAX_POLYID_K:
# a sweep k = 0, 1, 2, ... then costs one step of the recurrence per k. Only
# the cost of pk_poly depends on it, never the result.
_carried_pk: tuple[int, tuple[int, ...]] = (0, (1,))


def pk_poly(k: int) -> tuple[int, ...]:
    """P_k(t) = sum_{i=0}^{k} 2^(k-i) (2-t)^i as its coefficient tuple
    (index = degree; the leading coefficient (-1)^k is never zero).

    The sum is evaluated in nested form, P_i = 2^i + (2-t) P_{i-1} from
    P_0 = 1, on plain integer tuples: multiplying p by 2 - t gives
    q[j] = 2 p[j] - p[j-1]. The recurrence resumes from the last P_k built
    when that k is not larger than the one asked for.

    >>> pk_poly(1)
    (4, -1)
    """
    global _carried_pk
    if type(k) is not int or k < 0:
        raise DomainError("k must be a nonnegative integer")
    start, p = _carried_pk if _carried_pk[0] <= k else (0, (1,))
    for i in range(start + 1, k + 1):
        p = (2**i + 2 * p[0], *(2 * p[j] - p[j - 1] for j in range(1, len(p))), -p[-1])
    if k <= MAX_POLYID_K:
        _carried_pk = (k, p)
    return p


def pk_identity_check(k: int) -> bool:
    """True iff t*P_k(t) == 2^(k+1) - (2-t)^(k+1) as integer polynomials.

    The two sides are expanded on independent routes. The left side is t
    times ``pk_poly(k)``, the sum built by repeated products by 2 - t.
    The right side is 2^(k+1) minus (2-t)^(k+1) expanded by the binomial
    theorem: its coefficient b_j = -C(k+1, j) 2^(k+1-j) (-1)^j comes from
    b_0 = -2^(k+1) by the term ratio b_(j+1) = -b_j (k+1-j) / (2 (j+1)),
    a division that is always exact.
    """
    if type(k) is not int or k < 0:
        raise DomainError("k must be a nonnegative integer")
    n = k + 1
    lhs = (0,) + pk_poly(k)
    rhs = [-(2**n)]
    for j in range(n):
        rhs.append(-rhs[j] * (n - j) // (2 * (j + 1)))
    rhs[0] += 2**n
    return lhs == tuple(rhs)


@record
class CoeffTable:
    """Validated exponent table for a relative dimension d >= 1.

    entries[j] = c_j for j = 0..2d. Construction enforces the three
    structural facts every table must satisfy: the leading entry is 1,
    the signs alternate starting positive, and the entries sum to 2^(2d).
    """

    dim: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        d = self.dim
        if d < 1:
            raise DomainError("dim must be >= 1")
        if len(self.entries) != 2 * d + 1:
            raise DomainError("table must have 2d+1 entries")
        if self.entries[-1] != 1:
            raise DomainError("leading entry must be 1")
        if sum(self.entries) != 2 ** (2 * d):
            raise DomainError("entries must sum to 2^(2d)")
        for j, c in enumerate(self.entries):
            if c == 0 or (c > 0) != (j % 2 == 0):
                raise DomainError("entry signs must alternate, starting positive")

    @property
    def lhs_exponent(self) -> int:
        """Exponent 2^(2d+2) carried by the left-hand side."""
        return 2 ** (2 * self.dim + 2)

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "lhs_exponent": str(self.lhs_exponent),
            "entries": [str(c) for c in self.entries],
        }


# Largest d for coeff_table: the double sum costs about d^3 big-integer
# operations, and ``coeffs --dim 256`` takes about a second on a 2-core host.
MAX_COEFF_DIM = 256


def coeff_table(d: int) -> CoeffTable:
    """The exponent table c_j = sum_{i=j}^{2d} 2^(2d-i) (-1)^j C(i,j).

    The degenerate case d = 0 is rejected: the table would collapse to a
    single entry and the statement it encodes changes kind.

    >>> coeff_table(1).entries
    (7, -4, 1)
    """
    if type(d) is not int or d < 1:
        raise DomainError("d must be an integer >= 1 (d = 0 collapses the table)")
    if d > MAX_COEFF_DIM:
        raise DomainError(f"d = {d} exceeds the ceiling MAX_COEFF_DIM = {MAX_COEFF_DIM}")
    entries = [
        sum(2 ** (2 * d - i) * (-1) ** j * comb(i, j) for i in range(j, 2 * d + 1))
        for j in range(2 * d + 1)
    ]
    return CoeffTable(d, tuple(entries))


def binomial_expansion_check(d: int) -> bool:
    """Cross-check of the table by a second expansion route.

    Expanding sum_i 2^(2d-i) (1-u)^i in powers of u must reproduce the
    double-sum table entry by entry; this exercises the binomial expansion
    of the virtual block instead of the direct double sum.
    """
    if type(d) is not int or d < 1:
        raise DomainError("d must be an integer >= 1")
    n = 2 * d
    acc = [0] * (n + 1)
    p = [1]  # (1-u)^i, coefficient list
    for i in range(n + 1):
        for j, c in enumerate(p):
            acc[j] += 2 ** (n - i) * c
        p = [a - b for a, b in zip(p + [0], [0] + p)]
    return tuple(acc) == coeff_table(d).entries
