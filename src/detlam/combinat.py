"""Integer coefficient combinatorics for the power-identity tables.

Two families of exact integer data drive everything downstream:

* ``pk_poly(k)``: the polynomial P_k(t) = sum_{i=0}^{k} 2^(k-i) (2-t)^i,
  which satisfies t*P_k(t) = 2^(k+1) - (2-t)^(k+1) for every k >= 0.
  ``pk_identity_check(k)`` verifies that identity by expanding its two
  sides on independent routes: the left side is t times ``pk_poly``, the
  sum built by repeated multiplication by 2 - t; the right side comes
  from the binomial theorem, coefficient j of (2-t)^(k+1) being
  C(k+1, j) 2^(k+1-j) (-1)^j. Neither side is derived from the other and
  they share no power table, so a faster expansion of one side cannot
  turn the check into a tautology.
* ``coeff_table(d)``: the exponent table c_j = sum_{i=j}^{2d} 2^(2d-i)
  (-1)^j C(i,j), j = 0..2d, whose alternating entries sum to 2^(2d)
  and whose leading entry is 1.

All arithmetic uses unbounded Python integers; nothing is floated.
"""

from dataclasses import dataclass
from math import comb

from .exactalg import DomainError

__all__ = [
    "DomainError",
    "IntPoly",
    "CoeffTable",
    "pk_poly",
    "pk_identity_check",
    "coeff_table",
    "binomial_expansion_check",
]


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate integer polynomial; index = degree, trailing zeros trimmed."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly(
            tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
        )

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * x for x in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


def pk_poly(k: int) -> IntPoly:
    """P_k(t) = sum_{i=0}^{k} 2^(k-i) (2-t)^i.

    The sum is evaluated in nested form, P_i = 2^i + (2-t) P_{i-1} from
    P_0 = 1, on a plain integer list: multiplying p by 2 - t gives
    q[j] = 2 p[j] - p[j-1]. One IntPoly is built at the end.

    >>> pk_poly(1).coeffs
    (4, -1)
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    p = [1]
    for i in range(1, k + 1):
        p = [2**i + 2 * p[0]] + [2 * p[j] - p[j - 1] for j in range(1, len(p))] + [-p[-1]]
    return IntPoly(tuple(p))


def pk_identity_check(k: int) -> bool:
    """True iff t*P_k(t) == 2^(k+1) - (2-t)^(k+1) as integer polynomials.

    The two sides are expanded on independent routes. The left side is t
    times ``pk_poly(k)``, the sum built by repeated products by 2 - t.
    The right side is 2^(k+1) minus (2-t)^(k+1) expanded by the binomial
    theorem, coefficient j being C(k+1, j) 2^(k+1-j) (-1)^j.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    n = k + 1
    lhs = (0,) + pk_poly(k).coeffs
    rhs = [-comb(n, j) * 2 ** (n - j) * (-1) ** j for j in range(n + 1)]
    rhs[0] += 2**n
    return lhs == tuple(rhs)


@dataclass(frozen=True)
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


def coeff_table(d: int) -> CoeffTable:
    """The exponent table c_j = sum_{i=j}^{2d} 2^(2d-i) (-1)^j C(i,j).

    The degenerate case d = 0 is rejected: the table would collapse to a
    single entry and the statement it encodes changes kind.

    >>> coeff_table(1).entries
    (7, -4, 1)
    """
    if d < 1:
        raise DomainError("d must be >= 1 (d = 0 collapses the table)")
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
    if d < 1:
        raise DomainError("d must be >= 1")
    one_minus_u = IntPoly((1, -1))
    acc = IntPoly()
    p = IntPoly((1,))
    for i in range(2 * d + 1):
        acc = acc + (2 ** (2 * d - i)) * p
        p = p * one_minus_u
    want = coeff_table(d).entries
    return tuple(acc.coefficient(j) for j in range(2 * d + 1)) == want and acc.degree == 2 * d
