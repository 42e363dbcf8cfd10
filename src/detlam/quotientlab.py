"""Sign involutions on graded polynomial algebras.

A ``GradedAlgebra`` is a free commutative polynomial algebra whose
variables carry a positive internal degree and a parity in {0, 1}; the
involution negates the odd-parity variables. The invariant subalgebra R0
is spanned by the monomials of even total parity, and its Hilbert series
is the average of the plain series with the sign-twisted one.

Every series here is a list of integer coefficients c_0..c_bound. The plain
and the sign-twisted series start from c = 1. Dividing by 1 - s*t^d (one
variable of degree d, with s = -1 for an odd variable in the sign-twisted
series and s = +1 otherwise) is the recurrence c_n += s*c_{n-d}, run in
place for n = d..bound in increasing order, so c_{n-d} is already divided
when it is read. Their sum is even term by term (the two series differ by
twice the count of odd-parity monomials), so the series of R0 is the sum
halved exactly; an odd term is an error, never rounded. The window never
exceeds ``MAX_BOUND``; a larger bound is a ``DomainError`` raised before any
list is allocated. A bound that is not an int (a bool is not one) or is too
small is a ``StructureError``, from the one check every entry point runs. An
algebra has at most ``MAX_VARIABLES`` variables.

``flatness_verdict`` decides whether R is a free R0-module by exact
power-series division inside a finite window:

* a negative coefficient of HS_R / HS_{R0} strictly inside the window
  disproves freeness for any homogeneous basis (NOT-FREE);
* if the squarefree-odd-monomial candidate basis reproduces HS_R
  multiplicatively and the window extends past twice the total odd degree,
  the rational-function identity is forced and the basis is certified
  (FREE);
* otherwise the window is too small to decide (INCONCLUSIVE), which is
  reported rather than guessed.

The ratio r = HS_R / HS_{R0} is one exact division, read from the odd
degrees alone. Multiplying both series by the unit Q = prod_v (1 - t^d_v) *
prod_{v odd} (1 + t^d_v) (constant term 1) leaves the ratio unchanged. Each
1 - t^d cancels its 1/(1 - t^d), so Q HS_R = P := prod_odd (1 + t^d). In the
sign-twisted series an odd variable contributes 1/(1 + t^d), so Q times it is
M := prod_odd (1 - t^d). So Q HS_{R0} = (P + M) / 2 and r = 2P / (P + M): R is
R_even (x) R_odd, the involution fixes R_even, and the even variables cancel.
Truncation commutes with multiplication by a polynomial, so both identities
hold inside the window. P and M are folded from 1 in lists of length
min(bound, D) + 1, D the total odd degree: multiplying a list by 1 + s*t^d
(s = +1 or -1) is c_n += s*c_{n-d} for n from the top down to d, so c_{n-d}
still holds the value before this factor. The division
r_n = num_n - sum_k den_k r_{n-k} runs over 1 <= k <= K, K <= D the last k
with den_k nonzero, each inner sum one ``sum(map(mul, ...))`` in C, so a
verdict takes time linear in the window while D is small against it (when D
reaches the window, as long as a dense division). den_0 = 1, so the division
divides by no coefficient and every r_n is an integer; it is exact for any
integer lists with den_0 = 1 (Knuth, The Art of Computer Programming, vol.
2, section 4.7). The short divisor makes it fast, not correct. (P + M) / 2
sums t^(degree sum) over the even-size subsets of the odd variables, so with
at most one odd variable it is 1 (K = 0; also when every two odd degrees sum
past the window), and the division returns the numerator with no pass over
the window: the reflection case, where R is free over R0.

The ratio alone decides NOT-FREE, so a NOT-FREE verdict builds no Hilbert
series. HS_R and HS_{R0} serve only the defect test below, which certifies
FREE, and ``quotient_report``, which prints them and hands them to the one
verdict path.

The candidate basis has the Hilbert series prod(1 + t^d_v) over the odd
variables v. The defect test folds those factors one at a time into a copy
of HS_{R0} and compares the truncated product with HS_R. It never reads the
ratio, so a FREE verdict is checked by multiplication, apart from the
division. The basis labels, one per subset of the odd variables, are listed
only for a FREE verdict; R is free over R0 only when R0 is a polynomial ring,
which for a sign involution means at most one odd variable (Stanley,
"Invariants of finite groups and their applications to combinatorics",
Bull. AMS 1, 1979, sections 3-4).
"""

import re
from itertools import combinations
from operator import add, mul

from ._record import record
from .exactalg import DomainError, StructureError

__all__ = [
    "GradedAlgebra",
    "FlatnessReport",
    "hilbert_series",
    "signed_hilbert_series",
    "invariants_hs",
    "flatness_verdict",
    "quotient_report",
    "DEFAULT_BOUND",
    "MAX_BOUND",
    "MAX_VARIABLES",
]

DEFAULT_BOUND = 40
# Ceilings on the series window and the variable count, measured together
# with `detlam quotient` (JSON output, 2-core host, 5 runs each): the slowest
# algebras found at both ceilings, 64 odd variables of degrees 1-40, whose
# divisor is as long as the window, take 0.38-0.51 s; 64 variables of degree
# 1-2, 60 of them odd, take 0.24-0.28 s; 4- and 8-variable algebras at bound
# 1,500 take 0.08-0.12 s, mostly interpreter start-up. Time would allow a
# larger window, but the ratio's coefficients grow geometrically, faster with
# more odd variables: at both ceilings the largest (64 odd variables of
# degree 1) has about 2,400 digits, and doubling the bound would take it to
# about 4,800, past the 4,300 that Python converts to text by default for the
# JSON output.
MAX_BOUND = 1500
MAX_VARIABLES = 64

_NAME = re.compile(r"[A-Za-z_]\w*\Z")


@record
class GradedAlgebra:
    """Free polynomial algebra on (name, degree, parity) variables."""

    variables: tuple

    def __post_init__(self):
        raw = tuple(self.variables)
        if not raw:
            raise StructureError("need at least one variable")
        if len(raw) > MAX_VARIABLES:
            raise StructureError(
                f"{len(raw)} variables exceed the ceiling MAX_VARIABLES = {MAX_VARIABLES}"
            )
        seen = set()
        vars_ = []
        for rec in raw:
            try:
                name, degree, parity = rec
            except (TypeError, ValueError):
                raise StructureError(f"bad variable record {rec!r}") from None
            if not isinstance(name, str) or not _NAME.match(name):
                raise StructureError(f"bad variable name {name!r}")
            # a bool is an int to isinstance, and True == 1; neither may
            # reach a report as "true"
            if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
                raise StructureError(f"bad degree for {name!r}")
            if isinstance(parity, bool) or not isinstance(parity, int) or parity not in (0, 1):
                raise StructureError(f"bad parity for {name!r}")
            if name in seen:
                raise StructureError(f"duplicate variable {name!r}")
            seen.add(name)
            vars_.append((name, degree, parity))
        object.__setattr__(self, "variables", tuple(vars_))

    @property
    def odd_variables(self) -> tuple:
        return tuple(v for v in self.variables if v[2] == 1)

    @classmethod
    def from_spec(cls, text: str) -> "GradedAlgebra":
        """Parse ``"x:1:odd,y:2:even"`` (parities also accepted as 0/1)."""
        variables = []
        for chunk in str(text).split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 3:
                raise StructureError(f"bad variable spec {chunk!r}")
            name, deg_s, par_s = (p.strip() for p in parts)
            # ASCII digits only: int() would also read "1_0", "+3" and
            # non-ASCII digits
            if not (deg_s.isascii() and deg_s.isdigit()):
                raise StructureError(f"bad degree in {chunk!r}")
            try:
                degree = int(deg_s)
            except ValueError:  # past Python's int-from-text digit limit
                raise StructureError(f"bad degree in {chunk!r}") from None
            key = par_s.lower()
            if key in ("odd", "1"):
                parity = 1
            elif key in ("even", "0"):
                parity = 0
            else:
                raise StructureError(f"bad parity in {chunk!r}")
            variables.append((name, degree, parity))
        return cls(tuple(variables))


def _check_bound(bound, least: int) -> None:
    """The one check of a window bound: an int (a bool is not one) of at
    least ``least``, else a ``StructureError``, and at most ``MAX_BOUND``,
    else a ``DomainError``. The type is checked first, so a bad value never
    reaches the comparisons."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < least:
        kind = "positive" if least else "nonnegative"
        raise StructureError(f"bound must be a {kind} int, got {bound!r}")
    if bound > MAX_BOUND:
        raise DomainError(f"bound {bound} exceeds the ceiling MAX_BOUND = {MAX_BOUND}")


def _divided_hs(algebra: GradedAlgebra, bound: int, signed: bool) -> list[int]:
    """1 / prod(1 - s_v t^d_v) over the variables v, with s_v = -1 for an odd
    variable when ``signed`` and +1 otherwise, by in-place division."""
    _check_bound(bound, 0)
    coeffs = [1] + [0] * bound
    for _name, degree, parity in algebra.variables:
        sign = -1 if signed and parity else 1
        for n in range(degree, bound + 1):
            coeffs[n] += sign * coeffs[n - degree]
    return coeffs


def hilbert_series(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> list[int]:
    """Hilbert series of the full polynomial algebra, c_0..c_bound."""
    return _divided_hs(algebra, bound, signed=False)


def signed_hilbert_series(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> list[int]:
    """Trace series of the involution: odd variables contribute 1/(1+t^d)."""
    return _divided_hs(algebra, bound, signed=True)


def invariants_hs(
    algebra: GradedAlgebra, bound: int = DEFAULT_BOUND, hs: list[int] | None = None
) -> list[int]:
    """Hilbert series of the even-parity subalgebra R0: the average of the
    plain series of R and the sign-twisted series. A caller that has already
    built the plain series at this bound passes it as ``hs``."""
    if hs is None:
        hs = hilbert_series(algebra, bound)
    total = list(map(add, hs, signed_hilbert_series(algebra, bound)))
    if any(c % 2 for c in total):
        raise DomainError("the plain and signed series differ by an odd coefficient")
    return [c // 2 for c in total]


@record
class FlatnessReport:
    verdict: str
    bound: int
    ratio_coeffs: tuple
    basis: tuple | None
    witness: dict | None
    certified: bool
    note: str


def _candidate_basis(algebra: GradedAlgebra) -> list[tuple[int, str]]:
    """Squarefree odd monomials as (degree, label), degree-then-label order."""
    odd = algebra.odd_variables
    out = []
    for r in range(len(odd) + 1):
        for subset in combinations(odd, r):
            degree = sum(d for _n, d, _p in subset)
            label = "*".join(n for n, _d, _p in subset) if subset else "1"
            out.append((degree, label))
    out.sort()
    return out


def _series_pair(algebra: GradedAlgebra, bound: int) -> tuple[list[int], list[int]]:
    """The Hilbert series of R and of R0 at a checked bound, each built once."""
    _check_bound(bound, 1)
    hs = hilbert_series(algebra, bound)
    return hs, invariants_hs(algebra, bound, hs)


def flatness_verdict(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> FlatnessReport:
    """Decide freeness of R over R0 by exact series division."""
    return _verdict(algebra, bound, None)


def _fold(coeffs: list[int], degree: int, sign: int) -> None:
    """Multiply c_0..c_top in place by 1 + sign*t^degree, highest n first."""
    for n in range(len(coeffs) - 1, degree - 1, -1):
        coeffs[n] += sign * coeffs[n - degree]


def _divide(num: list[int], den: list[int]) -> tuple:
    """The truncated quotient num / den of integer lists with ``den[0] == 1``:
    r_n = num_n - sum den_k r_{n-k} over 1 <= k <= K, K the last k with
    den_k nonzero. The taps den_K..den_1 meet the K newest r, behind K
    leading zeros, in one ``sum(map(mul, ...))``, so the inner sum runs in C.
    The quotient is the ratio that decides NOT-FREE with no Hilbert series
    built; those serve only the FREE certification and the report. With no
    tap left (K = 0) the divisor is 1 and the numerator is returned as it is.
    """
    k = len(den) - 1
    while k and not den[k]:
        k -= 1
    if not k:
        return tuple(num)
    taps = den[k:0:-1]
    ratio = [0] * k
    for n, c in enumerate(num):
        ratio.append(c - sum(map(mul, taps, ratio[n:])))
    return tuple(ratio[k:])


def _verdict(algebra: GradedAlgebra, bound: int, series) -> FlatnessReport:
    """``flatness_verdict`` at ``bound``. The ratio reads the odd degrees
    only, since the even variables cancel: it is 2P / (P + M) with P =
    prod_odd (1 + t^d) and M = prod_odd (1 - t^d), both truncated to the
    window, and a negative coefficient decides NOT-FREE before any Hilbert
    series is built. ``series`` is the pair (HS_R, HS_{R0}), c_0..c_bound,
    of a caller that has built it, else None; the defect test, the only
    reader, builds it then."""
    _check_bound(bound, 1)
    cap = sum(d for _n, d, _p in algebra.odd_variables)
    plus = [1] + [0] * min(bound, cap)
    minus = plus[:]
    for _name, degree, _parity in algebra.odd_variables:
        _fold(plus, degree, 1)
        _fold(minus, degree, -1)
    den = [(p + m) // 2 for p, m in zip(plus, minus)]
    coeffs = _divide(plus + [0] * (bound + 1 - len(plus)), den)

    for k in range(bound):
        if coeffs[k] < 0:
            return FlatnessReport(
                "NOT-FREE",
                bound,
                coeffs,
                None,
                {"degree": k, "coefficient": coeffs[k]},
                True,
                "a free module's ratio series has the basis degrees as "
                "non-negative coefficients",
            )

    hs, inv = series or _series_pair(algebra, bound)
    product = inv[:]
    for _name, degree, _parity in algebra.odd_variables:
        _fold(product, degree, 1)
    matches = product == hs
    if matches and 2 * cap < bound:
        return FlatnessReport(
            "FREE",
            bound,
            coeffs,
            tuple(label for _deg, label in _candidate_basis(algebra)),
            None,
            True,
            "candidate basis reproduces the Hilbert series; the window "
            "exceeds twice the total odd degree, forcing the identity",
        )
    if matches:
        note = "window too small to certify the candidate basis"
    else:
        note = "candidate basis does not match inside the window"
    return FlatnessReport("INCONCLUSIVE", bound, coeffs, None, None, False, note)


def quotient_report(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> dict:
    """Full JSON-ready verdict for one algebra."""
    hs, inv = series = _series_pair(algebra, bound)
    rep = _verdict(algebra, bound, series)
    return {
        "variables": [list(v) for v in algebra.variables],
        "bound": bound,
        "hs_R": hs,
        "hs_R0": inv,
        "ratio": list(rep.ratio_coeffs),
        "verdict": rep.verdict,
        "basis": list(rep.basis) if rep.basis is not None else None,
        # the fixed ideal, generated by the odd variables, is principal
        "cartier": len(algebra.odd_variables) == 1,
        "witness": rep.witness,
        "note": rep.note,
    }
