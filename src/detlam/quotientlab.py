"""Sign involutions on graded polynomial algebras.

A ``GradedAlgebra`` is a free commutative polynomial algebra whose
variables carry a positive internal degree and a parity in {0, 1}; the
involution negates the odd-parity variables. The invariant subalgebra R0
is spanned by the monomials of even total parity, and its Hilbert series
is the average of the plain series with the sign-twisted one.

Both series are built on an integer coefficient list c_0..c_bound, starting
from c = 1. Dividing by 1 - s*t^d (one variable of degree d, with s = -1 for
an odd variable in the sign-twisted series and s = +1 otherwise) is the
recurrence c_n += s*c_{n-d}, run in place for n = d..bound in increasing
order, so c_{n-d} is already divided when it is read. The window never
exceeds ``MAX_BOUND``; a larger bound is a ``DomainError`` raised before any
list is allocated.

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
"""

import re
from dataclasses import dataclass
from itertools import combinations

from .exactalg import DomainError, Rational, StructureError, TruncatedSeries, VarTable

__all__ = [
    "GradedAlgebra",
    "FixedIdeal",
    "FlatnessReport",
    "hilbert_series",
    "signed_hilbert_series",
    "invariants_hs",
    "series_coefficients",
    "fixed_ideal",
    "conormal_degree_zero",
    "flatness_verdict",
    "quotient_report",
    "DEFAULT_BOUND",
    "MAX_BOUND",
]

DEFAULT_BOUND = 40
# Ceiling on the series window. The division and the series inverse are
# quadratic in the bound; the slowest 4-variable algebras measured at the
# ceiling take 1.6-1.8 s on a 2-core host.
MAX_BOUND = 500

_NAME = re.compile(r"[A-Za-z_]\w*\Z")
_T = VarTable(("t",))


@dataclass(frozen=True)
class GradedAlgebra:
    """Free polynomial algebra on (name, degree, parity) variables."""

    variables: tuple

    def __post_init__(self):
        raw = tuple(self.variables)
        if not raw:
            raise StructureError("need at least one variable")
        seen = set()
        vars_ = []
        for rec in raw:
            try:
                name, degree, parity = rec
            except (TypeError, ValueError):
                raise StructureError(f"bad variable record {rec!r}") from None
            if not isinstance(name, str) or not _NAME.match(name):
                raise StructureError(f"bad variable name {name!r}")
            if not isinstance(degree, int) or degree < 1:
                raise StructureError(f"bad degree for {name!r}")
            if parity not in (0, 1):
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
            try:
                degree = int(deg_s)
            except ValueError:
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


def _divided_hs(algebra: GradedAlgebra, bound: int, signed: bool) -> TruncatedSeries:
    """1 / prod(1 - s_v t^d_v) over the variables v, with s_v = -1 for an odd
    variable when ``signed`` and +1 otherwise, by in-place division."""
    if bound > MAX_BOUND:
        raise DomainError(f"bound {bound} exceeds the ceiling MAX_BOUND = {MAX_BOUND}")
    coeffs = [1] + [0] * bound
    for _name, degree, parity in algebra.variables:
        sign = -1 if signed and parity else 1
        for n in range(degree, bound + 1):
            coeffs[n] += sign * coeffs[n - degree]
    return TruncatedSeries(_T, bound, {(n,): c for n, c in enumerate(coeffs)})


def hilbert_series(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> TruncatedSeries:
    """Hilbert series of the full polynomial algebra."""
    return _divided_hs(algebra, bound, signed=False)


def signed_hilbert_series(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> TruncatedSeries:
    """Trace series of the involution: odd variables contribute 1/(1+t^d)."""
    return _divided_hs(algebra, bound, signed=True)


def invariants_hs(
    algebra: GradedAlgebra, bound: int = DEFAULT_BOUND, hs: TruncatedSeries | None = None
) -> TruncatedSeries:
    """Hilbert series of the even-parity subalgebra R0: the average of the
    plain series of R and the sign-twisted series. A caller that has already
    built the plain series at this bound passes it as ``hs``."""
    if hs is None:
        hs = hilbert_series(algebra, bound)
    return (hs + signed_hilbert_series(algebra, bound)).scale(Rational(1, 2))


def series_coefficients(series: TruncatedSeries) -> list[int]:
    """Integer coefficient list [c_0, ..., c_bound]; rejects non-integers."""
    out = []
    for k in range(series.bound + 1):
        c = series.coefficient((k,))
        if c.denominator != 1:
            raise DomainError(f"non-integer coefficient at degree {k}")
        out.append(int(c))
    return out


@dataclass(frozen=True)
class FixedIdeal:
    generators: tuple
    cartier: bool
    fixed_locus_is_everything: bool


def fixed_ideal(algebra: GradedAlgebra) -> FixedIdeal:
    """Generators of the ideal cut out by the non-invariant part."""
    gens = tuple(name for name, _d, p in algebra.variables if p == 1)
    return FixedIdeal(gens, len(gens) == 1, len(gens) == 0)


def conormal_degree_zero(algebra: GradedAlgebra) -> bool:
    """True when the parity-0 part of the conormal module vanishes.

    Requires a Cartier fixed ideal; its single generator x spans (x)/(x^2),
    and the parity of that generator decides the claim.
    """
    fi = fixed_ideal(algebra)
    if not fi.cartier:
        raise DomainError("conormal grading needs a Cartier fixed ideal")
    (name,) = fi.generators
    parity = next(p for n, _d, p in algebra.variables if n == name)
    return parity == 1


@dataclass(frozen=True)
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


def _series_pair(algebra: GradedAlgebra, bound: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The Hilbert series of R and of R0 at a checked bound, each built once."""
    if not isinstance(bound, int) or bound < 1:
        raise DomainError("bound must be a positive int")
    hs = hilbert_series(algebra, bound)
    return hs, invariants_hs(algebra, bound, hs)


def flatness_verdict(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> FlatnessReport:
    """Decide freeness of R over R0 by exact series division."""
    return _verdict(algebra, bound, *_series_pair(algebra, bound))


def _verdict(
    algebra: GradedAlgebra, bound: int, hs: TruncatedSeries, inv: TruncatedSeries
) -> FlatnessReport:
    """``flatness_verdict`` from the Hilbert series ``hs`` of R and ``inv``
    of R0."""
    ratio = hs * inv.inverse()
    coeffs = tuple(series_coefficients(ratio))

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

    basis = _candidate_basis(algebra)
    cap = sum(d for _n, d, _p in algebra.odd_variables)
    candidate = TruncatedSeries.from_terms(
        _T, bound, (((deg,), 1) for deg, _label in basis)
    )
    defect = candidate * inv - hs
    if defect.is_zero() and 2 * cap < bound:
        return FlatnessReport(
            "FREE",
            bound,
            coeffs,
            tuple(label for _deg, label in basis),
            None,
            True,
            "candidate basis reproduces the Hilbert series; the window "
            "exceeds twice the total odd degree, forcing the identity",
        )
    if defect.is_zero():
        note = "window too small to certify the candidate basis"
    else:
        note = "candidate basis does not match inside the window"
    return FlatnessReport("INCONCLUSIVE", bound, coeffs, None, None, False, note)


def quotient_report(algebra: GradedAlgebra, bound: int = DEFAULT_BOUND) -> dict:
    """Full JSON-ready verdict for one algebra."""
    fi = fixed_ideal(algebra)
    hs, inv = _series_pair(algebra, bound)
    rep = _verdict(algebra, bound, hs, inv)
    return {
        "variables": [list(v) for v in algebra.variables],
        "bound": bound,
        "hs_R": series_coefficients(hs),
        "hs_R0": series_coefficients(inv),
        "ratio": list(rep.ratio_coeffs),
        "verdict": rep.verdict,
        "basis": list(rep.basis) if rep.basis is not None else None,
        "cartier": fi.cartier,
        "conormal_degree_zero": conormal_degree_zero(algebra) if fi.cartier else None,
        "witness": rep.witness,
        "note": rep.note,
    }
