"""First-Chern-class verification of the determinant-bundle identities.

The identity is checked in three settings. All read the terms
(coeff, twist, Sym degree) of ``main_combo(d)`` and take the Sym^j
characters of the cotangent sheaf from its rank-zero part, the classes
G_i = h_i(e^(x_k) - 1) of ``charclass._rank_zero_sym``:

* universal: the base-free check over the ring Q[l, a_1..a_d] truncated in
  degree d+1, where l is the first Chern class of the line bundle and a_i,
  of weight i, is the i-th Chern class of the relative cotangent sheaf.
  The weighted alternating combination of Chern characters, multiplied by
  the Todd class of the relative tangent sheaf, must vanish identically in
  degree d+1. Each twist's summands fold into one weighted sum of the G_i.
* on a model, one line at a time: for a family with one-dimensional base,
  the degree of the determinant of cohomology of F is the integral of
  ch(F) Td(T_f) over the total space, and the exponent identity is checked
  as exact integers.
  A line bundle L is a map from weight-one generators to int coefficients,
  and ch(L) = e^(c_1(L)) (Fulton, *Intersection Theory*, section 3.2) has
  one route, ``_line_ch``, shared by the three entry points: ``c1_lambda``
  and ``euler_char`` integrate ch(L), and ``verify_main_on_model`` also
  twists it to ch(L^2) = psi^2(ch(L)) (``charclass.adams_rescale``), the
  twist of every row of the right side. Every model degree is the one
  integral computed by ``_degree``, which also checks that it is an
  integer.
  ``_degree`` pairs a class with Td(T_f) by the top-degree intersection
  pairing (``ChowModel._pair``, on integer numerators): only the term
  pairs whose degrees add to the total dimension are multiplied, and
  nothing is reduced. The degree is linear, so ``verify_main_on_model``
  pairs ch(L^2) G_i once for each G_i of the cotangent sheaf
  (``ChowModel.cotangent_rank_zero``) and weighs the integer pairings
  into each row's degree.
* on a model, for every line at once: ``verify_main_all_lines`` pulls the
  universal statement back to the model. Each twist's terms fold into
  weights of the G_i, as in the universal check, and the defect of the line
  with coefficients a is a polynomial sum_alpha a^alpha / alpha! c_alpha
  over the monomials g^alpha in the weight-one generators, each c_alpha one
  top-degree pairing. The identity holds for every line bundle in the span
  of those generators exactly when every c_alpha is 0.

Integer lattice deductions about determinant classes (divisibility and
torsion consequences) are handled by Hermite-style integer row reduction,
with no division at any point; ``preset_relations`` reads its exponent
relation off ``main_combo(1)``.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from operator import mul

from ._record import record
from .charclass import _rank_zero_sym, _sym_weights
from .charclass import adams_rescale, ch_from_chern, todd_from_chern
from .chowmodel import ChowModel
from .combinat import coeff_table
from .exactalg import DomainError, Rational, TruncatedSeries, VarTable, _combine, _series

__all__ = [
    "ComboTerm",
    "main_combo",
    "deligne_combo_d1",
    "universal_report",
    "MAX_UNIVERSAL_DIM",
    "UniversalReport",
    "ducrot_defect",
    "MAX_DUCROT_DIM",
    "MAX_DUCROT_FACTORS",
    "c1_lambda",
    "verify_main_on_model",
    "MainReport",
    "verify_main_all_lines",
    "AllLinesReport",
    "euler_char",
    "picard_deduce",
    "DeduceReport",
    "parse_linear_expr",
    "preset_relations",
]


# ----------------------------------------------------------------------
# virtual combinations of twisted symmetric powers


@record
class ComboTerm:
    """coeff * lambda(L^twist (x) Sym^sym(Omega)), dualizing the Sym factor
    when dual is set."""

    coeff: int
    twist: int
    sym: int
    dual: bool = False

    def __post_init__(self):
        if self.sym < 0:
            raise DomainError("sym degree must be >= 0")

    def to_obj(self) -> dict:
        return {
            "coeff": str(self.coeff),
            "twist": self.twist,
            "sym": self.sym,
            "dual": self.dual,
        }


@lru_cache(maxsize=None)
def main_combo(d: int, allow_degenerate: bool = False) -> tuple[ComboTerm, ...]:
    """The exponent-2^(2d+2) side minus the weighted twisted-Sym side,
    built once per (d, allow_degenerate): the terms are immutable."""
    if d == 0 and allow_degenerate:
        entries = (1,)
    else:
        entries = coeff_table(d).entries
    terms = [ComboTerm(2 ** (2 * d + 2), 1, 0)]
    terms += [ComboTerm(-c, 2, j) for j, c in enumerate(entries)]
    return tuple(terms)


def deligne_combo_d1() -> tuple[ComboTerm, ...]:
    """The 18-coefficient curve-case combination with dual cotangent twists."""
    return (
        ComboTerm(18, 1, 0),
        ComboTerm(-18, 0, 0),
        ComboTerm(-6, 2, 1, dual=True),
        ComboTerm(6, 1, 1, dual=True),
    )


# ----------------------------------------------------------------------
# universal defect

# Largest d for universal_report: the work grows about 1.5x per dimension,
# nearly all of it the products that build G_1..G_(d+1). On a 2-core host
# where a bare `python3 -c pass` takes 44-65 ms, the CLI run
# `universal --dim 17`, JSON output included, takes 1.4-1.9 s; d = 18, with
# the ceiling raised in process, takes 2.1-2.9 s.
MAX_UNIVERSAL_DIM = 17


def _universal_ring(d: int) -> VarTable:
    return VarTable([("l", 1)] + [(f"a{i}", i) for i in range(1, d + 1)])


def _check_dim(d: int, allow_degenerate: bool):
    if type(d) is not int or d < 0:
        raise DomainError("d must be a nonnegative integer")
    if d == 0 and not allow_degenerate:
        raise DomainError("d = 0 is degenerate; pass allow_degenerate=True to inspect it")
    if d > MAX_UNIVERSAL_DIM:
        raise DomainError(f"d = {d} exceeds the ceiling MAX_UNIVERSAL_DIM = {MAX_UNIVERSAL_DIM}")


def _twist_weights(combo, r: int, n: int) -> dict[int, tuple[list, list]]:
    """Per twist, the weights of G_0..G_n in its plain and in its dual
    summands: each term coeff * s_j of the twist adds coeff * C(r + j - 1,
    j - i) to weight i (``charclass._sym_weights``), r the rank of Omega."""
    by_twist: dict[int, tuple[list, list]] = {}
    for term in combo:
        acc = by_twist.setdefault(term.twist, ([0] * (n + 1), [0] * (n + 1)))[term.dual]
        for i, c in enumerate(_sym_weights(r, term.sym, n)):
            acc[i] += term.coeff * c
    return by_twist


def universal_report(d, combo=None, allow_degenerate=False) -> "UniversalReport":
    """Assemble the universal defect and its degree breakdown.

    The ring is Q[l, a_1..a_d] truncated in degree d+1, where a_i has
    weight i and stands for c_i(Omega), the i-th elementary symmetric
    function of the Chern roots. So c(Omega) = 1 + a_1 + ... + a_d,
    ch(Omega) = ``ch_from_chern(d, c(Omega))`` and Td(T) is the Todd class
    of c(T) = psi^(-1) c(Omega), the route ``verify_main_on_model`` takes on
    a model. At d = 1 this is the root ring itself (a_1 is the one root).

    The verdicts are those of the root ring Q[l, r_1..r_d], all weights 1:
    a_i -> e_i(r) is a ring map that preserves weighted degree, and it is
    injective because the e_i are algebraically independent. Every step
    below is a ring operation on c(Omega), so it maps the defect here onto
    the root-ring defect, and a component vanishes in one ring exactly
    when it vanishes in the other.

    The Sym^j characters are never formed. ``charclass.sym_ch`` writes
    s_j = sum_i C(d + j - 1, j - i) G_i with G_i = h_i(e^(x_k) - 1), which
    vanishes for i > d + 1, so the G_i are built once, up to
    n = min(largest Sym degree, d + 1) (``charclass._rank_zero_sym``).
    Terms are grouped by twist: each twist's summands coeff * s_j fold into
    the weights w_i = sum coeff * C(d + j - 1, j - i) of one weighted sum of
    G_0..G_n, the dual summands into a second one that goes through
    psi^(-1), and the class is multiplied by exp(twist * l) once. At d = 4
    that is 10 series products; s_0..s_8 by the Adams recurrence
    j s_j = sum_m psi^m(ch) s_(j-m) would take 36. Every coefficient is
    exact, so the grouping changes no output.
    """
    _check_dim(d, allow_degenerate)
    combo = tuple(combo) if combo is not None else main_combo(d, allow_degenerate)
    vt = _universal_ring(d)
    bound = d + 1
    l = TruncatedSeries.gen(vt, bound, "l")
    omega_chern = sum(
        (TruncatedSeries.gen(vt, bound, f"a{i}") for i in range(1, d + 1)),
        TruncatedSeries.one(vt, bound),
    )
    ch_omega = ch_from_chern(d, omega_chern)
    todd = todd_from_chern(adams_rescale(omega_chern, -1))
    n = min(max((term.sym for term in combo), default=0), bound)
    g = _rank_zero_sym(ch_omega, n)
    D = TruncatedSeries.zero(vt, bound)
    for twist, (plain, dual) in _twist_weights(combo, d, n).items():
        cls = _combine(ch_omega, zip(plain, g))
        if any(dual):
            cls = cls + adams_rescale(_combine(ch_omega, zip(dual, g)), -1)
        D = D + (l * twist).exp() * cls
    defect = D * todd
    return UniversalReport(
        dim=d,
        combo=combo,
        combo_ch=D,
        todd=todd,
        defect=defect,
        top_degree_zero=defect.component(d + 1).is_zero(),
        subtop_zero=defect.component(d).is_zero(),
    )


@record
class UniversalReport:
    dim: int
    combo: tuple[ComboTerm, ...]
    combo_ch: TruncatedSeries
    todd: TruncatedSeries
    defect: TruncatedSeries
    top_degree_zero: bool
    subtop_zero: bool

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "combo": [t.to_obj() for t in self.combo],
            "combo_ch": self.combo_ch.to_obj(),
            "todd": self.todd.to_obj(),
            "defect_components": [
                {"degree": k, "terms": self.defect.component(k).to_obj()}
                for k in range(self.dim + 2)
            ],
            "top_degree_zero": self.top_degree_zero,
            "subtop_zero": self.subtop_zero,
        }


# ----------------------------------------------------------------------
# vanishing of the ideal-block product


# Ceilings for ducrot_defect: the product has up to 2^(d+1) terms, and each
# factor is a series in every factor's variable. The default d + 2 factors
# are the worst case, since the product is zero from then on. On a 2-core
# host where a bare `python3 -c pass` takes 44-65 ms, the CLI run
# `ducrot --dim 18` takes 0.96-1.16 s; d = 19, with the ceiling raised in
# process, takes 1.6-2.4 s.
MAX_DUCROT_DIM = 18
MAX_DUCROT_FACTORS = 64


def ducrot_defect(d: int, factors: int | None = None) -> TruncatedSeries:
    """Chern character of the product of (O - line) blocks, truncated at d+1.

    With d+2 factors the product of classes (1 - e^(l_i)) has every term of
    degree >= d+2, hence vanishes on the window; with fewer factors the
    lowest term survives and witnesses non-vanishing. The product is the
    last entry of ``_ducrot_chain``, the one product loop; verify-all's
    ducrot rows read their (d+1)-factor control from the same chain.
    """
    for defect in _ducrot_chain(d, factors):
        pass
    return defect


def _ducrot_chain(d: int, factors: int | None):
    """The products of the first k blocks (1 - e^(l_i)), k = 0..factors
    (d + 2 when None), lazily, each in the ring of all ``factors``
    variables truncated at d+1. The arguments are checked before the first
    product, and only the running product is kept."""
    if type(d) is not int or d < 0:
        raise DomainError("d must be a nonnegative integer")
    if d > MAX_DUCROT_DIM:
        raise DomainError(f"d = {d} exceeds the ceiling MAX_DUCROT_DIM = {MAX_DUCROT_DIM}")
    if factors is None:
        factors = d + 2
    if type(factors) is not int or factors < 0:
        raise DomainError("the factor count must be a nonnegative integer")
    if factors > MAX_DUCROT_FACTORS:
        raise DomainError(
            f"{factors} factors exceed the ceiling MAX_DUCROT_FACTORS = {MAX_DUCROT_FACTORS}"
        )
    names = [f"l{i}" for i in range(1, factors + 1)]
    vt = VarTable([(n, 1) for n in names])
    bound = d + 1
    one = TruncatedSeries.one(vt, bound)
    blocks = (one - TruncatedSeries.gen(vt, bound, n).exp() for n in names)
    return accumulate(blocks, mul, initial=one)


# ----------------------------------------------------------------------
# model-side degrees


def _line_ch(model: ChowModel, line: dict) -> TruncatedSeries:
    """ch(L) = e^(c_1(L)) in normal form, for the line bundle L whose first
    Chern class has the coefficients ``line`` (``ChowModel.first_chern``):
    the one route from a line bundle to its Chern character."""
    return model.normal_form(model.normal_form(model.first_chern(line)).exp())


def _degree(model: ChowModel, ch: TruncatedSeries, what: str) -> int:
    """The integral of ch Td(T_f) over the total space, checked to be an
    integer: the one route from a Chern character to a model degree.

    It is the top-degree pairing of ch with Td; the product ch Td is never
    formed. For confluent rules it is exact whether or not ch is in normal
    form; detlam does not yet check confluence (ROADMAP item 12), and on
    rules that are not confluent ch and its normal form can pair
    differently (``ChowModel._pair``). The pairing is read
    as its integer numerator and denominator (``ChowModel._pair``) and
    divided once; a Rational is built only for the message of a degree that
    is not an integer. Td is built on every call: until the benchmark's
    per-call Todd count (ROADMAP item 1) gives way to one Td per model
    (item 2), a verdict makes one Todd class per degree.
    """
    num, den = model._pair(ch, todd_from_chern(model.tangent_chern))
    value, rest = divmod(num, den)
    if rest:
        raise DomainError(
            f"{what} came out non-integral ({Rational(num, den)}); model data inconsistent"
        )
    return value


def c1_lambda(model: ChowModel, line: dict) -> int:
    """Degree of the determinant of cohomology of the line bundle ``line``
    (as for ``verify_main_on_model``) along a one-dimensional base: the
    integral over the total space of ch(L) Td(T_f), whose top component is
    exactly the degree-one pushforward term.
    """
    if model.total_dim - model.rel_dim != 1:
        raise DomainError("determinant degree needs a one-dimensional base")
    return _degree(model, _line_ch(model, line), "determinant degree")


@dataclass(frozen=True)  # perfbench tampers via dataclasses.replace until ROADMAP item 1
class MainReport:
    model: str
    dim: int
    line: dict
    lhs_exponent: int
    lhs_degree: int
    lhs: int
    rhs_rows: tuple
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_obj(self) -> dict:
        return {
            "model": self.model,
            "dim": self.dim,
            "line": {k: str(v) for k, v in self.line.items()},
            "lhs_exponent": str(self.lhs_exponent),
            "lhs_degree": str(self.lhs_degree),
            "lhs": str(self.lhs),
            "rhs_rows": [
                {"sym": j, "coeff": str(c), "degree": str(deg)}
                for j, c, deg in self.rhs_rows
            ],
            "rhs": str(self.rhs),
            "ok": self.ok,
        }


def _family_dim(model: ChowModel) -> int:
    """The relative dimension d of ``model``, checked to be positive over a
    one-dimensional base: the precondition of both family verdicts."""
    d = model.rel_dim
    if d < 1:
        raise DomainError("need a family of positive relative dimension")
    if model.total_dim - d != 1:
        raise DomainError("the verification needs a one-dimensional base")
    return d


def verify_main_on_model(model: ChowModel, line: dict) -> MainReport:
    """Exact integer check of the exponent identity on a family model.

    ``line`` maps weight-one generator names to int coefficients. Each
    term (coeff, twist t, Sym^j) of ``main_combo(d)`` contributes the degree
    of L^t (x) Sym^j Omega: the first term, coeff 2^(2d+2) at twist 1 and
    Sym^0, is the left side, and the terms (-c_j, twist 2, Sym^j) are the
    rows of the right side.

    A call does only the work that depends on L: it builds ch(L) once by
    ``_line_ch``, one exp and two normal forms. c_1 is homogeneous of
    degree 1, so e^(2 c_1) = psi^2(e^(c_1)), and the normal form commutes
    with psi^2 because the relations are homogeneous: ch(L^2) =
    psi^2(ch(L)) (``charclass.adams_rescale``), one rescaled series with
    no further exp or normal form.

    No Sym^j character is formed: s_j is a weighted sum of the G_i of
    Omega cached on the model (``ChowModel.cotangent_rank_zero``, i <= n),
    and the degree is linear. The head's degree is the pairing of ch(L)
    itself with Td, as G_0 = 1. The rows share the n + 1 pairings D(2, i)
    of psi^2(ch L) G_i with Td, D(2, 0) of psi^2(ch L) itself, and row j's
    degree is sum_i C(d + j - 1, j - i) D(2, i) (``charclass._sym_weights``).
    The head is paired first, then i ascending, so a non-integral message
    names the first failing pairing in that order: n + 2 integrals and n
    series products, 4 and 2 at d = 1. Each integral builds its own Todd
    class (``_degree``). The weights form a unitriangular integer matrix,
    so checking each pairing for integrality checks every row's degree.
    """
    d = _family_dim(model)
    line_coeffs = dict(line)
    ch_line = _line_ch(model, line_coeffs)
    head, *terms = main_combo(d)
    g = model.cotangent_rank_zero()
    ch2 = adams_rescale(ch_line, 2)
    lhs_degree = _degree(model, ch_line, "determinant degree")
    pairing = [_degree(model, ch2, "determinant degree")]
    pairing += [_degree(model, ch2 * gi, "determinant degree") for gi in g[1:]]
    n = len(g) - 1
    rows = tuple(
        (t.sym, -t.coeff, sum(map(mul, _sym_weights(d, t.sym, n), pairing))) for t in terms
    )
    return MainReport(
        model=model.name,
        dim=d,
        line=line_coeffs,
        lhs_exponent=head.coeff,
        lhs_degree=lhs_degree,
        lhs=head.coeff * lhs_degree,
        rhs_rows=rows,
        rhs=sum(c * deg for _j, c, deg in rows),
    )


@record
class AllLinesReport:
    """The verdict of ``verify_main_all_lines``. ``failing`` holds each
    monomial g^alpha whose coefficient c_alpha is not zero, as its exponent
    vector alpha over ``generators`` (the weight-one generators) with
    c_alpha, in graded-lex order, largest first within a degree. The
    verdict covers the line bundles in the span of ``generators``; it says
    nothing about the classes ``higher_weight`` generators add."""

    generators: tuple[str, ...]
    higher_weight: tuple[str, ...]
    failing: tuple

    @property
    def ok(self) -> bool:
        return not self.failing


def verify_main_all_lines(model: ChowModel) -> AllLinesReport:
    """The exponent identity for every line bundle at once, as exact
    rationals: ``verify_main_on_model``'s check, with its preconditions,
    for all lines L in the span of the weight-one generators g_k.

    With the weights w_(t, i) of each twist's terms (``_twist_weights``,
    shared with ``universal_report``), the defect lhs - rhs of the line L
    with coefficients a is the integral of sum_t e^(t c_1(L)) W_t, W_t =
    (sum_i w_(t, i) G_i) Td(T_f). Expanding e^(t c_1) =
    sum_alpha t^|alpha| a^alpha g^alpha / alpha! gives

        lhs - rhs = sum_alpha a^alpha / alpha! * c_alpha,
        c_alpha = sum_t t^|alpha| integral(g^alpha W_t),

    over the exponent vectors alpha with |alpha| <= total_dim: the
    universal statement of ``universal_report`` pulled back to the model
    (Fulton, *Intersection Theory*, ch. 15). A polynomial that vanishes on
    every integer vector is zero, so the identity holds for every L exactly
    when every c_alpha is 0. The sum over t is taken first, V_m = sum_t t^m
    W_t for each degree m, so each c_alpha is one top-degree pairing of
    g^alpha with V_|alpha|.

    A g^alpha of degree m pairs only with V_m's degree-(total_dim - m)
    part, so no V_m is formed whole. Td is built once, in normal form, and
    each W_t is one product, the weighted sum of the G_i times Td: two
    products for ``main_combo``, whose terms have twists 1 and 2, whatever
    the number of G_i. One series X collects every part a pairing reads:
    its degree-k component is sum_t t^(total_dim - k) (W_t)_k, which is
    V_(total_dim - k)'s degree-k part. X is taken to normal form once
    (rules are homogeneous, so nf(X)_k = nf(X_k)), and a g^alpha of degree
    m pairs with its degree-(total_dim - m) component.
    Each g^alpha goes to the integer pairing ``ChowModel._pair`` as a
    one-term series on its packed key, the sum of its generators' keys
    (``_Layout.gen``, in generator order; keys add without carry in the
    window), so no exponent vector is built or checked per monomial;
    c_alpha is tested as an integer numerator, and a ``Rational`` is built
    only for a failing alpha. The terms are those of ``main_combo(d)``, as
    for ``verify_main_on_model``.

    Unlike the per-line route, the verdict does no integrality check: each
    c_alpha is an exact rational that is only tested for zero. On a model
    whose degrees are not integers, where ``verify_main_on_model`` raises,
    the verdict can pass or list fractional coefficients.
    """
    d = _family_dim(model)
    g = model.cotangent_rank_zero()
    by_twist = _twist_weights(main_combo(d), d, len(g) - 1)
    todd = model.normal_form(todd_from_chern(model.tangent_chern))
    vt, top = model.vars, model.total_dim
    # x_k = sum_t t^(top - k) (W_t)_k, the part of V_(top - k) that pairs
    x = TruncatedSeries.zero(vt, top)
    for t, (plain, _) in by_twist.items():
        w = _combine(todd, zip(plain, g)) * todd
        x = x + w._graded_weigh([t ** (top - k) for k in range(top + 1)])
    x = model.normal_form(x)
    ones = [k for k, w in enumerate(vt.weights) if w == 1]
    lay = model._lay
    keys = [lay.gen(k) for k in ones]
    failing = []
    for m in range(top + 1):
        v = x.component(top - m)
        for picks in combinations_with_replacement(keys, m):
            key = sum(picks)
            num, den = model._pair(_series(x, {key: 1}, 1), v)
            if num:
                alpha = lay.exps(key)
                failing.append((tuple(alpha[k] for k in ones), Rational(num, den)))
    return AllLinesReport(
        generators=tuple(vt.names[k] for k in ones),
        higher_weight=tuple(name for name, w in zip(vt.names, vt.weights) if w != 1),
        failing=tuple(failing),
    )


def euler_char(model: ChowModel, line: dict) -> int:
    """chi(L) over a point base for the line bundle ``line`` (as for
    ``verify_main_on_model``): the integral of ch(L) Td(T)."""
    if model.rel_dim != model.total_dim:
        raise DomainError("Euler characteristic needs a point base")
    return _degree(model, _line_ch(model, line), "chi")


# ----------------------------------------------------------------------
# integer lattice deductions


def _integer_echelon(rows, n: int):
    """Pivot rows of the integer row space, in pivot-column order."""
    work = []
    for r in rows:
        r = [int(x) for x in r]
        if len(r) != n:
            raise DomainError("relation vector length mismatch")
        if any(r):
            work.append(r)
    out = []
    for col in range(n):
        while True:
            nz = [r for r in work if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            for r in nz[1:]:
                q = r[col] // p[col]
                if q:
                    for i in range(n):
                        r[i] -= q * p[i]
        nz = [r for r in work if r[col]]
        if nz:
            p = nz[0]
            work.remove(p)
            if p[col] < 0:
                p = [-x for x in p]
            out.append((col, p))
    return out


@record
class DeduceReport:
    symbols: list
    goal: list
    derivable: bool
    remainder: list

    def to_obj(self) -> dict:
        return {
            "symbols": self.symbols,
            "goal": [str(x) for x in self.goal],
            "derivable": self.derivable,
            "remainder": [str(x) for x in self.remainder],
        }


def picard_deduce(symbols, relations, goal) -> DeduceReport:
    """Decide whether the goal relation follows by integer combination.

    Relations and the goal are integer vectors over the symbols, or strings
    that ``parse_linear_expr`` reads. The relations are brought to integer
    echelon form and the goal is reduced against the pivot rows; it follows
    exactly when nothing remains.
    """
    symbols = [str(s) for s in symbols]
    if len(set(symbols)) != len(symbols):
        raise DomainError("duplicate symbols")

    def vector(v):
        if isinstance(v, str):
            return parse_linear_expr(v, symbols)
        if any(type(x) is not int for x in v):
            raise DomainError(f"{v!r} is not a vector of integers")
        return list(v)

    echelon = _integer_echelon([vector(r) for r in relations], len(symbols))
    goal_vec = vector(goal)
    if len(goal_vec) != len(symbols):
        raise DomainError("goal vector length mismatch")
    rem = list(goal_vec)
    for col, row in echelon:
        q = rem[col] // row[col]
        for i in range(len(rem)):
            rem[i] -= q * row[i]
    return DeduceReport(symbols=symbols, goal=goal_vec, derivable=not any(rem), remainder=rem)


_TOKEN = re.compile(r"[A-Za-z_]\w*|[0-9]+|\S")
_SYMBOL = re.compile(r"[A-Za-z_]\w*\Z")


def _parse_terms(text: str, symbols, vec, flip: bool):
    index = {s: i for i, s in enumerate(symbols)}
    tokens = _TOKEN.findall(text)
    sign = 1
    pending: int | None = None
    expect_term = True
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t in "+-":
            if not expect_term and pending is None:
                sign = 1 if t == "+" else -1
                expect_term = True
            elif expect_term and pending is None:
                sign *= 1 if t == "+" else -1
            else:
                raise DomainError(f"misplaced sign in {text!r}")
            i += 1
            continue
        # _TOKEN reads ASCII digits only as one whole token
        number = t[0] in "0123456789"
        if not number and not _SYMBOL.match(t):
            raise DomainError(f"unexpected token {t!r} in {text!r}")
        if not expect_term:
            raise DomainError(f"missing operator before {t!r} in {text!r}")
        i += 1
        if number:
            if pending is not None:
                raise DomainError(f"two coefficients in a row in {text!r}")
            try:
                pending = int(t)
            except ValueError:  # past Python's int-from-text digit limit
                raise DomainError(f"a coefficient of {len(t)} digits is too long") from None
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            continue
        if t not in index:
            raise DomainError(f"unknown symbol {t!r}")
        coeff = (pending if pending is not None else 1) * sign
        vec[index[t]] += -coeff if flip else coeff
        pending = None
        sign = 1
        expect_term = False
    if pending is not None:
        if pending != 0:
            raise DomainError(f"constant terms are not allowed: {text!r}")
        # a bare literal 0 is the empty side
    elif expect_term:
        raise DomainError(f"dangling operator in {text!r}")


def parse_linear_expr(text: str, symbols) -> list[int]:
    """Parse '13*l1 - l2' or 'a = b - c' into an integer vector over symbols.

    An '=' moves the right side over with flipped signs, so the result is
    always the vector of (left - right). A side with no terms is written
    0; an empty side is an error, so a truncated relation is never read
    as 0.
    """
    parts = text.split("=")
    if len(parts) > 2:
        raise DomainError("at most one '=' allowed")
    vec = [0] * len(symbols)
    for side, flip in zip(parts, (False, True)):
        if not side.strip():
            raise DomainError(f"empty side in {text!r}; write 0 for a side with no terms")
        _parse_terms(side, symbols, vec, flip)
    return vec


def preset_relations(name: str):
    """Named relation sets over the symbols l0, l1, l2.

    'mumford': the k = 0 exponent relation together with the duality
    identification l0 = l1; enough to derive 13*l1 = l2.
    'elliptic': the same plus l2 = l1, which forces 12*l1 = 0.
    """
    symbols = ["l0", "l1", "l2"]
    # at L = O every lambda(L^t (x) Sym^j Omega) of the d = 1 combination is l_j
    power = [0, 0, 0]
    for term in main_combo(1):
        power[term.sym] += term.coeff
    serre = [1, -1, 0]
    if name == "mumford":
        return symbols, [power, serre]
    if name == "elliptic":
        return symbols, [power, serre, [0, 1, -1]]
    raise DomainError(f"unknown preset {name!r}")
