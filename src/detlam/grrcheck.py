"""First-Chern-class verification of the determinant-bundle identities.

The identity is checked in two settings. Both read the terms
(coeff, twist, Sym degree) of ``main_combo(d)`` and take the Sym^j
characters of the cotangent sheaf from one ``sym_ch_table``:

* universal: the base-free check over the ring Q[l, a_1..a_d] truncated in
  degree d+1, where l is the first Chern class of the line bundle and a_i,
  of weight i, is the i-th Chern class of the relative cotangent sheaf.
  The weighted alternating combination of Chern characters, multiplied by
  the Todd class of the relative tangent sheaf, must vanish identically in
  degree d+1.
* on a model: for a family with one-dimensional base, the degree of the
  determinant of cohomology of F is the integral of ch(F) Td(T_f) over the
  total space, and the exponent identity is checked as exact integers.
  Every model degree (each term of the identity, ``c1_lambda`` and
  ``euler_char``) is that one integral, computed by ``_degree``, which also
  checks that it is an integer. ``_degree`` pairs ch with Td(T_f) by
  ``ChowModel.integrate``, the top-degree intersection pairing: only the
  term pairs whose degrees add to the total dimension are multiplied, and
  nothing is reduced, so a row's product ch(L^t) ch(Sym^j Omega) of two
  normal forms is paired as it is. ch(L^t) is psi^t of the one reduced
  e^(c_1) of the call, and the Sym^j characters come from the model's
  cached table of normal forms (``ChowModel.cotangent_sym_table``).

Integer lattice deductions about determinant classes (divisibility and
torsion consequences) are handled by Hermite-style integer row reduction,
with no division at any point; ``preset_relations`` reads its exponent
relation off ``main_combo(1)``.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

from .charclass import adams_rescale, ch_from_chern, dual_ch, sym_ch_table, todd_from_chern
from .chowmodel import BundleClass, ChowModel
from .combinat import coeff_table
from .exactalg import DomainError, TruncatedSeries, VarTable

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
    "bundle_ch",
    "c1_lambda",
    "verify_main_on_model",
    "MainReport",
    "euler_char",
    "picard_deduce",
    "DeduceReport",
    "parse_linear_expr",
    "preset_relations",
]


# ----------------------------------------------------------------------
# virtual combinations of twisted symmetric powers


@dataclass(frozen=True)
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

# Largest d for universal_report: the work grows about 2x per dimension.
# On a 2-core host the CLI run `universal --dim 13`, JSON output included,
# takes about 1.8 s; d = 14 takes about 3.3 s.
MAX_UNIVERSAL_DIM = 13


def _universal_ring(d: int) -> VarTable:
    return VarTable([("l", 1)] + [(f"a{i}", i) for i in range(1, d + 1)])


def _check_dim(d: int, allow_degenerate: bool):
    if not isinstance(d, int) or d < 0:
        raise DomainError("d must be a nonnegative integer")
    if d == 0 and not allow_degenerate:
        raise DomainError("d = 0 is degenerate; pass allow_degenerate=True to inspect it")
    if d > MAX_UNIVERSAL_DIM:
        raise DomainError(f"d = {d} exceeds the ceiling MAX_UNIVERSAL_DIM = {MAX_UNIVERSAL_DIM}")


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

    The Sym^j characters of the cotangent sheaf are built once, as one
    ``sym_ch_table`` up to the largest Sym degree in the combination. Terms
    are then grouped by twist: each twist's summands coeff * s_j (dualized
    where the term says so) are added into one class, which is multiplied
    by exp(twist * l) once. Every coefficient is exact, so the grouping
    changes no output.
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
    sym = sym_ch_table(ch_omega, max((term.sym for term in combo), default=0))
    by_twist: dict[int, TruncatedSeries] = {}
    for term in combo:
        s = dual_ch(sym[term.sym]) if term.dual else sym[term.sym]
        acc = by_twist.get(term.twist, TruncatedSeries.zero(vt, bound))
        by_twist[term.twist] = acc + s * term.coeff
    D = TruncatedSeries.zero(vt, bound)
    for twist, cls in by_twist.items():
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


@dataclass(frozen=True)
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
# host the CLI run `ducrot --dim 18` takes about 1.3 s; d = 19 takes 2.8 s.
MAX_DUCROT_DIM = 18
MAX_DUCROT_FACTORS = 64


def ducrot_defect(
    d: int, factors: int | None = None, allow_short: bool = False
) -> TruncatedSeries:
    """Chern character of the product of (O - line) blocks, truncated at d+1.

    With d+2 factors the product of classes (1 - e^(l_i)) has every term of
    degree >= d+2, hence vanishes on the window; with fewer factors the
    lowest term survives and witnesses non-vanishing.
    """
    if d < 0:
        raise DomainError("d must be >= 0")
    if d > MAX_DUCROT_DIM:
        raise DomainError(f"d = {d} exceeds the ceiling MAX_DUCROT_DIM = {MAX_DUCROT_DIM}")
    if factors is None:
        factors = d + 2
    if factors < 0:
        raise DomainError("the factor count must be >= 0")
    if factors > MAX_DUCROT_FACTORS:
        raise DomainError(
            f"{factors} factors exceed the ceiling MAX_DUCROT_FACTORS = {MAX_DUCROT_FACTORS}"
        )
    if factors != d + 2 and not allow_short:
        raise DomainError(f"need exactly d+2 = {d + 2} factors, got {factors}")
    names = [f"l{i}" for i in range(1, factors + 1)]
    vt = VarTable([(n, 1) for n in names])
    bound = d + 1
    out = TruncatedSeries.one(vt, bound)
    for n in names:
        out = out * (
            TruncatedSeries.one(vt, bound) - TruncatedSeries.gen(vt, bound, n).exp()
        )
    return out


# ----------------------------------------------------------------------
# model-side degrees


def bundle_ch(model: ChowModel, bundle: BundleClass) -> TruncatedSeries:
    """Chern character of a bundle class in the model ring, normal form."""
    return model.normal_form(ch_from_chern(bundle.rank, model.normal_form(bundle.chern)))


def _degree(model: ChowModel, ch: TruncatedSeries, what: str) -> int:
    """The integral of ch Td(T_f) over the total space, checked to be an
    integer: the one route from a Chern character to a model degree.

    It is the top-degree pairing ``ChowModel.integrate(ch, Td)``, exact
    whether or not ch is in normal form; the product ch Td is never formed.
    """
    value = model.integrate(ch, todd_from_chern(model.tangent_chern))
    if value.denominator != 1:
        raise DomainError(f"{what} came out non-integral ({value}); model data inconsistent")
    return int(value)


def c1_lambda(model: ChowModel, bundle: BundleClass) -> int:
    """Degree of the determinant of cohomology along a one-dimensional base.

    Computed as the integral over the total space of ch(F) Td(T_f), whose
    top component is exactly the degree-one pushforward term.
    """
    if model.total_dim - model.rel_dim != 1:
        raise DomainError("determinant degree needs a one-dimensional base")
    return _degree(model, bundle_ch(model, bundle), "determinant degree")


@dataclass(frozen=True)
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


def verify_main_on_model(model: ChowModel, line: dict) -> MainReport:
    """Exact integer check of the exponent identity on a family model.

    ``line`` maps weight-one generator names to divisor coefficients. Each
    term (coeff, twist t, Sym^j) of ``main_combo(d)`` contributes the degree
    of L^t (x) Sym^j Omega: the first term, coeff 2^(2d+2) at twist 1 and
    Sym^0, is the left side, and the terms (-c_j, twist 2, Sym^j) are the
    rows of the right side.

    A call does only the work that depends on L: it builds c_1(L), takes
    one exp and reduces e^(c_1) once. c_1 is homogeneous of degree 1, so
    e^(t c_1) = psi^t(e^(c_1)), and the normal form commutes with psi^t
    because the relations are homogeneous: ch(L^t) = psi^t(nf(e^(c_1))),
    with no further exp or normal form. The Sym^j characters come, already
    reduced, from the model's cache (``ChowModel.cotangent_sym_table``), and
    each term's product ch(L^t) ch(Sym^j Omega) goes to ``_degree``.
    """
    d = model.rel_dim
    if d < 1:
        raise DomainError("need a family of positive relative dimension")
    if model.total_dim - d != 1:
        raise DomainError("the verification needs a one-dimensional base")
    line_coeffs = dict(line)
    c1 = model.normal_form(model.first_chern(line_coeffs))
    combo = main_combo(d)
    head, *terms = combo
    ch_line = model.normal_form(c1.exp())
    ch_twist = {t: adams_rescale(ch_line, t) for t in {term.twist for term in combo}}
    sym = model.cotangent_sym_table()
    lhs_degree, *degrees = (
        _degree(model, ch_twist[t.twist] * sym[t.sym], "determinant degree")
        for t in combo
    )
    rows = tuple((term.sym, -term.coeff, deg) for term, deg in zip(terms, degrees))
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


def euler_char(model: ChowModel, bundle: BundleClass) -> int:
    """chi(F) over a point base: the integral of ch(F) Td(T)."""
    if model.rel_dim != model.total_dim:
        raise DomainError("Euler characteristic needs a point base")
    return _degree(model, bundle_ch(model, bundle), "chi")


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


@dataclass(frozen=True)
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
        return parse_linear_expr(v, symbols) if isinstance(v, str) else [int(x) for x in v]

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


_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")


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
        if t.isdigit():
            if pending is not None:
                raise DomainError(f"two coefficients in a row in {text!r}")
            pending = int(t)
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            continue
        if re.fullmatch(r"[A-Za-z_]\w*", t):
            if t not in index:
                raise DomainError(f"unknown symbol {t!r}")
            coeff = (pending if pending is not None else 1) * sign
            vec[index[t]] += -coeff if flip else coeff
            pending = None
            sign = 1
            expect_term = False
            i += 1
            continue
        raise DomainError(f"unexpected token {t!r} in {text!r}")
    if pending is not None:
        if pending != 0:
            raise DomainError(f"constant terms are not allowed: {text!r}")
        # a bare literal 0 is the empty side
    elif expect_term and tokens:
        raise DomainError(f"dangling operator in {text!r}")


def parse_linear_expr(text: str, symbols) -> list[int]:
    """Parse '13*l1 - l2' or 'a = b - c' into an integer vector over symbols.

    An '=' moves the right side over with flipped signs, so the result is
    always the vector of (left - right).
    """
    parts = text.split("=")
    if len(parts) > 2:
        raise DomainError("at most one '=' allowed")
    vec = [0] * len(symbols)
    _parse_terms(parts[0], symbols, vec, flip=False)
    if len(parts) == 2:
        _parse_terms(parts[1], symbols, vec, flip=True)
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
