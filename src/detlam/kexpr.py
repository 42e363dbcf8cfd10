"""Term rewriting for virtual sheaf expressions under lambda.

Expression trees are built from line-bundle atoms, the unit O, the
order-two twist sheaf {-1}, formal integer combinations, tensor products,
duals, symmetric powers, a fiber pushforward binder, and top-level
lambda(.)^n wrappers. Normalization maps a tree to a canonical formal sum
of tensor monomials

    monomial = (sorted factors, twist parity),   factor = (kind, name, param, dual)

with the involutions dual(dual(x)) = x and twist (x) twist = O applied, Sym
lifted through duals and twists, and integer coefficients merged. For a
lambda product the canonical form is the fully distributed exponent map
{monomial: exponent}, which is sound because lambda of a formal sum is by
definition the product of the factor lambdas.

A chain script is a sequence of directed axiom applications; every step
carries the expected display, built independently from the step's printed
formula. The engine applies the axiom, demands canonical equality with the
expected display, and only then adopts the display's factor structure, so a
corrupted script fails at exactly the corrupted step. The built-in chains
are built in Python below; a script file is the JSON form that
``script_from_file`` reads, and the package's ``data/chain_*.json`` are
examples of it, equal to the built-ins at dim 1.

Every tree node normalizes at most once: its formal sum, and for a lambda
expression its canonical form, are computed on first use and held by the
node itself, so a subtree shared by several displays, steps or scripts (a
chain and its corrupted twins share all untouched steps) is not normalized
again, and the cache goes away with the tree. A tensor product that opens
with n copies of one factor object, as tpow(f, n) builds, reads f^(x)n from
the powers held by f, each formed from the one before: f^(x)n =
f^(x)(n-1) (x) f. A display keeps, the same way, each rewrite made from it
with the step's axiom, position and argument object, so a corrupted twin,
which shares every display and argument object but one display with its
chain, repeats no rewrite: it only normalizes its tampered display.
"""

import json
import re
from functools import cached_property

from ._record import record

__all__ = [
    "UnsupportedExpression",
    "ScriptError",
    "Atom",
    "One",
    "Twist",
    "Dual",
    "Sym",
    "Ten",
    "Lin",
    "Push",
    "Lam",
    "LamProd",
    "O",
    "T",
    "o_minus",
    "tpow",
    "normalize",
    "normalize_expr",
    "canonical_state",
    "parse_expr",
    "render_monomial",
    "RewriteAxiom",
    "AXIOMS",
    "ChainStep",
    "ChainScript",
    "ChainReport",
    "chain_verify",
    "corrupt_script",
    "script_from_obj",
    "script_from_file",
    "script_invfunc_a_k",
    "script_invfunc_l_p",
    "script_multadd_d1",
    "get_chain",
    "builtin_chain_names",
    "MAX_CHAIN_DIM",
]


class ScriptError(ValueError):
    """Malformed chain script."""


class UnsupportedExpression(ScriptError):
    """Constructor combination outside the supported normalization fragment."""


class _StepFailure(Exception):
    """Internal: an axiom did not apply; reported, not raised to callers."""


# ----------------------------------------------------------------------
# expression trees


class _Tree:
    """Base of the frozen tree nodes. A node's normal forms are computed on
    first use and kept in its instance ``__dict__`` beside its fields, which
    are all that ``__eq__``, ``__hash__`` and ``repr`` read: its formal sum
    (``normalize_expr``), its tensor powers (``_tensor_power``) and, for a
    lambda expression, its canonical form and rewrites (``_rewrite``)."""

    @cached_property
    def _canonical(self) -> tuple:
        """``normalize`` of a lambda expression."""
        return _canon_items(canonical_state(_state_of(self)))


@record
class Atom(_Tree):
    name: str


@record
class One(_Tree):
    pass


@record
class Twist(_Tree):
    pass


@record
class Dual(_Tree):
    inner: object


@record
class Sym(_Tree):
    power: int
    inner: object

    def __post_init__(self):
        _integer(self.power, "symmetric power", UnsupportedExpression)


@record
class Ten(_Tree):
    factors: tuple

    def __init__(self, *factors):
        object.__setattr__(self, "factors", tuple(factors))


@record
class Lin(_Tree):
    """Formal integer combination: tuple of (coefficient, expression)."""

    terms: tuple

    def __init__(self, *terms):
        terms = tuple((_integer(n, "coefficient", UnsupportedExpression), e) for n, e in terms)
        object.__setattr__(self, "terms", terms)


@record
class Push(_Tree):
    """Derived pushforward along the exceptional fibration, binding one atom."""

    binder: str
    inner: object


@record
class Lam(_Tree):
    arg: object
    exp: int = 1

    def __post_init__(self):
        _integer(self.exp, "lambda exponent", UnsupportedExpression)


@record
class LamProd(_Tree):
    factors: tuple

    def __init__(self, *factors):
        fs = []
        for f in factors:
            if isinstance(f, LamProd):
                fs.extend(f.factors)
            elif isinstance(f, Lam):
                fs.append(f)
            else:
                raise UnsupportedExpression("LamProd takes Lam factors")
        object.__setattr__(self, "factors", tuple(fs))


O = One()
T = Twist()


def o_minus(e) -> Lin:
    """The block O - e."""
    return Lin((1, O), (-1, e))


def tpow(e, n: int):
    """Tensor power; n = 0 gives O."""
    if n < 0:
        raise UnsupportedExpression("negative tensor power")
    return Ten(*([e] * n)) if n else O


# ----------------------------------------------------------------------
# normalization to formal sums


def _fs(pairs) -> dict:
    """The formal sum of (monomial, coefficient) pairs: equal monomials
    merged, zero coefficients dropped. Every formal sum is built here."""
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    if all(out.values()):  # nothing cancelled, the common case
        return out
    return {m: c for m, c in out.items() if c}


# Ceiling on the monomials one tensor product may distribute (the product of
# its two operands' sizes), checked before the product is expanded. A tensor
# of n two-term sums distributes 2^n monomials; the shipped chains and their
# corrupted variants stay at or below 20.
MAX_MONOMIALS = 4096

_FS_ONE_MONO = ((), 0)
_FS_ONE = {_FS_ONE_MONO: 1}


def _fs_mul(a: dict, b: dict) -> dict:
    if len(a) * len(b) > MAX_MONOMIALS:
        raise ScriptError(
            f"a tensor product would distribute {len(a) * len(b)} monomials, "
            f"more than MAX_MONOMIALS = {MAX_MONOMIALS}"
        )
    if a == _FS_ONE:  # O (x) b is b, already a canonical formal sum
        return b
    return _fs(
        [
            ((tuple(sorted(fa + fb)), (ta + tb) % 2), ca * cb)
            for (fa, ta), ca in a.items()
            for (fb, tb), cb in b.items()
        ]
    )


def _tensor_power(f, n: int) -> dict:
    """The formal sum of f^(x)n, n >= 1, from the powers f holds: each
    missing one is formed from the one before, f^(x)n = f^(x)(n-1) (x) f."""
    base = normalize_expr(f)  # UnsupportedExpression for a non-tree
    held = f.__dict__
    # (f, f^(x)2, ...) is replaced whole, never appended to, so two threads
    # extending it at once can lose work but never misplace a power
    powers = held.get("_powers", (base,))
    while len(powers) < n:
        powers += (_fs_mul(powers[-1], base),)
        held["_powers"] = powers
    return powers[n - 1]


def normalize_expr(e) -> dict:
    """Formal-sum normal form {monomial: int} of a sheaf-level tree.

    The result is computed once per node and held by it, so every caller
    of one node gets the same dict: callers must not mutate it, and none does.
    """
    if not isinstance(e, _Tree):
        raise UnsupportedExpression(f"cannot normalize {type(e).__name__} here")
    # Not a cached_property: its Python-level __get__ would add two frames
    # per nesting level to this recursion (see MAX_NESTING).
    held = e.__dict__
    fs = held.get("_formal_sum")
    if fs is None:
        fs = held["_formal_sum"] = _normalize_node(e)
    return fs


def _normalize_node(e) -> dict:
    if isinstance(e, One):
        return {_FS_ONE_MONO: 1}
    if isinstance(e, Twist):
        return {((), 1): 1}
    if isinstance(e, Atom):
        return {((("atom", e.name, 0, 0),), 0): 1}
    if isinstance(e, Dual):
        return _fs(
            [
                ((tuple(sorted([(k, n, p, 1 - d) for k, n, p, d in fs])), tw), c)
                for (fs, tw), c in normalize_expr(e.inner).items()
            ]
        )
    if isinstance(e, Ten):
        # A leading run of one factor object, as tpow builds, is read from
        # that factor's powers; the rest multiply in one at a time. The
        # products formed are those of a left-to-right fold from O, so
        # MAX_MONOMIALS trips at the same factor as it would there.
        factors = e.factors
        run = 0
        while run < len(factors) and factors[run] is factors[0]:
            run += 1
        if not run:
            return {_FS_ONE_MONO: 1}
        out = _fs_mul(_FS_ONE, _tensor_power(factors[0], run))
        for f in factors[run:]:
            out = _fs_mul(out, normalize_expr(f))
        return out
    if isinstance(e, Lin):
        return _fs([(m, n * c) for n, sub in e.terms for m, c in normalize_expr(sub).items()])
    if isinstance(e, Sym):
        return _normalize_sym(e.power, e.inner)
    if isinstance(e, Push):
        return _normalize_push(e.binder, normalize_expr(e.inner))
    raise UnsupportedExpression(f"cannot normalize {type(e).__name__} here")


def _normalize_sym(j: int, inner) -> dict:
    if j < 0:
        raise UnsupportedExpression("negative symmetric power")
    if j == 0:
        return {_FS_ONE_MONO: 1}
    fs = normalize_expr(inner)
    if j == 1:
        return fs
    if len(fs) != 1:
        raise UnsupportedExpression("Sym of a formal sum is outside the fragment")
    (factors, tw), c = next(iter(fs.items()))
    if c != 1:
        raise UnsupportedExpression("Sym of a scaled class is outside the fragment")
    new_tw = (tw * j) % 2
    if not factors:
        return {((), new_tw): 1}
    if len(factors) > 1:
        raise UnsupportedExpression("Sym of a composite monomial is outside the fragment")
    kind, name, param, dual = factors[0]
    if kind != "atom":
        raise UnsupportedExpression("nested Sym is outside the fragment")
    return {((("sym", name, j, dual),), new_tw): 1}


def _normalize_push(binder: str, fs: dict) -> dict:
    def pushed(factors, tw):
        if any(f != ("atom", binder, 0, 0) for f in factors):
            raise UnsupportedExpression("pushforward binder applies only to powers of its atom")
        j = len(factors)
        return ((("push", binder, j, 0),) if j else (), (tw - j) % 2)

    return _fs([(pushed(*m), c) for m, c in fs.items()])


def _canon_items(fs: dict) -> tuple:
    return tuple(sorted(fs.items()))


def normalize(e):
    """Canonical form: sorted coefficient tuple for sheaf trees, sorted
    exponent tuple for lambda products (held by the lambda node)."""
    if isinstance(e, (Lam, LamProd)):
        return e._canonical
    return _canon_items(normalize_expr(e))


def _state_of(e) -> list:
    if isinstance(e, Lam):
        return [(normalize_expr(e.arg), e.exp)]
    if isinstance(e, LamProd):
        return [(normalize_expr(f.arg), f.exp) for f in e.factors]
    raise UnsupportedExpression("expected a lambda expression")


def canonical_state(state: list) -> dict:
    """Fully distributed lambda-exponent map of a factor list."""
    return _fs([(m, exp * c) for fs, exp in state for m, c in fs.items()])


def render_monomial(m) -> str:
    factors, tw = m
    bits = []
    for kind, name, param, dual in factors:
        mark = "'" if dual else ""
        if kind == "atom":
            bits.append(name + mark)
        elif kind == "sym":
            bits.append(f"Sym{param}({name}{mark})")
        else:
            bits.append(f"Rp{param}({name}){mark}")
    if tw:
        bits.append("T")
    return "*".join(bits) if bits else "O"


def render_canonical(canon) -> list[str]:
    return [f"{c}@{render_monomial(m)}" for m, c in canon]


# ----------------------------------------------------------------------
# expression strings (script files)


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_INT = re.compile(r"-?[0-9]+\Z")
_NAME = re.compile(r"[A-Za-z_]\w*\Z")

# Deepest form nesting parse_expr accepts. The shipped chains nest at most 8
# deep; the cap keeps parsing and the recursive normalization of a parsed
# tree well inside Python's recursion limit.
MAX_NESTING = 200


def parse_expr(text: str):
    """Parse one s-expression; forms nested deeper than MAX_NESTING are rejected."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def parse(depth=0):
        nonlocal pos
        if pos >= len(tokens):
            raise ScriptError("unexpected end of expression")
        t = tokens[pos]
        pos += 1
        if t == ")":
            raise ScriptError("unexpected ')'")
        if t != "(":
            if t == "O":
                return O
            if t == "T":
                return T
            if _NAME.match(t):
                return Atom(t)
            raise ScriptError(f"bad token {t!r}")
        if depth >= MAX_NESTING:
            raise ScriptError(f"expression nests deeper than {MAX_NESTING} forms")
        if pos >= len(tokens) or tokens[pos] in ("(", ")"):
            raise ScriptError("expected a form head")
        head = tokens[pos]
        pos += 1
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(" or not _INT.match(tokens[pos]):
                args.append(parse(depth + 1))
            else:
                try:
                    args.append(int(tokens[pos]))
                except ValueError:  # past Python's int-from-text digit limit
                    digits = len(tokens[pos].lstrip("-"))
                    raise ScriptError(f"a numeral of {digits} digits is too long") from None
                pos += 1
        if pos >= len(tokens):
            raise ScriptError("missing ')'")
        pos += 1
        try:
            if head == "dual":
                (inner,) = args
                return Dual(inner)
            if head == "sym":
                j, inner = args
                return Sym(j, inner)
            if head == "*":
                return Ten(*args)
            if head == "lin":
                pairs = list(zip(args[0::2], args[1::2]))
                if len(args) % 2:
                    raise ScriptError("lin needs coefficient/expression pairs")
                return Lin(*pairs)
            if head == "push":
                binder, inner = args
                if isinstance(binder, Atom):
                    binder = binder.name
                return Push(binder, inner)
            if head == "lam":
                arg_, exp = args
                return Lam(arg_, exp)
            if head == "prod":
                return LamProd(*args)
        except (TypeError, ValueError) as exc:
            raise ScriptError(f"bad {head!r} form") from exc
        raise ScriptError(f"unknown form {head!r}")

    out = parse()
    if pos != len(tokens):
        raise ScriptError("trailing tokens")
    return out


# ----------------------------------------------------------------------
# axioms
#
# An interpreter takes the formal sum and exponent of the factor a step
# rewrites, and the step's arguments, and returns the [formal sum, exponent]
# factors that replace it; it raises _StepFailure where its law does not apply.


@record
class RewriteAxiom:
    name: str
    law: str
    apply: object


class _AtomAbsent(_StepFailure):
    """Internal: the atom a step rewrites does not occur in its factor."""


def _count_atom(factors, name: str) -> int:
    return sum(1 for k, n, p, d in factors if (k, n, d) == ("atom", name, 0))


def _regroup(fs, exp, args):
    return [[fs, exp]]


def _twist_flip(fs, exp, args):
    name = args["atom"]
    counts = [_count_atom(factors, name) for factors, _tw in fs]
    if not any(counts):
        raise _AtomAbsent(name)
    pairs = [
        ((factors, (tw + n) % 2), c * (-1) ** n)
        for ((factors, tw), c), n in zip(fs.items(), counts)
    ]
    return [[_fs(pairs), exp]]


def _subst(fs, exp, args):
    src, dst = args["src"], args["dst"]

    def hit(k, n):
        return n == src and k in ("atom", "sym")

    if not any(hit(k, n) for factors, _tw in fs for k, n, _p, _d in factors):
        raise _AtomAbsent(src)
    pairs = [
        ((tuple(sorted([(k, dst if hit(k, n) else n, p, d) for k, n, p, d in f])), tw), c)
        for (f, tw), c in fs.items()
    ]
    return [[_fs(pairs), exp]]


def _integer(value, field: str, error=ScriptError) -> int:
    """A number read from a script or held by a tree: an int, never a
    float, a string or a bool."""
    if type(value) is not int:
        raise error(f"{field} must be an integer, got {value!r}")
    return value


def _descend(fs, exp, args):
    mapping = {
        src: (dst, _integer(twd, "map twist"), _integer(sign, "map sign"))
        for src, (dst, twd, sign) in args["map"].items()
    }
    pairs = []
    for (factors, tw), c in fs.items():
        nf = []
        for k, n, p, d in factors:
            if k != "atom" or d != 0:
                raise _StepFailure("descent supports plain atoms only")
            if n not in mapping:
                raise _StepFailure(f"descent does not cover atom {n!r}")
            dst, twd, sign = mapping[n]
            nf.append(("atom", dst, 0, 0))
            tw = (tw + twd) % 2
            c *= sign
        pairs.append(((tuple(sorted(nf)), tw), c))
    out = _fs(pairs)
    multiplier = args.get("multiplier")
    if multiplier is not None:
        out = _fs_mul(out, normalize_expr(multiplier))
    return [[out, exp]]


def _split(fs, exp, args):
    name, plus, minus = args["atom"], args["plus"], args["minus"]
    counts = [_count_atom(factors, name) for factors, _tw in fs]
    if any(n > 1 for n in counts):
        raise _StepFailure("split supports a single occurrence per monomial")
    if not any(counts):
        raise _AtomAbsent(name)
    pairs = []
    for ((factors, tw), c), n in zip(fs.items(), counts):
        if not n:
            pairs.append(((factors, tw), c))
        else:
            rest = tuple(f for f in factors if (f[0], f[1], f[3]) != ("atom", name, 0))
            pairs.append(((tuple(sorted(rest + (("atom", plus, 0, 0),))), tw), c))
            pairs.append(((tuple(sorted(rest + (("atom", minus, 0, 0),))), tw), -c))
    return [[_fs(pairs), exp]]


def _push(fs, exp, args):
    pulled, restrict, binder = args["pulled"], args["restrict"], args["binder"]
    pairs = []
    for (factors, tw), c in fs.items():
        j = seen_pulled = 0
        for k, n, p, d in factors:
            if (k, n, p, d) == ("atom", pulled, 0, 0):
                seen_pulled += 1
            elif (k, n, p, d) == ("atom", binder, 0, 0):
                j += 1
            else:
                raise _StepFailure(f"unexpected factor {n!r} under the pushforward")
        if seen_pulled != 1:
            raise _StepFailure("need exactly one pulled-back factor per monomial")
        nf = [("atom", restrict, 0, 0)]
        if j:
            nf.append(("push", binder, j, 0))
        pairs.append(((tuple(sorted(nf)), (tw - j) % 2), c))
    return [[_fs(pairs), exp]]


def _collapse(fs, exp, args):
    restrict, binder, base = args["restrict"], args["binder"], args["base"]
    k = _integer(args["k"], "cartier-collapse k")
    if not 0 <= k <= MAX_CHAIN_DIM:
        raise ScriptError(f"cartier-collapse needs 0 <= k <= MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
    if exp != 1:
        raise _StepFailure("collapse needs a factor of exponent 1")
    block = Ten(Atom(restrict), Push(binder, _pk_tree(k, _o_plus_twisted(binder))))
    if fs != normalize_expr(block):
        raise _StepFailure("factor is not the pushed polynomial block")
    return [[{((("atom", base, 0, 0),), 0): 1}, 2 ** (k + 1)]]


def _multadd(fs, exp, args):
    a, b = args["a"], args["b"]
    blocks = [o_minus(Atom(x)) for x in args["others"]]
    if fs != normalize_expr(Ten(o_minus(Ten(Atom(a), Atom(b))), *blocks)):
        raise _StepFailure("factor is not a first-slot pairing block")
    return [[normalize_expr(Ten(o_minus(Atom(x)), *blocks)), exp] for x in (a, b)]


AXIOMS: dict[str, RewriteAxiom] = {
    ax.name: ax
    for ax in (
        RewriteAxiom(
            "line-twist-flip",
            "lambda(F{-1}) ~ lambda(F)^(-1): replace -A by +A(x){-1} per occurrence",
            _twist_flip,
        ),
        RewriteAxiom(
            "iso-subst", "substitute along a declared canonical isomorphism src ~ dst", _subst
        ),
        RewriteAxiom(
            "ideal-descent",
            "restriction sequence of the fixed divisor: O - L resolves the direct image "
            "of the structure sheaf of the divisor",
            _descend,
        ),
        RewriteAxiom(
            "quotient-descent",
            "projection formula along the quotient: q^*(J) ~ L{-1} and q^*(q_*(M)) ~ M "
            "on invariant sections",
            _descend,
        ),
        RewriteAxiom("pk-identity", "t * P_k(t) = 2^(k+1) - (2-t)^(k+1)", _regroup),
        RewriteAxiom("binomial", "(O - X)^(x)i = sum_j C(i,j) (-X)^(x)j", _regroup),
        RewriteAxiom(
            "cancel", "formal cancellation / regrouping of identical lambda-monomials", _regroup
        ),
        RewriteAxiom(
            "plus-minus-split",
            "lambda(F) := det(F_+) (x) det(F_-)^(-1): F ~ F_+ - F_-",
            _split,
        ),
        RewriteAxiom(
            "pushforward",
            "projection formula: R p_*(p^*(A) (x) Phi) ~ A (x) R p_*(Phi)",
            _push,
        ),
        RewriteAxiom(
            "cartier-collapse",
            "lambda(i^*(M) (x) P_k(O + N{-1})) ~ lambda(M)^(2^(k+1)) over a Cartier "
            "fixed divisor, applied at k = d",
            _collapse,
        ),
        RewriteAxiom(
            "multadd-split",
            "I(A (x) B, L_2..L_{d+1}) ~ I(A, L_2..L_{d+1}) (x) I(B, L_2..L_{d+1})",
            _multadd,
        ),
    )
}

# The argument keys each interpreter reads, in the order it reads them
# ("multiplier" is optional); a step that passes any other key is a
# ScriptError.
_ARG_KEYS = {
    _regroup: (),
    _twist_flip: ("atom",),
    _subst: ("src", "dst"),
    _descend: ("map", "multiplier"),
    _split: ("atom", "plus", "minus"),
    _push: ("pulled", "restrict", "binder"),
    _collapse: ("restrict", "binder", "base", "k"),
    _multadd: ("a", "b", "others"),
}

# What a malformed script argument or field raises in an interpreter or parser.
_BAD_INPUT = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError)


def _apply_axiom(state: list, axiom: RewriteAxiom, position: int, args: dict) -> list:
    """The factor list after one axiom rewrites the factor at ``position``.

    Arguments an interpreter cannot use, including atom names that are not
    strings and keys it does not read (``_ARG_KEYS``), are a ScriptError
    naming the axiom.
    """
    if not 0 <= position < len(state):
        raise _StepFailure(f"factor position {position} out of range")
    try:
        takes = _ARG_KEYS[axiom.apply]
        extra = args.keys() - set(takes)
        if extra:
            if len(takes) > 1:
                listing = f"only {', '.join(takes[:-1])} and {takes[-1]}"
            else:
                listing = f"only {takes[0]}" if takes else "no arguments"
            got = ", ".join(sorted(map(repr, extra)))
            raise ScriptError(f"axiom {axiom.name!r} takes {listing}; got {got}")
        parts = axiom.apply(*state[position], args)
        if not all(type(f[1]) is str for fs, _exp in parts for m in fs for f in m[0]):
            raise TypeError("atom names must be strings")
    except _AtomAbsent as absent:
        name = absent.args[0]
        raise _StepFailure(f"atom {name!r} does not occur at factor {position}") from None
    except ScriptError:
        raise
    except _BAD_INPUT as exc:
        why = f"{type(exc).__name__}: {exc}"
        raise ScriptError(f"bad arguments for axiom {axiom.name!r}: {why}") from None
    return state[:position] + parts + state[position + 1 :]


# ----------------------------------------------------------------------
# chain scripts


@record
class ChainStep:
    axiom: str
    position: int
    args: dict = {}  # record copies it for each step
    note: str = ""
    expected: object = None

    def __post_init__(self):
        if self.axiom not in AXIOMS:
            raise ScriptError(f"unknown axiom {self.axiom!r}")
        _integer(self.position, "step position")
        if self.expected is None:
            raise ScriptError("every step carries its expected display")


@record
class ChainScript:
    name: str
    start: object
    end: object
    steps: tuple

    def __post_init__(self):
        if not isinstance(self.end, (Lam, LamProd)):
            raise ScriptError("a script ends at a lambda expression")


@record
class ChainReport:
    name: str
    ok: bool
    failed_step: int | None
    reason: str
    rows: tuple
    endpoint_ok: bool

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "steps": [_rendered(row) for row in self.rows],
            "endpoint_ok": self.endpoint_ok,
        }


def _rendered(row: dict) -> dict:
    """A step row as it is serialized: a display mismatch's witness holds
    the expected and got canonical forms, rendered here."""
    witness = row.get("witness")
    if witness is None or "expected" not in witness:
        return row
    return {**row, "witness": {k: render_canonical(canon) for k, canon in witness.items()}}


def _display(e) -> tuple:
    """The canonical form of a display, which must be a lambda expression."""
    if not isinstance(e, (Lam, LamProd)):
        raise UnsupportedExpression("expected a lambda expression")
    return e._canonical


def _rewrite(source, axiom: RewriteAxiom, position: int, args: dict) -> tuple:
    """The canonical form after ``axiom`` rewrites factor ``position`` of the
    display ``source``, kept on ``source`` with the axiom, position and
    ``args`` object it came from. A later call with that axiom and position
    and the same ``args`` object (by identity, never by value) reads it back;
    the kept entry holds ``args``, so its address is never reused. An
    ``args`` dict edited in place after its step ran is not read again. A
    failure raises and is never kept.
    """
    held = source.__dict__
    kept = held.get("_rewrites", ())
    for ax, pos, key, got in kept:
        if ax is axiom and pos == position and key is args:
            return got
    got = _canon_items(canonical_state(_apply_axiom(_state_of(source), axiom, position, args)))
    # replaced whole, never appended to, as the tensor powers are
    held["_rewrites"] = kept + ((axiom, position, args, got),)
    return got


def chain_verify(script: ChainScript) -> ChainReport:
    """Run a script, checking every step against its expected display.

    A step whose display does not match keeps the expected and got
    canonical forms as its witness; they are rendered only when the report
    is serialized (``ChainReport.to_obj``), since a caller that reads only
    ``ok`` and ``failed_step``, as verify-all's corrupted twins do, never
    prints them."""
    source = script.start
    want = _display(source)
    rows = []
    for idx, step in enumerate(script.steps, 1):
        ax = AXIOMS[step.axiom]
        row = {"step": idx, "note": step.note, "axiom": ax.name, "law": ax.law, "ok": False}
        rows.append(row)
        try:
            got = _rewrite(source, ax, step.position, step.args)
        except _StepFailure as fail:
            row["witness"] = {"error": str(fail)}
            return ChainReport(script.name, False, idx, str(fail), tuple(rows), False)
        source = step.expected
        want = _display(source)
        if got != want:
            row["witness"] = {"expected": want, "got": got}
            return ChainReport(script.name, False, idx, "display mismatch", tuple(rows), False)
        row["ok"] = True
    if want != normalize(script.end):
        return ChainReport(script.name, False, None, "endpoint mismatch", tuple(rows), False)
    return ChainReport(script.name, True, None, "", tuple(rows), True)


def corrupt_script(script: ChainScript, step_no: int) -> ChainScript:
    """Replace one step's expected display with a tampered one."""
    if not 1 <= step_no <= len(script.steps):
        raise ScriptError(f"no step {step_no}")
    steps = list(script.steps)
    s = steps[step_no - 1]
    tampered = LamProd(
        *(s.expected.factors if isinstance(s.expected, LamProd) else [s.expected]),
        Lam(O, 1),
    )
    steps[step_no - 1] = ChainStep(s.axiom, s.position, s.args, s.note, tampered)
    return ChainScript(script.name + f"#corrupt{step_no}", script.start, script.end, tuple(steps))


# ----------------------------------------------------------------------
# script files


def _args_from_obj(obj: dict) -> dict:
    out = {}
    for k, v in obj.items():
        if isinstance(v, dict) and set(v) == {"expr"}:
            out[k] = parse_expr(v["expr"])
        else:
            out[k] = v
    return out


def script_from_obj(obj: dict) -> ChainScript:
    try:
        steps = tuple(
            ChainStep(
                axiom=rec["axiom"],
                position=rec["position"],
                args=_args_from_obj(rec.get("args", {})),
                note=rec.get("note", ""),
                expected=parse_expr(rec["expected"]),
            )
            for rec in obj["steps"]
        )
        return ChainScript(
            name=str(obj.get("name", "script")),
            start=parse_expr(obj["start"]),
            end=parse_expr(obj["end"]),
            steps=steps,
        )
    except ScriptError:
        raise
    except _BAD_INPUT as exc:
        raise ScriptError(f"malformed script: {exc}") from exc


def script_from_file(path: str) -> ChainScript:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ScriptError(f"cannot read script file {path!r}: {exc}") from exc
    return script_from_obj(obj)


# ----------------------------------------------------------------------
# built-in scripts


def _o_plus_twisted(name: str) -> Lin:
    """The block O + name{-1}."""
    return Lin((1, O), (1, Ten(Atom(name), T)))


def _pk_tree(k: int, arg) -> Lin:
    """P_k evaluated at a virtual class: sum_i 2^(k-i) (2O - arg)^(x)i."""
    two_minus = Lin((2, O), (-1, arg))
    return Lin(*(((2 ** (k - i)), tpow(two_minus, i)) for i in range(k + 1)))


def script_invfunc_a_k(k: int = 1) -> ChainScript:
    """The eleven-step chain from the restricted polynomial block to
    lambda(M)^(2^(k+1)) times two pairing blocks."""
    if k < 1:
        raise ScriptError("need k >= 1")
    iM, iL, N, M, L = Atom("iM"), Atom("iL"), Atom("N"), Atom("M"), Atom("L")
    qM, qMp, qMm, J = Atom("qM"), Atom("qMp"), Atom("qMm"), Atom("J")
    e = 2 ** (k + 1)
    # one node per repeated power, so each is normalized once (see _Tree)
    lt_pow = tpow(o_minus(Ten(L, T)), k + 1)
    j_pow = tpow(o_minus(J), k + 1)

    start = Lam(Ten(iM, _pk_tree(k, o_minus(iL))))
    disp_a = Lam(Ten(iM, _pk_tree(k, Lin((1, O), (1, Ten(iL, T))))))
    disp_b = Lam(Ten(iM, _pk_tree(k, _o_plus_twisted("N"))))
    disp_c = Lam(Ten(M, o_minus(L), _pk_tree(k, o_minus(L))))
    disp_d = Lam(
        Ten(M, Lin((e, O), (-1, tpow(Lin((2, O), (-1, o_minus(L))), k + 1))))
    )
    disp_e = Lam(
        Ten(
            M,
            Lin((e, O), (-1, tpow(Lin((2, O), (-1, _o_plus_twisted("L"))), k + 1))),
        )
    )
    disp_f = Lam(Ten(M, Lin((e, O), (-1, lt_pow))))
    disp_g = LamProd(
        Lam(M, e),
        Lam(Ten(M, lt_pow), -1),
    )
    disp_h = LamProd(
        Lam(M, e),
        Lam(Ten(qM, j_pow), -1),
    )
    disp_i = LamProd(
        Lam(M, e),
        Lam(Ten(Lin((1, qMp), (-1, qMm)), j_pow), -1),
    )
    disp_j = LamProd(
        Lam(M, e),
        Lam(
            Ten(
                Lin((1, o_minus(qMm)), (-1, o_minus(qMp))),
                j_pow,
            ),
            -1,
        ),
    )
    disp_k = LamProd(
        Lam(M, e),
        Lam(Ten(o_minus(qMm), j_pow), -1),
        Lam(Ten(o_minus(qMp), j_pow), 1),
    )

    steps = (
        ChainStep("line-twist-flip", 0, {"atom": "iL"}, "a", disp_a),
        ChainStep("iso-subst", 0, {"src": "iL", "dst": "N"}, "b", disp_b),
        ChainStep(
            "ideal-descent",
            0,
            {
                "map": {"iM": ["M", 0, 1], "N": ["L", 1, -1]},
                "multiplier": o_minus(L),
            },
            "c",
            disp_c,
        ),
        ChainStep("pk-identity", 0, {}, "d", disp_d),
        ChainStep("line-twist-flip", 0, {"atom": "L"}, "e", disp_e),
        ChainStep("cancel", 0, {}, "f", disp_f),
        ChainStep("cancel", 0, {}, "g", disp_g),
        ChainStep(
            "quotient-descent",
            1,
            {"map": {"M": ["qM", 0, 1], "L": ["J", 1, 1]}},
            "h",
            disp_h,
        ),
        ChainStep(
            "plus-minus-split",
            1,
            {"atom": "qM", "plus": "qMp", "minus": "qMm"},
            "i",
            disp_i,
        ),
        ChainStep("cancel", 1, {}, "j", disp_j),
        ChainStep("cancel", 1, {}, "k", disp_k),
    )
    return ChainScript("invfunc-a-k", start, disp_k, steps)


def script_invfunc_l_p(d: int = 1) -> ChainScript:
    """The blow-up chain: push the polynomial block down the exceptional
    fibration and collapse to lambda(M)^(2^(d+1))."""
    if d < 1:
        raise ScriptError("need d >= 1")
    muM, iM, bM, M = Atom("muM"), Atom("iM"), Atom("bM"), Atom("M")
    binder = "Nt"
    Nt = Atom(binder)
    # shared factor objects, so each tensor power is formed once (see _Tree)
    plus_twisted = _o_plus_twisted(binder)
    two_minus = Lin((2, O), (-1, plus_twisted))
    twisted = Ten(Nt, T)
    one_minus = o_minus(twisted)
    twisted_pows = [tpow(twisted, j) for j in range(d + 1)]

    start = Lam(Ten(muM, _pk_tree(d, plus_twisted)))
    inner_l = Lin(
        (2 ** d, O),
        *((2 ** (d - i), tpow(two_minus, i)) for i in range(1, d + 1)),
    )
    disp_l = Lam(Ten(iM, Push(binder, inner_l)))
    inner_m = Lin(
        (2 ** d, O),
        *((2 ** (d - i), tpow(one_minus, i)) for i in range(1, d + 1)),
    )
    disp_m = Lam(Ten(iM, Push(binder, inner_m)))
    from math import comb

    inner_n = Lin(
        *(
            (2 ** (d - i) * (-1) ** j * comb(i, j), twisted_pows[j])
            for i in range(d + 1)
            for j in range(i + 1)
        )
    )
    disp_n = Lam(Ten(iM, Push(binder, inner_n)))
    disp_o = Lam(bM, 2 ** (d + 1))
    disp_p = Lam(M, 2 ** (d + 1))

    steps = (
        ChainStep(
            "pushforward",
            0,
            {"pulled": "muM", "restrict": "iM", "binder": binder},
            "l",
            disp_l,
        ),
        ChainStep("cancel", 0, {}, "m", disp_m),
        ChainStep("binomial", 0, {}, "n", disp_n),
        ChainStep(
            "cartier-collapse",
            0,
            {"restrict": "iM", "binder": binder, "base": "bM", "k": d},
            "o",
            disp_o,
        ),
        ChainStep("iso-subst", 0, {"src": "bM", "dst": "M"}, "p", disp_p),
    )
    return ChainScript("invfunc-l-p", start, disp_p, steps)


def script_multadd_d1() -> ChainScript:
    """The five-step trivialization of the extra pairing block at d = 1."""
    Q, L1, L2 = Atom("Q"), Atom("L1"), Atom("L2")

    def I(a, b, exp=1):
        return Lam(Ten(o_minus(a), o_minus(b)), exp)

    start = Lam(Ten(o_minus(Q), o_minus(L1), o_minus(L2)))
    s1 = LamProd(
        I(L1, L2),
        Lam(Ten(Lin((1, Q), (-1, Ten(Q, L1))), o_minus(L2)), -1),
    )
    s2 = LamProd(
        I(L1, L2),
        Lam(
            Ten(
                Lin((1, O), (-1, Ten(L1, Q)), (-1, o_minus(Q))),
                o_minus(L2),
            ),
            -1,
        ),
    )
    s3 = LamProd(
        I(L1, L2),
        Lam(Ten(o_minus(Ten(L1, Q)), o_minus(L2)), -1),
        I(Q, L2),
    )
    s4 = LamProd(
        I(L1, L2),
        I(L1, L2, -1),
        I(Q, L2, -1),
        I(Q, L2),
    )
    end = LamProd()
    steps = (
        ChainStep("cancel", 0, {}, "split off the pairing block", s1),
        ChainStep("cancel", 1, {}, "rewrite the twisted slot", s2),
        ChainStep("cancel", 1, {}, "recognize pairing notation", s3),
        ChainStep(
            "multadd-split",
            1,
            {"a": "L1", "b": "Q", "others": ["L2"]},
            "first-slot multiadditivity",
            s4,
        ),
        ChainStep("cancel", 0, {}, "cancel dual pairs", end),
    )
    return ChainScript("multadd-d1", start, end, steps)


def builtin_chain_names() -> list[str]:
    return ["invfunc-a-k", "invfunc-l-p", "multadd-d1"]


# Largest --dim for the shipped chains. Their P_k trees grow with dim, and a
# monomial of a power f^(x)n is a sorted tuple of n factors, so verifying
# one grows a little faster than dim^2. At dim = 120 a `rewrite --dim` run
# takes 0.93-1.12 s (invfunc-a-k) and 0.60-0.69 s (invfunc-l-p) on a 2-core
# host where a bare `python3 -c pass` takes 44-65 ms.
MAX_CHAIN_DIM = 120


def get_chain(name: str, dim: int = 1) -> ChainScript:
    if name == "multadd-d1":
        if dim != 1:
            raise ScriptError(f"chain {name!r} exists only at dim = 1, got dim = {dim}")
        return script_multadd_d1()
    if dim > MAX_CHAIN_DIM:
        raise ScriptError(f"dim = {dim} exceeds the ceiling MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
    if name == "invfunc-a-k":
        return script_invfunc_a_k(dim)
    if name == "invfunc-l-p":
        return script_invfunc_l_p(dim)
    raise ScriptError(f"unknown chain {name!r}")
