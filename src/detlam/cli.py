"""Command-line entry point: verification suites with machine-readable reports.

Subcommands cover the coefficient tables, the polynomial identity, the
universal defect, the pairing-block trivializations, concrete-model degree
checks, lattice deductions, rewrite chains, quotient verdicts, and a
one-shot ``verify-all`` suite for CI.

Exit codes: 0 = pass, 1 = a verified check failed, 2 = usage error.
Reports are JSON by default (``--text`` for aligned text) and byte-identical
across runs; timing is written to stderr only.
"""

import argparse
import contextlib
import json
import os
import re
import sys
import time
from functools import cache, partial

from .chowmodel import (
    ModelError,
    builtin_model,
    load_model_file,
    model_hirzebruch,
    model_pn,
    model_pn_x_pm,
)
from .combinat import MAX_POLYID_K, binomial_expansion_check, coeff_table, pk_identity_check
from .exactalg import DomainError, StructureError
from . import grrcheck, kexpr, quotientlab
from .kexpr import ScriptError

__all__ = ["main"]

# Largest verify-all --max-dim, a time budget: a pass runs universal-defect-d1
# up to d{max_dim}, and a warm pass at 4 takes 7.0-7.8 ms on a 2-core host. The
# ducrot checks stop at d = 3 whatever the value.
MAX_VERIFY_DIM = 4

_USAGE_ERRORS = (DomainError, StructureError, ModelError, ScriptError)


# ----------------------------------------------------------------------
# output


def _out(text: str) -> None:
    """Print one block of the report to stdout and flush it.

    A reader that stops early (``detlam verify-all | head -1``) closes the
    pipe, and the next write raises BrokenPipeError. The rest of the output
    then goes to the null device, so the run still finishes and exits with
    the code it earned, and the flush at interpreter exit cannot fail.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)


def _text_lines(obj, indent: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                yield f"{indent}{key}:"
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}{key}: {value}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}- {value}"
    else:
        yield f"{indent}{obj}"


def _emit(args, obj) -> None:
    if args.text:
        _out("\n".join(_text_lines(obj)))
    else:
        _out(json.dumps(obj, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# shared option plumbing


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An integer typed at the command line: ASCII digits with an optional
    leading "-", as model names and variable degrees are read. int() alone
    would also read "1_0", "+3", spaces and non-ASCII digits. The one reader
    of every integer flag and of each ``--line`` value."""
    if _INTEGER.fullmatch(text):
        with contextlib.suppress(ValueError):  # past Python's int-from-text digit limit
            return int(text)
    raise argparse.ArgumentTypeError(f"not an integer: {text[:40]!r}")


def _add_model_flags(sub) -> None:
    sub.add_argument("--model", help="built-in model name (Pn, PnxPm, Hirzebruch, P2, P1xP1, ...)")
    sub.add_argument("--model-file", help="JSON model description")
    sub.add_argument("--n", type=_integer, default=None, help="first projective dimension")
    sub.add_argument("--m", type=_integer, default=None, help="second projective dimension")
    sub.add_argument("--e", type=_integer, default=None, help="Hirzebruch twisting parameter")


def _load_model(args):
    if args.model_file:
        return load_model_file(args.model_file)
    if args.model:
        return builtin_model(args.model, n=args.n, m=args.m, e=args.e)
    raise DomainError("need --model or --model-file")


def _parse_line(model, text):
    parts = [p.strip() for p in str(text).split(",")]
    try:
        values = [_integer(p) for p in parts]
    except argparse.ArgumentTypeError:
        shown = repr(text)  # a big file's line: echo only the ends
        if len(shown) > 80:
            shown = f"{shown[:40]}...{shown[-20:]} ({len(text)} characters)"
        raise DomainError(f"bad --line value {shown}") from None
    names = model.vars.names
    if len(values) != len(names):
        # a file may have thousands of generators: name the ends of the list
        shown = names if len(names) <= 8 else [*names[:3], "...", names[-1]]
        raise DomainError(
            f"--line needs {len(names)} integers for generators {', '.join(shown)}"
        )
    return dict(zip(names, values))


# ----------------------------------------------------------------------
# subcommand handlers: return (exit_code, payload)


def _cmd_coeffs(args):
    return 0, coeff_table(args.dim).to_obj()


def _cmd_polyid(args):
    if not 0 <= args.max_k <= MAX_POLYID_K:
        raise DomainError(f"--max-k must be between 0 and MAX_POLYID_K = {MAX_POLYID_K}")
    failures = [k for k in range(args.max_k + 1) if not pk_identity_check(k)]
    obj = {
        "law": "t * P_k(t) = 2^(k+1) - (2-t)^(k+1)",
        "max_k": args.max_k,
        "failures": failures,
        "ok": not failures,
    }
    return (0 if not failures else 1), obj


def _cmd_universal(args):
    if args.combo == "deligne":
        if args.dim != 1:
            raise DomainError("the Deligne cross-check is a dimension-1 statement")
        combo = grrcheck.deligne_combo_d1()
    else:
        combo = None
    report = grrcheck.universal_report(
        args.dim, combo, allow_degenerate=args.allow_degenerate
    )
    return (0 if report.top_degree_zero else 1), report.to_obj()


def _cmd_ducrot(args):
    factors = args.factors
    defect = grrcheck.ducrot_defect(args.dim, factors)
    obj = {
        "dim": args.dim,
        "factors": factors if factors is not None else args.dim + 2,
        "is_zero": defect.is_zero(),
        "defect": defect.to_obj(),
    }
    return (0 if defect.is_zero() else 1), obj


def _cmd_c1lambda(args):
    model = _load_model(args)
    deg = grrcheck.c1_lambda(model, _parse_line(model, args.line))
    obj = {
        "model": model.name,
        "line": args.line,
        "degree": str(deg),
    }
    return 0, obj


def _cmd_verify_main(args):
    model = _load_model(args)
    report = grrcheck.verify_main_on_model(model, _parse_line(model, args.line))
    return (0 if report.ok else 1), report.to_obj()


def _cmd_euler(args):
    model = _load_model(args)
    chi = grrcheck.euler_char(model, _parse_line(model, args.line))
    obj = {
        "model": model.name,
        "line": args.line,
        "chi": str(chi),
    }
    return 0, obj


def _cmd_picard(args):
    if args.preset:
        symbols, relations = grrcheck.preset_relations(args.preset)
    elif args.symbols:
        symbols = [s.strip() for s in args.symbols.split(",") if s.strip()]
        relations = []
    else:
        raise DomainError("need --preset or --symbols")
    if args.relations:
        relations = list(relations) + [
            chunk.strip() for chunk in args.relations.split(";") if chunk.strip()
        ]
    report = grrcheck.picard_deduce(symbols, relations, args.goal)
    return (0 if report.derivable else 1), report.to_obj()


def _cmd_rewrite(args):
    if args.script:
        script = kexpr.script_from_file(args.script)
    elif args.chain:
        script = kexpr.get_chain(args.chain, args.dim)
    else:
        raise ScriptError("need --chain or --script")
    if args.corrupt is not None:
        script = kexpr.corrupt_script(script, args.corrupt)
    report = kexpr.chain_verify(script)
    return (0 if report.ok else 1), report.to_obj()


def _cmd_quotient(args):
    algebra = quotientlab.GradedAlgebra.from_spec(args.vars)
    obj = quotientlab.quotient_report(algebra, bound=args.bound)
    return (0 if obj["verdict"] != "INCONCLUSIVE" else 1), obj


# ----------------------------------------------------------------------
# verify-all registry


def _chk_coeff_tables():
    if coeff_table(1).entries != (7, -4, 1):
        return {"got": list(coeff_table(1).entries)}
    if coeff_table(2).entries != (31, -26, 16, -6, 1):
        return {"got": list(coeff_table(2).entries)}
    for d in range(1, 7):
        if not binomial_expansion_check(d):
            return {"dim": d, "error": "binomial expansion disagrees with the table"}
    return None


def _chk_poly_identity():
    bad = [k for k in range(65) if not pk_identity_check(k)]
    return {"failures": bad} if bad else None


def _chk_universal(d):
    report = grrcheck.universal_report(d)
    if not report.top_degree_zero:
        return {"dim": d, "top_component": "nonzero"}
    if report.subtop_zero:
        return {"dim": d, "error": "degree-d control component vanished"}
    return None


def _chk_deligne():
    report = grrcheck.universal_report(1, grrcheck.deligne_combo_d1())
    if not report.top_degree_zero:
        return {"top_component": "nonzero"}
    return None


def _chk_ducrot(d):
    # one product chain in the (d+2)-variable ring: its (d+1)-factor prefix
    # is the control, the full product the check
    *_, short, full = grrcheck._ducrot_chain(d, d + 2)
    if not full.is_zero():
        return {"dim": d, "factors": d + 2, "error": "full block not trivial"}
    if short.is_zero():
        return {"dim": d, "factors": d + 1, "error": "short block unexpectedly trivial"}
    return None


def _all_lines_witness(model):
    """None when the identity holds on ``model`` for every line bundle
    (``grrcheck.verify_main_all_lines``), else its first failing monomial."""
    verdict = grrcheck.verify_main_all_lines(model)
    if verdict.ok:
        return None
    alpha, coeff = verdict.failing[0]
    return {
        "monomial": {g: e for g, e in zip(verdict.generators, alpha) if e},
        "coefficient": str(coeff),
        "failing_monomials": len(verdict.failing),
    }


def _chk_family_p1xp1(models):
    model = models(model_pn_x_pm, 1, 1)
    headline = grrcheck.verify_main_on_model(model, {"h": 1, "s": 1})
    if headline.lhs != 32 or headline.rhs != 32 or not headline.ok:
        return {"lhs": str(headline.lhs), "rhs": str(headline.rhs)}
    return _all_lines_witness(model)


def _chk_family_hirzebruch(models):
    for e in (1, 2):
        degree = grrcheck.c1_lambda(models(model_hirzebruch, e), {"z": 1, "f": 0})
        if degree != -e:
            return {"e": e, "degree": degree}
    for e in range(4):
        witness = _all_lines_witness(models(model_hirzebruch, e))
        if witness is not None:
            return {"e": e, **witness}
    return None


def _chk_family_p2xp1(models):
    return _all_lines_witness(models(model_pn_x_pm, 2, 1))


def _chk_mumford(models):
    for e in (1, 2, 3):
        model = models(model_hirzebruch, e)
        one = grrcheck.c1_lambda(model, {"z": -2, "f": -e})
        two = grrcheck.c1_lambda(model, {"z": -4, "f": -2 * e})
        if two != 13 * one:
            return {"e": e, "lambda1": one, "lambda2": two}
    symbols, relations = grrcheck.preset_relations("mumford")
    if not grrcheck.picard_deduce(symbols, relations, "l2 = 13*l1").derivable:
        return {"goal": "l2 = 13*l1"}
    symbols, relations = grrcheck.preset_relations("elliptic")
    if not grrcheck.picard_deduce(symbols, relations, "12*l1 = 0").derivable:
        return {"goal": "12*l1 = 0"}
    return None


def _chk_euler_anchors(models):
    p1 = models(model_pn, 1)
    for a in range(-3, 4):
        chi = grrcheck.euler_char(p1, {"h": a})
        if chi != a + 1:
            return {"space": "P1", "a": a, "chi": chi}
    p2 = models(model_pn, 2)
    for a in range(4):
        chi = grrcheck.euler_char(p2, {"h": a})
        if chi != (a + 1) * (a + 2) // 2:
            return {"space": "P2", "a": a, "chi": chi}
    return None


def _chk_rewrite():
    for name in kexpr.builtin_chain_names():
        script = kexpr.get_chain(name, 1)
        report = kexpr.chain_verify(script)
        if not report.ok:
            return {"chain": name, "failed_step": report.failed_step}
        for i in range(1, len(script.steps) + 1):
            bad = kexpr.chain_verify(kexpr.corrupt_script(script, i))
            if bad.ok or bad.failed_step != i:
                return {"chain": name, "corrupted": i, "failed_step": bad.failed_step}
    return None


def _chk_quotient():
    free = quotientlab.flatness_verdict(
        quotientlab.GradedAlgebra((("x", 1, 1),))
    )
    if free.verdict != "FREE" or free.basis != ("1", "x"):
        return {"case": "k[x] odd", "verdict": free.verdict}
    stuck = quotientlab.flatness_verdict(
        quotientlab.GradedAlgebra((("x", 1, 1), ("y", 1, 1)))
    )
    if stuck.verdict != "NOT-FREE":
        return {"case": "k[x,y] both odd", "verdict": stuck.verdict}
    # the ratio is the basis series 1 + t, and an even variable cancels out
    one_plus_t = (1, 1) + (0,) * (free.bound - 1)
    with_even = quotientlab.flatness_verdict(
        quotientlab.GradedAlgebra((("x", 1, 1), ("y", 1, 0)))
    )
    for case, rep in (("k[x] odd", free), ("k[x,y] y even", with_even)):
        if rep.ratio_coeffs != one_plus_t:
            return {"case": case, "ratio": list(rep.ratio_coeffs)}
    return None


def _build_registry(max_dim: int):
    """The verify-all checks in run order, as ``(name, law, check)`` triples.

    ``check()`` returns None when the law holds and a witness otherwise. The
    ``_chk_*`` functions are looked up when this runs, so a test can replace
    one of them.

    The model rows share one table of built-in models, ``models(build,
    *params)``: each model is built on first use and read back by the rows
    after it. The table belongs to this registry, so each pass builds every
    model it uses, once.
    """
    registry: list[tuple[str, str, object]] = []
    models = cache(lambda build, *params: build(*params))

    def _register(name, law, check):
        registry.append((name, law, check))

    _register(
        "coeff-tables",
        "c_j(d) = sum_{i=j..2d} 2^(2d-i) (-1)^j C(i,j); sum_j c_j(d) = 4^d",
        _chk_coeff_tables,
    )
    _register(
        "poly-identity",
        "t * P_k(t) = 2^(k+1) - (2-t)^(k+1) for k <= 64",
        _chk_poly_identity,
    )
    for d in range(1, max_dim + 1):
        _register(
            f"universal-defect-d{d}",
            "degree-(d+1) component of the main-combination defect vanishes; "
            "degree-d component does not",
            partial(_chk_universal, d),
        )
    _register(
        "deligne-crosscheck",
        "the (18, -18, -6, 6) dual-twisted combination has vanishing degree-2 defect",
        _chk_deligne,
    )
    for d in range(1, min(max_dim, 3) + 1):
        _register(
            f"ducrot-d{d}",
            "lambda of the (d+2)-factor product of (O - L_i) blocks is trivial; "
            "(d+1) factors are not",
            partial(_chk_ducrot, d),
        )
    _register(
        "family-p1xp1",
        "16 * deg lambda(O(1,1)) = 32 = 7*6 - 4*2 - 2 on P1 x P1 -> P1, "
        "and the identity holds for every O(a,b)",
        partial(_chk_family_p1xp1, models),
    )
    _register(
        "family-hirzebruch",
        "deg lambda(O(z)) = -e on the Hirzebruch surface; the main identity "
        "holds for e in 0..3",
        partial(_chk_family_hirzebruch, models),
    )
    _register(
        "family-p2xp1",
        "the d = 2 identity holds on the product family P2 x P1 -> P1",
        partial(_chk_family_p2xp1, models),
    )
    _register(
        "mumford-ratio",
        "deg lambda(Omega^2) = 13 * deg lambda(Omega); 13*l1 = l2 and 12*l1 = 0 "
        "follow in the integer lattice",
        partial(_chk_mumford, models),
    )
    _register(
        "euler-anchors",
        "chi(P1, O(a)) = a + 1 and chi(P2, O(a)) = (a+1)(a+2)/2",
        partial(_chk_euler_anchors, models),
    )
    _register(
        "rewrite-chains",
        "built-in proof chains verify step-by-step; each single-step corruption "
        "fails at the corrupted step",
        _chk_rewrite,
    )
    _register(
        "quotient-verdicts",
        "k[x] (x odd) is FREE over its invariants with basis {1, x}; "
        "k[x,y] (both odd) is NOT-FREE",
        _chk_quotient,
    )
    return registry


def _cmd_verify_all(args):
    if not 1 <= args.max_dim <= MAX_VERIFY_DIM:
        raise DomainError(
            f"--max-dim must be between 1 and MAX_VERIFY_DIM = {MAX_VERIFY_DIM}"
        )
    registry = _build_registry(args.max_dim)
    started = time.perf_counter()
    failed = []
    for name, law, check in registry:
        row = {"name": name, "law": law}
        try:
            witness = check()
        except Exception as exc:  # a crashed check is reported apart from a false identity
            witness = {"error": f"{type(exc).__name__}: {exc}"}
            row.update(ok=False, status="error", witness=witness)
        else:
            row.update(ok=witness is None, witness=witness)
        if not row["ok"]:
            failed.append(name)
        if args.text:
            mark = "PASS" if row["ok"] else row.get("status", "fail").upper()
            text = f"{mark}  {name}"
            if witness is not None:
                text += f"\n      witness: {json.dumps(witness, sort_keys=True)}"
            _out(text)
        else:
            _out(json.dumps(row, sort_keys=True))
    summary = {"overall": not failed, "checks": len(registry), "failed": failed}
    if args.text:
        status = "PASS" if not failed else "FAIL"
        _out(f"{status}: {len(registry) - len(failed)}/{len(registry)} checks")
    else:
        _out(json.dumps(summary, sort_keys=True))
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"verify-all: {len(registry)} checks in {elapsed:.0f} ms", file=sys.stderr)
    return (0 if not failed else 1), None


# ----------------------------------------------------------------------
# parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand's handler is bound here; the handlers look up the
    registry and the checks when they run.
    """
    parser = argparse.ArgumentParser(
        prog="detlam",
        description="Exact verification of determinant-of-cohomology identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--text", action="store_true", help="aligned text output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common], help="exponent table for one dimension")
    p.add_argument("--dim", type=_integer, required=True)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("polyid", parents=[common], help="telescoping polynomial identity")
    p.add_argument("--max-k", type=_integer, default=64)
    p.set_defaults(fn=_cmd_polyid)

    p = sub.add_parser("universal", parents=[common], help="universal defect vanishing")
    p.add_argument("--dim", type=_integer, required=True)
    p.add_argument("--combo", choices=["main", "deligne"], default="main")
    p.add_argument("--allow-degenerate", action="store_true")
    p.set_defaults(fn=_cmd_universal)

    p = sub.add_parser("ducrot", parents=[common], help="pairing-block triviality")
    p.add_argument("--dim", type=_integer, required=True)
    p.add_argument("--factors", type=_integer, default=None)
    p.set_defaults(fn=_cmd_ducrot)

    p = sub.add_parser("c1lambda", parents=[common], help="degree of the determinant line")
    _add_model_flags(p)
    p.add_argument("--line", required=True, help="integer coefficients, comma separated")
    p.set_defaults(fn=_cmd_c1lambda)

    p = sub.add_parser("verify-main", parents=[common], help="main identity on a model")
    _add_model_flags(p)
    p.add_argument("--line", required=True)
    p.set_defaults(fn=_cmd_verify_main)

    p = sub.add_parser("euler", parents=[common], help="Euler characteristic on a model")
    _add_model_flags(p)
    p.add_argument("--line", required=True)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("picard", parents=[common], help="integer lattice deduction")
    p.add_argument("--preset", choices=["mumford", "elliptic"], default=None)
    p.add_argument("--symbols", default=None, help="comma-separated symbol names")
    p.add_argument("--relations", default=None, help="semicolon-separated relations")
    p.add_argument("--goal", required=True)
    p.set_defaults(fn=_cmd_picard)

    p = sub.add_parser("rewrite", parents=[common], help="verify a proof chain")
    p.add_argument("--chain", choices=kexpr.builtin_chain_names(), default=None)
    p.add_argument("--dim", type=_integer, default=1)
    p.add_argument("--script", default=None, help="chain script JSON file")
    p.add_argument("--corrupt", type=_integer, default=None, help="corrupt step N first")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("quotient", parents=[common], help="sign-quotient flatness verdict")
    p.add_argument("--vars", required=True, help='e.g. "x:1:odd,y:1:even"')
    p.add_argument("--bound", type=_integer, default=quotientlab.DEFAULT_BOUND)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("verify-all", parents=[common], help="run every check suite")
    p.add_argument("--max-dim", type=_integer, default=4)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def _attach_line_values(argv):
    """Rewrite ``--line -3,2`` as ``--line=-3,2``.

    argparse reads a token such as ``-3,2`` as an unknown option rather than
    as the value of ``--line``. No detlam option starts with a dash and a
    digit, so such a token after ``--line`` is always its value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--line" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--line={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _attach_line_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payload is not None:
        payload["command"] = args.command
        _emit(args, payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
