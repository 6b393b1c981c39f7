"""Command line front end.

Four verbs: ``eval`` prints one function value with its error bound, ``table``
streams a grid of values over the window of the function's domain (each
evaluator carries it: (0, pi_p/2), (0, 1) or (0, 3)), ``constants`` reports
pi_p and the sharp exponent pair, and ``verify`` runs the inequality engine
and emits its report.  A refusal prints one ``error:`` line.  Output
is fully determined by argv; no environment variables are consulted.  Every
verb evaluates at the library's one precision, so none takes ``--tol``.

Exit codes: 0 success (and, for verify, every requested claim passed),
1 verification failure, 2 usage or domain error, 3 numerical non-convergence.
"""

import argparse
import json
import sys
from typing import Optional, Sequence

from . import core
from .inequalities import (
    EvaluationFailed,
    FunctionId,
    GridSpec,
    grid_points,
    is_exploratory,
    sharp_constants,
    verify_claim,
)
from .numerics import NonConvergence

# Every public evaluator of core that takes (x, p).
_POINT_FNS = {f: getattr(core, f) for f in core.__all__ if f.endswith("_p") and f != "pi_p"}

_CLAIM_NAMES = [tag.value.lower() for tag in FunctionId]


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _cmd_eval(ns: argparse.Namespace) -> int:
    if ns.fn == "pi_p":
        ev = core.pi_p(ns.p)
        x = None
    else:
        ev = _POINT_FNS[ns.fn](ns.x, ns.p)
        x = ns.x
    if ns.format == "json":
        payload = {"fn": ns.fn, "p": ns.p, "x": x, "value": ev.value, "abs_err": ev.abs_err}
        print(json.dumps(payload, indent=2))
    elif ns.format == "csv":
        print("x,value,abs_err")
        print(f"{_fmt17(0.0 if x is None else x)},{_fmt17(ev.value)},{_fmt17(ev.abs_err)}")
    else:
        print(f"{ev.value!r} ± {ev.abs_err:.3e}")
    return 0


def _cmd_table(ns: argparse.Namespace) -> int:
    # The window the evaluator's domain is sampled on; GridSpec's offsets
    # keep its ends out.
    fn = _POINT_FNS[ns.fn]
    xs = grid_points(GridSpec(n=ns.n, spacing=ns.spacing), *fn.domain.window(core._family(ns.p)))
    rows = []
    for x in xs:
        ev = fn(x, ns.p)
        rows.append((x, ev.value, ev.abs_err))
    if ns.format == "json":
        payload = {
            "fn": ns.fn,
            "p": ns.p,
            "points": [{"x": x, "value": v, "abs_err": e} for x, v, e in rows],
        }
        print(json.dumps(payload, indent=2))
    elif ns.format == "csv":
        print("x,value,abs_err")
        for x, v, e in rows:
            print(f"{_fmt17(x)},{_fmt17(v)},{_fmt17(e)}")
    else:
        print(f"{'x':>24} {'value':>24} {'abs_err':>12}")
        for x, v, e in rows:
            print(f"{x:>24.17g} {v:>24.17g} {e:>12.3e}")
    return 0


def _cmd_constants(ns: argparse.Namespace) -> int:
    pip = core.pi_p(ns.p).value
    sc = sharp_constants(ns.p)
    if ns.format == "json":
        payload = {"p": ns.p, "pi_p": pip, "alpha": sc.alpha, "beta": sc.beta}
        print(json.dumps(payload, indent=2))
    elif ns.format == "csv":
        print("name,value")
        for name, v in (("pi_p", pip), ("alpha", sc.alpha), ("beta", sc.beta)):
            print(f"{name},{_fmt17(v)}")
    else:
        print(f"pi_p={pip!r}, alpha={sc.alpha!r}, beta={sc.beta!r}")
    return 0


def _human_verify_line(rep, p: float, tag: FunctionId) -> str:
    status = "PASS" if rep.passed else "FAIL"
    line = (
        f"{rep.claim} p={p:g}: {status}"
        f"  min_margin={rep.min_margin:.6e}  verdict={rep.monotone_verdict}"
        f"  points={len(rep.points)}"
    )
    if is_exploratory(tag, p):
        line += "  [exploratory: p < 2, outside the certified range]"
    return line


def _cmd_verify(ns: argparse.Namespace) -> int:
    spec = GridSpec(n=ns.n, spacing=ns.spacing)
    if ns.claim == "all":
        tags = list(FunctionId)
    else:
        tags = [FunctionId[ns.claim.upper()]]
    reports = [(tag, verify_claim(tag, ns.p, spec)) for tag in tags]
    n_pass = sum(1 for _, rep in reports if rep.passed)
    summary = f"summary: {n_pass}/{len(reports)} passed"

    if ns.format == "json":
        if ns.claim == "all":
            print(json.dumps([rep.to_json_dict() for _, rep in reports], indent=2))
        else:
            print(json.dumps(reports[0][1].to_json_dict(), indent=2))
        # stdout stays a parseable document; the summary goes to the log stream
        print(summary, file=sys.stderr)
    elif ns.format == "csv":
        print("claim,p,passed,min_margin,monotone_verdict")
        for _, rep in reports:
            print(
                f"{rep.claim},{_fmt17(ns.p)},{str(rep.passed).lower()},"
                f"{_fmt17(rep.min_margin)},{rep.monotone_verdict}"
            )
        print(summary, file=sys.stderr)
    else:
        for tag, rep in reports:
            print(_human_verify_line(rep, ns.p, tag))
        print(summary)
    return 0 if n_pass == len(reports) else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=float, required=True, help="family parameter, p > 1")
    sub.add_argument(
        "--format", choices=("csv", "json", "human"), default="human",
        help="output format (default: human)",
    )


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=200, help="grid point count (default: 200)")
    sub.add_argument(
        "--spacing", choices=("uniform", "log", "cosine"), default="cosine",
        help="grid spacing (default: cosine)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrig",
        description="Generalized trigonometric functions and inequality verification.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_eval = verbs.add_parser("eval", help="evaluate one function at one point")
    _add_common(p_eval)
    p_eval.add_argument(
        "--fn", required=True, choices=sorted(_POINT_FNS) + ["pi_p"],
        help="function to evaluate",
    )
    p_eval.add_argument("--x", type=float, default=None, help="evaluation point")
    p_eval.set_defaults(handler=_cmd_eval)

    p_table = verbs.add_parser("table", help="tabulate a function over a grid")
    _add_common(p_table)
    p_table.add_argument(
        "--fn", required=True, choices=sorted(_POINT_FNS), help="function to tabulate",
    )
    _add_grid(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_const = verbs.add_parser("constants", help="print pi_p and the sharp exponents")
    _add_common(p_const)
    p_const.set_defaults(handler=_cmd_constants)

    p_verify = verbs.add_parser("verify", help="run inequality verification")
    _add_common(p_verify)
    p_verify.add_argument(
        "--claim", required=True, choices=_CLAIM_NAMES + ["all"],
        type=str.lower, help="claim identifier, or 'all'",
    )
    _add_grid(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.verb == "eval" and ns.fn != "pi_p" and ns.x is None:
            parser.error(f"--x is required for --fn {ns.fn}")
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)

    try:
        return ns.handler(ns)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EvaluationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, NonConvergence) else 2
    except (ValueError, OverflowError) as exc:  # DomainError and PoleError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
