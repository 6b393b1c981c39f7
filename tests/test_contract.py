"""The error contract: every call of the public API returns a value or
refuses with one of the package's own errors.

The 13 evaluators and the five functionals are called at arguments from 0
through the subnormals to past the end of the hyperbolic range, and up to
and onto the pole at pi_p/2; pi_p, sharp_constants and verify_claim (on a
5-point grid) at each p, from one ulp above 1 to 1e300.  A call may return,
or raise DomainError (PoleError included), NonConvergence or
EvaluationFailed, never a bare ValueError, ZeroDivisionError or
OverflowError; and no value it returns, of an Evaluation or a sharp
constant, may be -0.0.  A refusal of an (x, p) call names its evaluator
first, or for d_sin_p and d_sinh_p the one they alias.  The command line
refuses the same way: exit 2 and one ``error:`` line, which names the call
it refuses.  Nor does ``verify`` print a -0.0.
"""

import contextlib
import functools
import io
import math
import re
import subprocess
import sys

import pytest

import ptrig
from ptrig import cli
from ptrig import inequalities as iq

EVALUATORS = [
    ptrig.arcsin_p, ptrig.sin_p, ptrig.cos_p, ptrig.tan_p, ptrig.d_sin_p, ptrig.d_cos_p,
    ptrig.arsinh_p, ptrig.sinh_p, ptrig.cosh_p, ptrig.tanh_p, ptrig.d_sinh_p, ptrig.d_cosh_p,
    ptrig.d_tanh_p,
]
FUNCTIONALS = [ptrig.thm1_f, ptrig.thm2_g, ptrig.lem22_f, ptrig.lem23_g, ptrig.lem24_gap]
P_CONTRACT = [1.0 + 2.0 ** -52, 1.0001, 1.5, 2.0, 2.5, 3.0, 7.0, 24.0, 300.0,
              1e4, 1e10, 1e13, 1e16, 1e300]
X_CONTRACT = [0.0, 5e-324, 1e-320, 1e-300, 1e-30, 1e-3, 0.5, 1.0, 3.0,
              700.0, 709.0, 710.0, 711.0]
REFUSALS = (ptrig.DomainError, ptrig.NonConvergence, ptrig.EvaluationFailed)
# The evaluators that serve an alias under its own name.
TARGETS = {ptrig.d_sin_p: ptrig.cos_p, ptrig.d_sinh_p: ptrig.cosh_p}


def _arguments(p):
    """X_CONTRACT, pi_p/2 (1 - 10^-k) for k = 1..16, and pi_p/2 with the last
    30 doubles below it."""
    half = ptrig.pi_p(p).value / 2
    xs = X_CONTRACT + [half * (1.0 - 10.0 ** -k) for k in range(1, 17)] + [half]
    for _ in range(30):
        xs.append(math.nextafter(xs[-1], 0.0))
    return xs


def _breach(call, name=None):
    """None if call() refuses with one of REFUSALS, whose text starts with
    name, the evaluator of an (x, p) call, or returns no -0.0; else what it
    did."""
    try:
        got = call()
    except REFUSALS as exc:
        if name is None or re.match(rf"{name}[( ]", str(exc)):
            return None
        return f"refused without naming {name}: {exc!r}"
    except Exception as exc:
        return repr(exc)
    if isinstance(got, ptrig.SharpConstants):
        values = (got.alpha, got.beta)
    else:
        values = (got.value,) if isinstance(got, ptrig.Evaluation) else ()
    signed = [v for v in values if v == 0.0 and math.copysign(1.0, v) < 0.0]
    return f"returned {signed[0]!r}" if signed else None


@pytest.mark.parametrize("p", P_CONTRACT, ids=repr)
def test_every_call_returns_or_refuses(p):
    calls = [("pi_p", None, functools.partial(ptrig.pi_p, p)),
             ("sharp_constants", None, functools.partial(ptrig.sharp_constants, p))]
    for x in _arguments(p):
        calls += [(fn.__name__, x, functools.partial(fn, x, p)) for fn in EVALUATORS + FUNCTIONALS]
    grid = ptrig.GridSpec(n=5)
    calls += [(tag.value, None, functools.partial(ptrig.verify_claim, tag, p, grid))
              for tag in iq.FunctionId]
    named = {fn.__name__: TARGETS.get(fn, fn).__name__ for fn in EVALUATORS + FUNCTIONALS}
    breaches = [(name, x, what) for name, x, call in calls
                if (what := _breach(call, named[name] if x is not None else None))]
    assert not breaches, breaches[:20]


# Both rest on beta = lam / log cosh_p(pi_p/2): sharp_constants refuses from
# p ~ 3.6e7, where beta's ball no longer clears alpha's, and verify_claim on
# the chains that use beta from p ~ 2.4e12, where beta's ball reaches a pole.
@pytest.mark.parametrize("argv", [["constants", "--p", "1e12"],
                                  ["verify", "--claim", "thm2_chain", "--p", "1e13"]])
def test_cli_refuses_with_one_error_line(argv):
    proc = subprocess.run([sys.executable, "-m", "ptrig.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_pole_error_names_the_call():
    # tan_p at the float nearest pi_p/2, where the ball of cos_p reaches 0.
    argv = ["eval", "--fn", "tan_p", "--x", "1.2091995761561452", "--p", "3"]
    proc = subprocess.run([sys.executable, "-m", "ptrig.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: tan_p(1.2091995761561452, p=3.0): "), proc.stderr


def test_cli_range_error_names_the_call():
    # Past arsinh_p of the largest double, not the sinh_p that tanh_p solves for.
    argv = ["eval", "--fn", "tanh_p", "--x", "800", "--p", "2"]
    proc = subprocess.run([sys.executable, "-m", "ptrig.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: tanh_p(800.0, p=2.0)"), proc.stderr


@pytest.mark.parametrize("p", ["5", "10", "50"])
def test_verify_prints_no_negative_zero(p):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--claim", "all", "--p", p, "--format", "json"])
    assert not re.findall(r"-0\.0\b", out.getvalue())
