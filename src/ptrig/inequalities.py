"""Inequality functionals for the p-trigonometric family, with a verifier.

The scalar functionals compare sin_p, sinh_p and cosh_p against the identity
near zero; each one is a ratio whose monotonicity encodes a family of sharp
exponential bounds:

    thm1_f  = log(x/sin_p(x)) / log(sinh_p(x)/x)         increasing, from 1
    thm2_g  = log(x/sin_p(x)) / log(cosh_p(x))           increasing, alpha..beta
    lem22_f = p sin_p log(x/sin_p) / (sin_p - x cos_p)   decreasing, from 1
    lem23_g = p sinh_p log(sinh_p/x) / (x cosh_p - sinh_p)  increasing, 1..p
    lem24_gap = log cosh_p - (x/p) tanh_p^(p-1)          positive for x > 0

with alpha = 1/(1+p) and beta = log(pi_p/2) / log(cosh_p(pi_p/2)).  They are
public evaluators as core's are, through core._served on their claims'
domains, [0, pi_p/2] and x >= 0: at x = 0 each returns its limit, and at
pi_p/2 thm1_f and thm2_g their end values (beta for thm2_g), while lem22_f
meets the pole of its direct route there and raises a PoleError naming the
call.

Every numerator and denominator above vanishes like x^p or x^(p+1), so for
z = x^p below the series switch (series.small_z, which the states of sin_p
and sinh_p share) the functionals and all inequality margins are evaluated
from truncated z-series (see :mod:`.series`): each functional from
the one series of its quotient, exact until rounded once, so it keeps its
accuracy down to z = 0.  A chain's log-terms are balls on both routes, from
the series below the switch and from core's log-space primitives (_DIRECT)
above it; below it, each pair of adjacent members whose constants the exact
engine can carry takes its gap from one series formed exactly and rounded
once, so a leading z order that cancels is exactly 0, never a difference of
values.

Each claim is declared once, in _CLAIMS: its kind, its domain, and the
formula of its functional or the terms of its chain.  verify_claim samples a
claim on a grid of strictly interior points of its domain's window, (0,
pi_p/2) or (0, 3), and certifies strict inequalities as margin > combined
error budget.  A margin inside the budget is inconclusive and fails the
certificate; it is never reported as a counterexample.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

from . import series
from .core import _DIRECT, _circular, _Family, _family, _half_line, _kept, _served, _valid_p, cosh_p
from .numerics import DomainError, Evaluation, NonConvergence, _Record

__all__ = [
    "FunctionId",
    "GridSpec",
    "VerificationReport",
    "SharpConstants",
    "EvaluationFailed",
    "grid_points",
    "sharp_constants",
    "thm1_f",
    "thm2_g",
    "lem22_f",
    "lem23_g",
    "lem24_gap",
    "verify_claim",
    "is_exploratory",
]

class FunctionId(Enum):
    """Claim identifiers: five scalar functionals and five inequality chains."""

    THM1_F = "THM1_F"
    THM2_G = "THM2_G"
    LEM22_F = "LEM22_F"
    LEM23_G = "LEM23_G"
    LEM24_GAP = "LEM24_GAP"
    COROLLARY_CHAIN = "COROLLARY_CHAIN"
    THM1_CHAIN = "THM1_CHAIN"
    THM2_CHAIN = "THM2_CHAIN"
    LEM22_CHAIN = "LEM22_CHAIN"
    LEM23_CHAIN = "LEM23_CHAIN"

    def __str__(self) -> str:
        return self.value


class _Claim(NamedTuple):
    """What the verifier knows about one claim.

    kind is "increasing" or "decreasing" for a monotone functional,
    "positive" for a functional that stays above 0, and "chain" for an
    inequality chain T_0 < T_1 < ...  domain is core's _circular or
    _half_line: a functional claim's evaluator is served on it, and the
    claim is sampled on its window, (0, pi_p/2) or (0, 3).

    A functional's formula is (num, den, scale): scale * num/den, or num
    alone when den is None, for primitives num and den named as in
    series.SmallZSeries.  A chain's formula is its terms (sign, const, prim)
    with log T = sign * const * prim, prim named likewise (None for T = 1).
    scale and const name numbers of _constant.

    route names the functional f whose bounds c_2 < f < c_0, c_k the const
    of term k, restate a three-term chain; the two are cross-checked at every
    point.  The claim's hypotheses hold for p >= p_min.
    """

    kind: str
    domain: Callable
    formula: tuple
    route: Optional[FunctionId] = None
    p_min: float = 2.0


_SIN_RATIO = (-1, "1", "l1")  # sin_p(x)/x

_CLAIMS = {
    FunctionId.THM1_F: _Claim("increasing", _circular, ("l1", "l2", "1")),
    FunctionId.THM2_G: _Claim("increasing", _circular, ("l1", "l3", "1")),
    FunctionId.LEM22_F: _Claim("decreasing", _circular, ("l1", "d", "p")),
    FunctionId.LEM23_G: _Claim("increasing", _half_line, ("l2", "e", "p")),
    FunctionId.LEM24_GAP: _Claim("positive", _half_line, ("lem24", None, "1"), p_min=1.0),
    # cos_p^beta < cosh_p^-beta < sin_p/x < cosh_p^-alpha < 1
    FunctionId.COROLLARY_CHAIN: _Claim("chain", _circular, (
        (-1, "beta", "l4"), (-1, "beta", "l3"), _SIN_RATIO, (-1, "alpha", "l3"), (1, "0", None))),
    # (x/sinh_p)^p < sin_p/x < x/sinh_p
    FunctionId.THM1_CHAIN: _Claim(
        "chain", _circular, ((-1, "p", "l2"), _SIN_RATIO, (-1, "1", "l2"))),
    # cosh_p^-beta < sin_p/x < cosh_p^-alpha
    FunctionId.THM2_CHAIN: _Claim(
        "chain", _circular, ((-1, "beta", "l3"), _SIN_RATIO, (-1, "alpha", "l3")),
        route=FunctionId.THM2_G),
    # exp(-D/p) < sin_p/x < exp(-lam D), D = 1 - x cos_p/sin_p
    FunctionId.LEM22_CHAIN: _Claim(
        "chain", _circular, ((-1, "1/p", "d"), _SIN_RATIO, (-1, "lam", "d"))),
    # exp(E/p) < sinh_p/x < exp(E), E = x cosh_p/sinh_p - 1
    FunctionId.LEM23_CHAIN: _Claim(
        "chain", _half_line, ((1, "1/p", "e"), (1, "1", "l2"), (1, "1", "e"))),
}


class EvaluationFailed(RuntimeError):
    """A verification run hit a point the evaluators could not certify."""

    def __init__(self, claim: str, x: float, p: float, cause: BaseException) -> None:
        super().__init__(f"{claim}: evaluation failed at x={x!r}, p={p!r}: {cause}")
        self.claim = claim
        self.x = x
        self.p = p
        self.cause = cause


_CORE_ERRORS = (DomainError, NonConvergence, OverflowError)  # PoleError is a DomainError


class GridSpec(_Record):
    """Sampling grid: n strictly interior points, offsets as interval fractions."""

    __slots__ = ("n", "spacing", "left_offset", "right_offset")

    def __init__(self, n: int = 200, spacing: str = "cosine",
                 left_offset: float = 1e-4, right_offset: float = 1e-4) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 3:
            raise ValueError(f"GridSpec.n must be an integer >= 3, got {n!r}")
        if spacing not in ("uniform", "log", "cosine"):
            raise ValueError(f"GridSpec.spacing must be uniform|log|cosine, got {spacing!r}")
        for name, off in (("left_offset", left_offset), ("right_offset", right_offset)):
            if not (isinstance(off, (int, float)) and math.isfinite(off) and off >= 1e-4):
                raise ValueError(f"GridSpec.{name} must be a finite fraction >= 1e-4, got {off!r}")
        if left_offset + right_offset >= 1.0:
            raise ValueError("GridSpec offsets consume the whole interval")
        self._set(n, spacing, left_offset, right_offset)


def grid_points(spec: GridSpec, lo: float, hi: float) -> list:
    """Strictly increasing floats inside (lo, hi) as the GridSpec prescribes.

    uniform and cosine match numpy's linspace and cosine formulas bit for
    bit; log may differ from numpy.geomspace by a few ulp.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not hi > lo:
        raise ValueError(f"invalid interval ({lo}, {hi})")
    width = hi - lo
    a = lo + spec.left_offset * width
    b = hi - spec.right_offset * width
    div = spec.n - 1
    if spec.spacing == "uniform":
        step = (b - a) / div
        return [k * step + a for k in range(div)] + [b]
    if spec.spacing == "log":
        if a <= 0.0:
            raise ValueError("log spacing requires a positive left edge")
        la = math.log10(a)
        step = (math.log10(b) - la) / div
        return [a] + [10.0 ** (k * step + la) for k in range(1, div)] + [b]
    return [a + (b - a) * (0.5 * (1.0 - math.cos(math.pi * k / div))) for k in range(spec.n)]


class GridPoint(_Record):
    __slots__ = ("x", "values", "margin")

    def __init__(self, x: float, values: tuple, margin: float) -> None:
        self._set(x, values, margin)


class VerificationReport(_Record):
    __slots__ = ("claim", "p", "points", "min_margin", "monotone_verdict", "passed",
                 "error_budget")

    def __init__(self, claim: str, p: float, points: tuple, min_margin: float,
                 monotone_verdict: str, passed: bool, error_budget: float) -> None:
        self._set(claim, p, points, min_margin, monotone_verdict, passed, error_budget)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "p": self.p,
            "passed": self.passed,
            "min_margin": self.min_margin,
            "monotone_verdict": self.monotone_verdict,
            "points": [
                {"x": pt.x, "margin": pt.margin, "values": list(pt.values)}
                for pt in self.points
            ],
        }


class SharpConstants(_Record):
    """alpha = 1/(1+p) exactly; beta computed from pi_p and cosh_p."""

    __slots__ = ("alpha", "beta", "p")

    def __init__(self, alpha: float, beta: float, p: float) -> None:
        if p >= 2.0 and not 0.0 < alpha < beta < 1.0:
            raise ValueError(f"sharp constants out of order: alpha={alpha}, beta={beta}")
        self._set(alpha, beta, p)


@_kept
def _constant(fam: _Family, name: str) -> tuple:
    """(num, den) for a number the claim table names: its value is num/den,
    num a ball and den a float.  den keeps p a divisor: -d/p and (-1/p) d
    differ in the last bit."""
    pf = fam.pf
    if name == "beta":
        return _beta(fam), 1.0
    if name == "lam":
        return Evaluation(*fam.half).log(), 1.0
    if name == "alpha":
        return 1.0 / (Evaluation(pf, 0.0) + 1.0), 1.0
    den = pf if name == "1/p" else 1.0
    return Evaluation({"0": 0.0, "1": 1.0, "p": pf, "1/p": 1.0}[name], 0.0), den


@_kept
def _beta(fam: _Family) -> Evaluation:
    """beta = lam / log cosh_p(pi_p/2), the one constant that needs cosh_p."""
    return _constant(fam, "lam")[0] / cosh_p(fam.half[0], fam.pf).log()


def sharp_constants(p: float) -> SharpConstants:
    """From p = 2 on, DomainError where beta's ball does not clear alpha's."""
    fam = _family(p)
    alpha, beta = _constant(fam, "alpha")[0], _beta(fam)
    if fam.pf >= 2.0 and not (gap := beta - alpha).value > gap.abs_err:
        raise DomainError(f"beta = {beta.value} is not resolved above alpha at p = {fam.pf}")
    return SharpConstants(alpha=alpha.value, beta=beta.value, p=fam.pf)


@_kept
def _zquotient(fam: _Family, tag: FunctionId) -> tuple:
    """The z-series of the num/den of tag's formula, or of num alone."""
    num, den, _ = _CLAIMS[tag].formula
    if den is None:
        return getattr(fam.zseries, num)
    return fam.zseries.quotient(num, den)


def _functional(tag: FunctionId, fam: _Family, x: float) -> Evaluation:
    """The functional of tag at x, from the formula its claim declares."""
    num, den, scale = _CLAIMS[tag].formula
    z = series.small_z(fam.pf, x)
    if z is not None:
        f = series.zp_ball(_zquotient(fam, tag), z)
    else:
        f = _DIRECT[num](fam, x)
        if den is not None:
            f = f / _DIRECT[den](fam, x)
    if den is None:
        return f
    scale, scale_den = _constant(fam, scale)
    return scale * f / scale_den


@_served(_CLAIMS[FunctionId.THM1_F].domain)
def thm1_f(fam: _Family, x: float) -> Evaluation:
    """log(x/sin_p(x)) / log(sinh_p(x)/x); increasing on [0, pi_p/2] from 1."""
    return _functional(FunctionId.THM1_F, fam, x)


@_served(_CLAIMS[FunctionId.THM2_G].domain)
def thm2_g(fam: _Family, x: float) -> Evaluation:
    """log(x/sin_p(x)) / log(cosh_p(x)); increasing on [0, pi_p/2] from 1/(1+p) to beta."""
    return _functional(FunctionId.THM2_G, fam, x)


@_served(_CLAIMS[FunctionId.LEM22_F].domain)
def lem22_f(fam: _Family, x: float) -> Evaluation:
    """p sin_p log(x/sin_p) / (sin_p - x cos_p); decreasing on [0, pi_p/2) from 1."""
    return _functional(FunctionId.LEM22_F, fam, x)


@_served(_CLAIMS[FunctionId.LEM23_G].domain)
def lem23_g(fam: _Family, x: float) -> Evaluation:
    """p sinh_p log(sinh_p/x) / (x cosh_p - sinh_p); increasing on [0, inf), 1 to p."""
    return _functional(FunctionId.LEM23_G, fam, x)


@_served(_CLAIMS[FunctionId.LEM24_GAP].domain)
def lem24_gap(fam: _Family, x: float) -> Evaluation:
    """log cosh_p(x) - (x/p) tanh_p(x)^(p-1), 0 at 0 and strictly positive for x > 0."""
    return _functional(FunctionId.LEM24_GAP, fam, x)


# Each functional claim's evaluator is the function named after it.  The
# verifier calls it through this plain dict, so a wrapper installed over the
# module-level function, as bench/child.py installs them, is the one that runs.
_FUNCTIONALS = {
    tag: globals()[tag.value.lower()] for tag, claim in _CLAIMS.items() if claim.kind != "chain"
}


# ---------------------------------------------------------------------------
# chains

# The constants of _CLAIMS that are rational in p, as functions of the exact p.
_RATIONAL = {"0": lambda P: 0, "1": lambda P: 1, "p": lambda P: P, "1/p": lambda P: 1 / P,
             "alpha": lambda P: 1 / (1 + P)}


@_kept
def _exact_gaps(fam: _Family, tag: FunctionId) -> tuple:
    """Per pair (k, k+1) of tag's chain, (gap, scale) with log T_(k+1) - log T_k
    = scale * gap(z): gap a z-series formed exactly and rounded once, scale a
    name of _constant, "1" where the two constants are rational in p and
    their one constant where they are the same; None where neither holds.
    A z order that cancels analytically, as z^1 does between the paper's
    sharp neighbours, comes out exactly 0.
    """
    terms = _CLAIMS[tag].formula
    out = []
    for lo, hi in zip(terms, terms[1:]):
        consts = {lo[1], hi[1]}
        scale = "1" if consts <= _RATIONAL.keys() else lo[1] if len(consts) == 1 else None
        weights = [(sign, _RATIONAL[const if scale == "1" else "1"], prim)
                   for sign, const, prim in ((-lo[0], lo[1], lo[2]), hi) if prim is not None]
        out.append(None if scale is None else (fam.zseries.combination(weights), scale))
    return tuple(out)


def _chain_point(tag: FunctionId, fam: _Family, x: float) -> tuple:
    """(term values, pair margins, pair budgets) at one grid point.

    Each log-term is the ball sign * num * prim / den of its constant
    num/den, prim its z-series below the switch and its direct primitive
    above; the sign rides on the float den, where it is exact.  A pair's
    log-space gap is its exact gap below the switch where _exact_gaps has
    one, else the difference of its two terms.  Margins are value-space gaps
    T_(k+1) - T_k computed as T_k expm1(gap), so a tiny gap between O(1)
    terms never passes through a float subtraction of the terms themselves.
    Each budget is the radius of its margin's ball.
    """
    z = series.small_z(fam.pf, x)
    logs = []
    for sign, const, prim in _CLAIMS[tag].formula:
        num, den = _constant(fam, const)
        if prim is None:
            v = 0.0
        elif z is None:
            v = _DIRECT[prim](fam, x)
        else:
            v = series.zp_ball(getattr(fam.zseries, prim), z)
        logs.append(num * v / (sign * den))
    exact = (None,) * len(logs) if z is None else _exact_gaps(fam, tag)
    gaps = [b - a if e is None else _constant(fam, e[1])[0] * series.zp_ball(e[0], z)
            for a, b, e in zip(logs, logs[1:], exact)]
    values = [lg.exp() for lg in logs]
    margins = [t * g.expm1() for t, g in zip(values, gaps)]
    return [t.value for t in values], [m.value for m in margins], [m.abs_err for m in margins]


def _decide(margin: float, budget: float) -> Optional[bool]:
    """True/False when decisive beyond the budget, None when inconclusive."""
    if margin > budget:
        return True
    if margin < -budget:
        return False
    return None


def _chain_at(tag: FunctionId, fam: _Family, x: float) -> tuple:
    """_chain_point's (values, margins, budgets) at x.

    With a route, pair 0 must agree with the sign of c_0 - f and pair 1 with
    that of f - c_2 (see _Claim).  A decisive disagreement between the two
    routes means the point cannot be reported either way.
    """
    values, margins, budgets = _chain_point(tag, fam, x)
    claim = _CLAIMS[tag]
    if claim.route is None:
        return values, margins, budgets
    f = _FUNCTIONALS[claim.route](x, fam.pf)
    hi = _constant(fam, claim.formula[0][1])[0] - f
    lo = f - _constant(fam, claim.formula[2][1])[0]
    route = [_decide(hi.value, hi.abs_err), _decide(lo.value, lo.abs_err)]
    for k, (a, b) in enumerate(zip(map(_decide, margins, budgets), route)):
        if a is not None and b is not None and a != b:
            raise EvaluationFailed(
                tag.value, x, fam.pf,
                RuntimeError(f"chain and sharp-exponent routes disagree at pair {k}"),
            )
    return values, margins, budgets


# ---------------------------------------------------------------------------
# the verifier: one (x, values, ball of the margin) record per point

def _records(claim: str, fam: _Family, xs: list, at) -> list:
    """[at(x) for x in xs], a core failure at x raised as EvaluationFailed."""
    out = []
    for x in xs:
        try:
            out.append(at(x))
        except _CORE_ERRORS as exc:
            raise EvaluationFailed(claim, x, fam.pf, exc) from exc
    return out


def _report(claim: str, pf: float, records: list, verdict: str = "not_checked") -> VerificationReport:
    """passed iff every margin exceeds its budget, the radius of its ball;
    min_margin and error_budget are taken at the first weakest point.  A
    margin is stored plus 0, so one that is 0 prints unsigned."""
    weakest = min(records, key=lambda record: record[2].value)[2]
    return VerificationReport(
        claim=claim,
        p=pf,
        points=tuple(GridPoint(x=x, values=tuple(v), margin=b.value + 0.0) for x, v, b in records),
        min_margin=weakest.value + 0.0,
        monotone_verdict=verdict,
        passed=all(b.value > b.abs_err for _, _, b in records),
        error_budget=weakest.abs_err,
    )


def _claim_id(claim: Union[FunctionId, str]) -> FunctionId:
    if isinstance(claim, FunctionId):
        return claim
    try:
        return FunctionId[claim.upper()]
    except (AttributeError, KeyError):
        raise ValueError(f"unknown claim {claim!r}") from None


def verify_claim(
    claim: Union[FunctionId, str],
    p: float,
    grid: Optional[GridSpec] = None,
) -> VerificationReport:
    """Certify one claim on a grid over its interval.

    A chain passes when every adjacent pair's value-space margin exceeds its
    error budget at every point; a chain with a route must also agree with
    its functional's bounds there.  A positive functional passes when each
    value exceeds its error bound.  Neither has a direction, so their
    verdict reads "not_checked".  A monotone functional passes when each
    step between neighbouring points moves the claimed way by more than
    their summed error bounds; a step the other way beyond them makes the
    verdict "violated".
    """
    tag = _claim_id(claim)
    spec = _CLAIMS[tag]
    fam = _family(p)
    if spec.kind == "chain":
        def at(x: float) -> tuple:
            # A chain point's record is its weakest pair: the smallest margin and its budget.
            values, margins, budgets = _chain_at(tag, fam, x)
            m = min(margins)
            return x, values, Evaluation(m, budgets[margins.index(m)])
    else:
        fn = _FUNCTIONALS[tag]

        def at(x: float) -> tuple:
            ev = fn(x, fam.pf)
            return x, (ev.value,), ev

    xs = grid_points(grid or GridSpec(), *spec.domain.window(fam))
    records = _records(tag.value, fam, xs, at)
    if spec.kind in ("chain", "positive"):
        return _report(tag.value, fam.pf, records)
    up = spec.kind == "increasing"
    steps = [
        (x, values, nxt - ev if up else -(nxt - ev))
        for (x, values, ev), (_, _, nxt) in zip(records, records[1:])
    ]
    violated = any(step.value < -step.abs_err for _, _, step in steps)
    return _report(tag.value, fam.pf, steps, "violated" if violated else spec.kind)


def is_exploratory(claim: Union[FunctionId, str], p: float) -> bool:
    """True when p sits outside the certified hypotheses for the claim.

    Only the positivity of lem24_gap is certified down to p > 1; every other
    claim assumes p >= 2, and runs below that are reported, never asserted.
    """
    return _valid_p(p) < _CLAIMS[_claim_id(claim)].p_min
