"""Inequality functionals for the p-trigonometric family, with a verifier.

The scalar functionals compare sin_p, sinh_p and cosh_p against the identity
near zero; each one is a ratio whose monotonicity encodes a family of sharp
exponential bounds:

    thm1_f  = log(x/sin_p(x)) / log(sinh_p(x)/x)         increasing, from 1
    thm2_g  = log(x/sin_p(x)) / log(cosh_p(x))           increasing, alpha..beta
    lem22_f = p sin_p log(x/sin_p) / (sin_p - x cos_p)   decreasing, from 1
    lem23_g = p sinh_p log(sinh_p/x) / (x cosh_p - sinh_p)  increasing, 1..p
    lem24_gap = log cosh_p - (x/p) tanh_p^(p-1)          positive for x > 0

with alpha = 1/(1+p) and beta = log(pi_p/2) / log(cosh_p(pi_p/2)).

Every numerator and denominator above vanishes like x^p or x^(p+1), so for
z = x^p below a switch point the functionals and all inequality margins are
evaluated from truncated z-series (see :mod:`.series`); adjacent chain
members whose difference loses its leading z order are differenced in
coefficient space, never in value space.  Above the switch the evaluators'
log-space primitives take over.

Each claim is declared once, in _CLAIMS: its kind, its interval, and the
formula of its functional or the terms of its chain.  verify_claim samples a
claim on a grid of strictly interior points and certifies strict
inequalities as margin > combined error budget.  A margin inside the budget
is inconclusive and fails the certificate; it is never reported as a
counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from . import series
from .core import (
    DomainError,
    PoleError,
    _FAMILIES,
    _Family,
    _kept,
    _log_cosh,
    _valid_p,
    _sin_state,
    _sinh_raw,
    cosh_p,
)
from .numerics import _EPS, Evaluation, NonConvergence

__all__ = [
    "FunctionId",
    "GridSpec",
    "GridPoint",
    "VerificationReport",
    "SharpConstants",
    "EvaluationFailed",
    "CANONICAL_DIRECTION",
    "grid_points",
    "sharp_constants",
    "thm1_f",
    "thm2_g",
    "lem22_f",
    "lem23_g",
    "lem24_gap",
    "bounds_sandwich",
    "verify_claim",
    "is_exploratory",
]

# Below z = x^p of this size, series evaluation; above, log primitives.  The
# 4-term truncation bound is ~25 z^3 relative, so the switch sits where that
# drops under ~1e-6 while direct-route cancellation (~eps/z) stays above 1e-13.
_Z_SWITCH = 4e-3
# Below this z even the leading series term denormalizes; return exact limits.
_Z_FLOOR = 1e-290

# The hyperbolic claims, and the CLI's hyperbolic tables, sample (0, 3).
_HYP_UPPER = 3.0


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
    inequality chain T_0 < T_1 < ...  interval is "circular" for claims
    sampled on (0, pi_p/2) and "hyperbolic" for those sampled on
    (0, _HYP_UPPER), whose functionals take any x > 0.

    A functional's formula is (num, den, limit, scale): scale * num/den, or
    num alone when den is None, for primitives num and den named as in
    series.SmallZSeries; limit is its value as z -> 0.  A chain's formula is
    its terms (sign, const, prim) with log T = sign * const * prim, prim
    named likewise (None for T = 1), and cancelling holds the pairs (k, k+1)
    whose z^1 term cancels.  limit, scale and const name values of
    _constant.

    route names the functional f whose bounds c_2 < f < c_0, c_k the const
    of term k, restate a three-term chain; the two are cross-checked at every
    point.  The claim's hypotheses hold for p >= p_min.
    """

    kind: str
    interval: str
    formula: tuple
    cancelling: tuple = ()
    route: Optional[FunctionId] = None
    p_min: float = 2.0


_SIN_RATIO = (-1, "1", "l1")  # sin_p(x)/x

_CLAIMS = {
    FunctionId.THM1_F: _Claim("increasing", "circular", ("l1", "l2", "1", "1")),
    FunctionId.THM2_G: _Claim("increasing", "circular", ("l1", "l3", "alpha", "1")),
    FunctionId.LEM22_F: _Claim("decreasing", "circular", ("l1", "d", "1", "p")),
    FunctionId.LEM23_G: _Claim("increasing", "hyperbolic", ("l2", "e", "1", "p")),
    FunctionId.LEM24_GAP: _Claim("positive", "hyperbolic", ("lem24", None, "0", "1"), p_min=1.0),
    # cos_p^beta < cosh_p^-beta < sin_p/x < cosh_p^-alpha < 1
    FunctionId.COROLLARY_CHAIN: _Claim(
        "chain", "circular",
        ((-1, "beta", "l4"), (-1, "beta", "l3"), _SIN_RATIO, (-1, "alpha", "l3"), (1, "0", None)),
        cancelling=(0, 2),
    ),
    # (x/sinh_p)^p < sin_p/x < x/sinh_p
    FunctionId.THM1_CHAIN: _Claim(
        "chain", "circular", ((-1, "p", "l2"), _SIN_RATIO, (-1, "1", "l2")), cancelling=(1,)
    ),
    # cosh_p^-beta < sin_p/x < cosh_p^-alpha
    FunctionId.THM2_CHAIN: _Claim(
        "chain", "circular", ((-1, "beta", "l3"), _SIN_RATIO, (-1, "alpha", "l3")),
        cancelling=(1,), route=FunctionId.THM2_G,
    ),
    # exp(-D/p) < sin_p/x < exp(-lam D), D = 1 - x cos_p/sin_p
    FunctionId.LEM22_CHAIN: _Claim(
        "chain", "circular", ((-1, "1/p", "d"), _SIN_RATIO, (-1, "lam", "d")), cancelling=(0,)
    ),
    # exp(E/p) < sinh_p/x < exp(E), E = x cosh_p/sinh_p - 1
    FunctionId.LEM23_CHAIN: _Claim(
        "chain", "hyperbolic", ((1, "1/p", "e"), (1, "1", "l2"), (1, "1", "e")), cancelling=(0,)
    ),
}

# The positivity of lem24_gap is certified as its rise from the limit 0.
CANONICAL_DIRECTION = {
    tag: "decreasing" if claim.kind == "decreasing" else "increasing"
    for tag, claim in _CLAIMS.items()
    if claim.kind != "chain"
}


class EvaluationFailed(RuntimeError):
    """A verification run hit a point the evaluators could not certify."""

    def __init__(self, claim: str, x: float, p: float, cause: BaseException) -> None:
        super().__init__(f"{claim}: evaluation failed at x={x!r}, p={p!r}: {cause}")
        self.claim = claim
        self.x = x
        self.p = p
        self.cause = cause


_CORE_ERRORS = (DomainError, PoleError, NonConvergence, OverflowError)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: n strictly interior points, offsets as interval fractions."""

    n: int = 200
    spacing: str = "cosine"
    left_offset: float = 1e-4
    right_offset: float = 1e-4

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise ValueError(f"GridSpec.n must be an integer >= 3, got {self.n!r}")
        if self.spacing not in ("uniform", "log", "cosine"):
            raise ValueError(f"GridSpec.spacing must be uniform|log|cosine, got {self.spacing!r}")
        for name, off in (("left_offset", self.left_offset), ("right_offset", self.right_offset)):
            if not (isinstance(off, (int, float)) and math.isfinite(off) and off >= 1e-4):
                raise ValueError(f"GridSpec.{name} must be a finite fraction >= 1e-4, got {off!r}")
        if self.left_offset + self.right_offset >= 1.0:
            raise ValueError("GridSpec offsets consume the whole interval")


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


@dataclass(frozen=True)
class GridPoint:
    x: float
    values: tuple
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    p: float
    points: tuple
    min_margin: float
    monotone_verdict: str
    passed: bool
    error_budget: float

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


@dataclass(frozen=True)
class SharpConstants:
    """alpha = 1/(1+p) exactly; beta computed from pi_p and cosh_p."""

    alpha: float
    beta: float
    p: float

    def __post_init__(self) -> None:
        if self.p >= 2.0 and not 0.0 < self.alpha < self.beta < 1.0:
            raise ValueError(
                f"sharp constants out of order: alpha={self.alpha}, beta={self.beta}"
            )


def _constant(fam: _Family, name: str) -> tuple:
    """(num, den, err) for a number the claim table names: its value is
    num/den, and err bounds the error in num.  den keeps p a divisor: -d/p
    and (-1/p) d differ in the last bit."""
    pf = fam.pf
    if name == "beta":
        return _beta(fam)
    if name == "lam":
        ph, ph_err = fam.half
        lam = math.log(ph)
        return lam, 1.0, ph_err / ph + 2.0 * _EPS * abs(lam)
    if name == "alpha":
        alpha = 1.0 / (1.0 + pf)
        return alpha, 1.0, _EPS * alpha
    if name == "1/p":
        return 1.0, pf, 0.0
    return {"0": 0.0, "1": 1.0, "p": pf}[name], 1.0, 0.0


@_kept
def _beta(fam: _Family) -> tuple:
    """beta = lam / log cosh_p(pi_p/2) as _constant gives it, the one
    constant that needs cosh_p."""
    lam, _, lam_err = _constant(fam, "lam")
    ch = cosh_p(fam.half[0], fam.pf)
    lch = math.log(ch.value)
    beta = lam / lch
    beta_err = (
        lam_err / lch
        + abs(beta) * (ch.abs_err / ch.value) / lch
        + 4.0 * _EPS * abs(beta)
    )
    return beta, 1.0, beta_err


def _value(fam: _Family, name: str) -> float:
    num, den, _ = _constant(fam, name)
    return num / den


def sharp_constants(p: float) -> SharpConstants:
    fam = _FAMILIES[p, None]
    return SharpConstants(alpha=_value(fam, "alpha"), beta=_value(fam, "beta"), p=fam.pf)


# ---------------------------------------------------------------------------
# log-space primitives with error bounds, for the direct (z above switch) route

def _l1(fam: _Family, x: float) -> tuple:
    """log(x / sin_p(x)) > 0."""
    s, s_err, _, _ = _sin_state(fam, x)
    v = -math.log1p((s - x) / x)
    return v, (s_err + 2.0 * _EPS * (s + x)) / s


def _l4(fam: _Family, x: float) -> tuple:
    """-log cos_p(x) > 0."""
    _, _, om, om_err = _sin_state(fam, x)
    if om <= 0.0:
        raise PoleError(f"cos_p vanished at x = {x}")
    v = -math.log(om) / fam.pf
    return v, om_err / (fam.pf * om) + 2.0 * _EPS * abs(v)


def _l2(fam: _Family, x: float) -> tuple:
    """log(sinh_p(x) / x) > 0."""
    sh, sh_err = _sinh_raw(fam, x)
    v = math.log1p((sh - x) / x)
    return v, (sh_err + 2.0 * _EPS * (sh + x)) / sh


def _l3(fam: _Family, x: float) -> tuple:
    """log cosh_p(x) > 0."""
    sh, sh_err = _sinh_raw(fam, x)
    v = _log_cosh(fam.pf, sh)
    # d log cosh_p / d sinh_p = sinh^(p-1) / (1 + sinh^p)
    w = math.exp((fam.pf - 1.0) * math.log(sh) - fam.pf * v)
    return v, sh_err * w + 4.0 * _EPS * v


def _dee(fam: _Family, x: float) -> tuple:
    """(sin_p - x cos_p) / sin_p = 1 - x cos_p/sin_p, positive on the domain."""
    l1v, l1e = _l1(fam, x)
    l4v, l4e = _l4(fam, x)
    g = l1v - l4v
    return -math.expm1(g), math.exp(g) * (l1e + l4e)


def _ee(fam: _Family, x: float) -> tuple:
    """(x cosh_p - sinh_p) / sinh_p = x/tanh_p - 1, positive for x > 0."""
    l2v, l2e = _l2(fam, x)
    l3v, l3e = _l3(fam, x)
    g = l3v - l2v
    return math.expm1(g), math.exp(g) * (l2e + l3e)


def _lem24(fam: _Family, x: float) -> tuple:
    """log cosh_p(x) - (x/p) tanh_p(x)^(p-1) > 0."""
    pf = fam.pf
    sh, sh_err = _sinh_raw(fam, x)
    l3v, l3e = _l3(fam, x)
    t = math.exp((pf - 1.0) * (math.log(sh) - l3v))
    t_err = t * (pf - 1.0) * (sh_err / sh + l3e)
    v = l3v - (x / pf) * t
    return v, l3e + (x / pf) * t_err + 2.0 * _EPS * (l3v + (x / pf) * t)


# Direct-route primitive behind each series.SmallZSeries name.
_DIRECT = {"l1": _l1, "l2": _l2, "l3": _l3, "l4": _l4, "d": _dee, "e": _ee, "lem24": _lem24}


def _series_z(pf: float, x: float) -> Optional[float]:
    """z = x^p when the series route applies at x, else None."""
    if x < 1.0:
        z = x ** pf
        if z < _Z_SWITCH:
            return z
    return None


def _primitive(fam: _Family, name: str, x: float, z: Optional[float]) -> tuple:
    """The primitive named as in series.SmallZSeries at x, with its error:
    from its z-series and truncation bound when z is given, else by _DIRECT."""
    if z is None:
        return _DIRECT[name](fam, x)
    q = getattr(fam.zseries, name)
    return series.zp_eval(q, z), series.zp_trunc_err(q, z)


def _functional(tag: FunctionId, x: float, p: float) -> Evaluation:
    """The functional of tag at x, from the formula its claim declares; below
    the z-floor, its limit."""
    fam = _FAMILIES[p, None]
    claim = _CLAIMS[tag]
    if claim.interval == "circular":
        ph_v, _ = fam.half
        if not 0.0 < x < ph_v:
            raise DomainError(f"x must lie strictly inside (0, pi_p/2 = {ph_v}), got {x}")
    elif not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    num, den, limit, scale = claim.formula
    z = _series_z(fam.pf, x)
    if z is not None and z <= _Z_FLOOR:
        v = _value(fam, limit)
        return Evaluation(v, 4.0 * _EPS * v)
    n, n_err = _primitive(fam, num, x, z)
    if den is None:
        return Evaluation(n, n_err)
    d, d_err = _primitive(fam, den, x, z)
    v = _value(fam, scale) * (n / d)
    return Evaluation(v, abs(v) * (n_err / abs(n) + d_err / abs(d)) + 2.0 * _EPS * abs(v))


def thm1_f(x: float, p: float) -> Evaluation:
    """log(x/sin_p(x)) / log(sinh_p(x)/x); increasing on (0, pi_p/2) from 1."""
    return _functional(FunctionId.THM1_F, x, p)


def thm2_g(x: float, p: float) -> Evaluation:
    """log(x/sin_p(x)) / log(cosh_p(x)); increasing on (0, pi_p/2) from 1/(1+p)."""
    return _functional(FunctionId.THM2_G, x, p)


def lem22_f(x: float, p: float) -> Evaluation:
    """p sin_p log(x/sin_p) / (sin_p - x cos_p); decreasing on (0, pi_p/2) from 1."""
    return _functional(FunctionId.LEM22_F, x, p)


def lem23_g(x: float, p: float) -> Evaluation:
    """p sinh_p log(sinh_p/x) / (x cosh_p - sinh_p); increasing on (0, inf), 1 to p."""
    return _functional(FunctionId.LEM23_G, x, p)


def lem24_gap(x: float, p: float) -> Evaluation:
    """log cosh_p(x) - (x/p) tanh_p(x)^(p-1), strictly positive for x > 0."""
    return _functional(FunctionId.LEM24_GAP, x, p)


# Each functional claim's evaluator is the function named after it.  The
# verifier calls it through this plain dict, so a wrapper installed over the
# module-level function, as bench/child.py installs them, is the one that runs.
_FUNCTIONALS = {
    tag: globals()[tag.value.lower()] for tag, claim in _CLAIMS.items() if claim.kind != "chain"
}


# ---------------------------------------------------------------------------
# chains

def _chain_terms(fam: _Family, tag: FunctionId) -> list:
    """The chain's terms as (num, den, num_err, prim): log T = num * v / den,
    where v (with error e) is the primitive prim (None for T = 1) and num_err
    bounds the error in num; the term's error is |num| e / den + num_err v."""
    terms = []
    for sign, const, prim in _CLAIMS[tag].formula:
        num, den, err = _constant(fam, const)
        terms.append((sign * num, den, err, prim))
    return terms


@_kept
def _chain_polys(fam: _Family, tag: FunctionId) -> tuple:
    """Term log-polynomials in z, const-error weights, and zero_coeff'd gaps.

    Returns (polys, cerrs, gap_polys, gap_cerrs) where gap k spans the
    pair (k, k+1).  Pairs whose leading z coefficient cancels analytically
    carry the cancellation removed exactly; evaluating that difference
    polynomial is what keeps margins certifiable down to z ~ 1e-290.
    """
    sz = fam.zseries
    polys, cerrs = [], []
    for num, den, num_err, prim in _chain_terms(fam, tag):
        q = series.zp() if prim is None else getattr(sz, prim)
        polys.append(num * q / den)
        cerrs.append(num_err * abs(q))
    gap_polys = []
    gap_cerrs = []
    for k in range(len(polys) - 1):
        gp = polys[k + 1] - polys[k]
        gc = cerrs[k] + cerrs[k + 1]
        if k in _CLAIMS[tag].cancelling:
            gp = series.zero_coeff(gp, 1)
            # The z^1 coefficient cancels for the exact constants, so their
            # representation error carries no z^1 term either.
            gc = gc.replace(1, 0.0)
        gap_polys.append(gp)
        gap_cerrs.append(gc)
    return tuple(polys), tuple(cerrs), tuple(gap_polys), tuple(gap_cerrs)


def _chain_point(tag: FunctionId, fam: _Family, x: float) -> tuple:
    """(term values, pair margins, pair budgets) at one grid point.

    Margins are value-space gaps T_(k+1) - T_k computed as T_k expm1(gap_k)
    with gap_k the log-space difference, so a tiny gap between O(1) terms
    never passes through a float subtraction of the terms themselves.
    """
    z = _series_z(fam.pf, x)
    if z is not None:
        polys, cerrs, gap_polys, gap_cerrs = _chain_polys(fam, tag)
        logs = [
            (series.zp_eval(q, z), series.zp_trunc_err(q, z) + series.zp_eval(c, z))
            for q, c in zip(polys, cerrs)
        ]
        gaps = [
            (series.zp_eval(q, z), series.zp_trunc_err(q, z) + series.zp_eval(c, z))
            for q, c in zip(gap_polys, gap_cerrs)
        ]
    else:
        logs = []
        for num, den, num_err, prim in _chain_terms(fam, tag):
            v, e = (0.0, 0.0) if prim is None else _DIRECT[prim](fam, x)
            logs.append((num * v / den, abs(num) * e / den + num_err * v))
        gaps = [
            (logs[k + 1][0] - logs[k][0], logs[k][1] + logs[k + 1][1])
            for k in range(len(logs) - 1)
        ]
    values = [math.exp(lv) for lv, _ in logs]
    margins = []
    budgets = []
    for k, (gv, ge) in enumerate(gaps):
        t, t_err = values[k], values[k] * logs[k][1]
        m = t * math.expm1(gv)
        budget = (
            t * math.exp(min(max(gv, 0.0), 50.0)) * ge
            + t_err * abs(math.expm1(gv))
            + 4.0 * _EPS * abs(m)
        )
        margins.append(m)
        budgets.append(budget)
    return values, margins, budgets


def _decide(margin: float, budget: float) -> Optional[bool]:
    """True/False when decisive beyond the budget, None when inconclusive."""
    if margin > budget:
        return True
    if margin < -budget:
        return False
    return None


def _chain_at(tag: FunctionId, fam: _Family, x: float) -> tuple:
    """_chain_point's (values, margins, budgets) at x, and the Evaluation of
    the chain's route functional f there (None without a route).

    With a route, pair 0 must agree with the sign of c_0 - f and pair 1 with
    that of f - c_2 (see _Claim).  A decisive disagreement between the two
    routes means the point cannot be reported either way.
    """
    values, margins, budgets = _chain_point(tag, fam, x)
    claim = _CLAIMS[tag]
    if claim.route is None:
        return values, margins, budgets, None
    f = _FUNCTIONALS[claim.route](x, fam.pf)
    hi, _, hi_err = _constant(fam, claim.formula[0][1])
    lo, _, lo_err = _constant(fam, claim.formula[2][1])
    route = [_decide(hi - f.value, f.abs_err + hi_err), _decide(f.value - lo, f.abs_err + lo_err)]
    for k, (a, b) in enumerate(zip(map(_decide, margins, budgets), route)):
        if a is not None and b is not None and a != b:
            raise EvaluationFailed(
                tag.value, x, fam.pf,
                RuntimeError(f"chain and sharp-exponent routes disagree at pair {k}"),
            )
    return values, margins, budgets, f


# ---------------------------------------------------------------------------
# the verifier: one (x, values, margin, budget) record per point

def _interval(tag: FunctionId, fam: _Family) -> tuple:
    return 0.0, fam.half[0] if _CLAIMS[tag].interval == "circular" else _HYP_UPPER


def _records(claim: str, fam: _Family, xs: list, at) -> list:
    """[at(x) for x in xs], a core failure at x raised as EvaluationFailed."""
    out = []
    for x in xs:
        try:
            out.append(at(x))
        except _CORE_ERRORS as exc:
            raise EvaluationFailed(claim, x, fam.pf, exc) from exc
    return out


def _weakest_pair(x: float, values: tuple, margins: list, budgets: list) -> tuple:
    """The record of a point with several pairs: its smallest margin and that budget."""
    m = min(margins)
    return x, values, m, budgets[margins.index(m)]


def _report(claim: str, pf: float, records: list, verdict: str = "not_checked") -> VerificationReport:
    """passed iff every margin exceeds its budget; min_margin and error_budget
    are taken at the first weakest point."""
    passed = True
    min_margin = math.inf
    budget_at_min = 0.0
    for _, _, margin, budget in records:
        if not margin > budget:
            passed = False
        if margin < min_margin:
            min_margin = margin
            budget_at_min = budget
    return VerificationReport(
        claim=claim,
        p=pf,
        points=tuple(GridPoint(x=x, values=tuple(v), margin=m) for x, v, m, _ in records),
        min_margin=min_margin,
        monotone_verdict=verdict,
        passed=passed,
        error_budget=budget_at_min,
    )


def bounds_sandwich(p: float, grid: Optional[GridSpec] = None) -> VerificationReport:
    """Certify 1 < thm1_f < p and alpha < thm2_g < beta at every grid point.

    After taking logs these bounds are THM1_CHAIN, (x/sinh_p)^p < sin_p/x <
    x/sinh_p, and THM2_CHAIN, cosh_p^-beta < sin_p/x < cosh_p^-alpha, so each
    point's four margins and budgets are the two chains' at that point, and
    its values are (thm1_f, thm2_g), the latter THM2_CHAIN's route.
    """
    fam = _FAMILIES[p, None]
    pf = fam.pf

    def at(x: float) -> tuple:
        _, margins1, budgets1, _ = _chain_at(FunctionId.THM1_CHAIN, fam, x)
        _, margins2, budgets2, g = _chain_at(FunctionId.THM2_CHAIN, fam, x)
        values = (thm1_f(x, pf).value, g.value)
        return _weakest_pair(x, values, margins1 + margins2, budgets1 + budgets2)

    xs = grid_points(grid or GridSpec(), *_interval(FunctionId.THM1_CHAIN, fam))
    return _report("BOUNDS_SANDWICH", pf, _records("BOUNDS_SANDWICH", fam, xs, at))


def _claim_id(claim: Union[FunctionId, str]) -> FunctionId:
    if isinstance(claim, str):
        try:
            return FunctionId[claim.upper()]
        except KeyError:
            raise ValueError(f"unknown claim {claim!r}") from None
    return claim


def verify_claim(
    claim: Union[FunctionId, str],
    p: float,
    grid: Optional[GridSpec] = None,
) -> VerificationReport:
    """Certify one claim on a grid over its interval.

    A chain passes when every adjacent pair's value-space margin exceeds its
    error budget at every point; a chain with a route must also agree with
    its functional's bounds there.  A positive functional passes when each
    value exceeds its error bound.  A monotone functional passes when each
    step between neighbouring points moves the claimed way by more than
    their summed error bounds; a step the other way beyond them makes the
    verdict "violated".
    """
    tag = _claim_id(claim)
    spec = _CLAIMS[tag]
    fam = _FAMILIES[p, None]
    if spec.kind == "chain":
        def at(x: float) -> tuple:
            return _weakest_pair(x, *_chain_at(tag, fam, x)[:3])
    else:
        fn = _FUNCTIONALS[tag]

        def at(x: float) -> tuple:
            ev = fn(x, fam.pf)
            return x, (ev.value,), ev.value, ev.abs_err

    xs = grid_points(grid or GridSpec(), *_interval(tag, fam))
    records = _records(tag.value, fam, xs, at)
    if spec.kind in ("chain", "positive"):
        return _report(tag.value, fam.pf, records)
    sign = 1.0 if spec.kind == "increasing" else -1.0
    steps = [
        (x, values, sign * (nxt - v), err + nxt_err)
        for (x, values, v, err), (_, _, nxt, nxt_err) in zip(records, records[1:])
    ]
    violated = any(margin < -budget for _, _, margin, budget in steps)
    return _report(tag.value, fam.pf, steps, "violated" if violated else spec.kind)


def is_exploratory(claim: Union[FunctionId, str], p: float) -> bool:
    """True when p sits outside the certified hypotheses for the claim.

    Only the positivity of lem24_gap is certified down to p > 1; every other
    claim assumes p >= 2, and runs below that are reported, never asserted.
    """
    return _valid_p(p) < _CLAIMS[_claim_id(claim)].p_min
