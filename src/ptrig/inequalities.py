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

The verification engine samples claims on grids of strictly interior points
and certifies strict inequalities as margin > combined error budget.  A
margin inside the budget is inconclusive and fails the certificate; it is
never reported as a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

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
    "verify_chain",
    "verify_monotone",
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


_CHAIN_TAGS = frozenset(
    {
        FunctionId.COROLLARY_CHAIN,
        FunctionId.THM1_CHAIN,
        FunctionId.THM2_CHAIN,
        FunctionId.LEM22_CHAIN,
        FunctionId.LEM23_CHAIN,
    }
)

# Claims sampled on (0, pi_p/2); the rest live on the hyperbolic interval.
_CIRCULAR_TAGS = frozenset(
    {
        FunctionId.THM1_F,
        FunctionId.THM2_G,
        FunctionId.LEM22_F,
        FunctionId.THM1_CHAIN,
        FunctionId.THM2_CHAIN,
        FunctionId.LEM22_CHAIN,
        FunctionId.COROLLARY_CHAIN,
    }
)

CANONICAL_DIRECTION = {
    FunctionId.THM1_F: "increasing",
    FunctionId.THM2_G: "increasing",
    FunctionId.LEM22_F: "decreasing",
    FunctionId.LEM23_G: "increasing",
    FunctionId.LEM24_GAP: "increasing",
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


@_kept
def _zseries(fam: _Family) -> series.SmallZSeries:
    return series.primitives(fam.pf)


@_kept
def _consts(fam: _Family) -> tuple:
    """(alpha, beta, beta_err, lam, lam_err) with lam = log(pi_p/2)."""
    pf = fam.pf
    ph, ph_err = fam.half
    ch = cosh_p(ph, pf)
    lch = math.log(ch.value)
    lam = math.log(ph)
    lam_err = ph_err / ph + 2.0 * _EPS * abs(lam)
    beta = lam / lch
    beta_err = (
        lam_err / lch
        + abs(beta) * (ch.abs_err / ch.value) / lch
        + 4.0 * _EPS * abs(beta)
    )
    alpha = 1.0 / (1.0 + pf)
    return alpha, beta, beta_err, lam, lam_err


def sharp_constants(p: float) -> SharpConstants:
    fam = _FAMILIES[p, None]
    alpha, beta, _, _, _ = _consts(fam)
    return SharpConstants(alpha=alpha, beta=beta, p=fam.pf)


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


def _ratio(num: float, num_err: float, den: float, den_err: float, scale: float = 1.0) -> Evaluation:
    v = scale * (num / den)
    rel = num_err / abs(num) + den_err / abs(den)
    return Evaluation(v, abs(v) * rel + 2.0 * _EPS * abs(v))


def _require_circular(fam: _Family, x: float) -> None:
    ph_v, _ = fam.half
    if not 0.0 < x < ph_v:
        raise DomainError(f"x must lie strictly inside (0, pi_p/2 = {ph_v}), got {x}")


def _require_positive(x: float) -> None:
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")


def _primitive(fam: _Family, name: str, x: float, z: Optional[float]) -> tuple:
    """The primitive named as in series.SmallZSeries at x, with its error:
    from its z-series and truncation bound when z is given, else by _DIRECT."""
    if z is None:
        return _DIRECT[name](fam, x)
    q = getattr(_zseries(fam), name)
    return series.zp_eval(q, z), series.zp_trunc_err(q, z)


def _ratio_functional(
    fam: _Family, x: float, num: str, den: str, limit: float, scale: float = 1.0
) -> Evaluation:
    """scale * num/den for two primitives named as in series.SmallZSeries;
    limit is the value as z -> 0, returned below the z-floor."""
    z = _series_z(fam.pf, x)
    if z is not None and z <= _Z_FLOOR:
        return Evaluation(limit, 4.0 * _EPS * limit)
    return _ratio(*_primitive(fam, num, x, z), *_primitive(fam, den, x, z), scale=scale)


def thm1_f(x: float, p: float) -> Evaluation:
    """log(x/sin_p(x)) / log(sinh_p(x)/x); increasing on (0, pi_p/2) from 1."""
    fam = _FAMILIES[p, None]
    _require_circular(fam, x)
    return _ratio_functional(fam, x, "l1", "l2", 1.0)


def thm2_g(x: float, p: float) -> Evaluation:
    """log(x/sin_p(x)) / log(cosh_p(x)); increasing on (0, pi_p/2) from 1/(1+p)."""
    fam = _FAMILIES[p, None]
    _require_circular(fam, x)
    return _ratio_functional(fam, x, "l1", "l3", 1.0 / (1.0 + fam.pf))


def lem22_f(x: float, p: float) -> Evaluation:
    """p sin_p log(x/sin_p) / (sin_p - x cos_p); decreasing on (0, pi_p/2) from 1."""
    fam = _FAMILIES[p, None]
    _require_circular(fam, x)
    return _ratio_functional(fam, x, "l1", "d", 1.0, scale=fam.pf)


def lem23_g(x: float, p: float) -> Evaluation:
    """p sinh_p log(sinh_p/x) / (x cosh_p - sinh_p); increasing on (0, inf), 1 to p."""
    fam = _FAMILIES[p, None]
    _require_positive(x)
    return _ratio_functional(fam, x, "l2", "e", 1.0, scale=fam.pf)


def lem24_gap(x: float, p: float) -> Evaluation:
    """log cosh_p(x) - (x/p) tanh_p(x)^(p-1), strictly positive for x > 0."""
    fam = _FAMILIES[p, None]
    _require_positive(x)
    z = _series_z(fam.pf, x)
    if z is not None and z <= _Z_FLOOR:
        return Evaluation(0.0, 0.0)
    return Evaluation(*_primitive(fam, "lem24", x, z))


_FUNCTIONALS = {
    FunctionId.THM1_F: thm1_f,
    FunctionId.THM2_G: thm2_g,
    FunctionId.LEM22_F: lem22_f,
    FunctionId.LEM23_G: lem23_g,
    FunctionId.LEM24_GAP: lem24_gap,
}


# ---------------------------------------------------------------------------
# chains

def _interval(tag: FunctionId, fam: _Family) -> tuple:
    return 0.0, fam.half[0] if tag in _CIRCULAR_TAGS else _HYP_UPPER


def _chain_terms(fam: _Family, tag: FunctionId) -> tuple:
    """The chain T_0 < T_1 < ... as term logs, and the pairs whose z^1 term cancels.

    A term (num, den, num_err, prim) is log T = num * v / den, where v (with
    error e) is the primitive named prim as in series.SmallZSeries (None for
    T = 1) and num_err bounds the error in num; the term's error is then
    |num| e / den + num_err v.  den keeps p a divisor: -d/p and (-1/p) d
    differ in the last bit.
    """
    pf = fam.pf
    alpha, beta, beta_err, lam, lam_err = _consts(fam)
    sin_ratio = (-1.0, 1.0, 0.0, "l1")  # sin_p(x)/x
    cosh_alpha = (-alpha, 1.0, _EPS * alpha, "l3")  # cosh_p(x)^-alpha
    if tag is FunctionId.THM1_CHAIN:
        return [(-pf, 1.0, 0.0, "l2"), sin_ratio, (-1.0, 1.0, 0.0, "l2")], {1}
    if tag is FunctionId.THM2_CHAIN:
        return [(-beta, 1.0, beta_err, "l3"), sin_ratio, cosh_alpha], {1}
    if tag is FunctionId.LEM22_CHAIN:
        return [(-1.0, pf, 0.0, "d"), sin_ratio, (-lam, 1.0, lam_err, "d")], {0}
    if tag is FunctionId.LEM23_CHAIN:
        return [(1.0, pf, 0.0, "e"), (1.0, 1.0, 0.0, "l2"), (1.0, 1.0, 0.0, "e")], {0}
    if tag is FunctionId.COROLLARY_CHAIN:
        terms = [(-beta, 1.0, beta_err, "l4"), (-beta, 1.0, beta_err, "l3"), sin_ratio, cosh_alpha]
        return terms + [(0.0, 1.0, 0.0, None)], {0, 2}
    raise ValueError(f"{tag} is not a chain claim")


@_kept
def _chain_polys(fam: _Family, tag: FunctionId) -> tuple:
    """Term log-polynomials in z, const-error weights, and zero_coeff'd gaps.

    Returns (polys, cerrs, gap_polys, gap_cerrs) where gap k spans the
    pair (k, k+1).  Pairs whose leading z coefficient cancels analytically
    carry the cancellation removed exactly; evaluating that difference
    polynomial is what keeps margins certifiable down to z ~ 1e-290.
    """
    sz = _zseries(fam)
    terms, cancelling = _chain_terms(fam, tag)
    polys, cerrs = [], []
    for num, den, num_err, prim in terms:
        q = series.zp() if prim is None else getattr(sz, prim)
        polys.append(num * q / den)
        cerrs.append(num_err * abs(q))
    gap_polys = []
    gap_cerrs = []
    for k in range(len(polys) - 1):
        gp = polys[k + 1] - polys[k]
        gc = cerrs[k] + cerrs[k + 1]
        if k in cancelling:
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
    THM2_CHAIN's pairs are cross-checked by _thm2_routes_agree.
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
        for num, den, num_err, prim in _chain_terms(fam, tag)[0]:
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
    if tag is FunctionId.THM2_CHAIN:
        _thm2_routes_agree(fam, x, margins, budgets)
    return values, margins, budgets


def _decide(margin: float, budget: float) -> Optional[bool]:
    """True/False when decisive beyond the budget, None when inconclusive."""
    if margin > budget:
        return True
    if margin < -budget:
        return False
    return None


def _thm2_routes_agree(fam: _Family, x: float, margins: list, budgets: list) -> None:
    """Cross-check the chain against alpha < thm2_g < beta at the same point.

    Chain pair 0 is cosh^-beta vs sin/x (sign of beta - g); pair 1 is sin/x
    vs cosh^-alpha (sign of g - alpha).  A decisive disagreement between the
    two routes means the point cannot be reported either way.
    """
    pf = fam.pf
    alpha, beta, beta_err, _, _ = _consts(fam)
    g = thm2_g(x, pf)
    route2 = [
        _decide(beta - g.value, g.abs_err + beta_err),
        _decide(g.value - alpha, g.abs_err + _EPS * alpha),
    ]
    chain = [_decide(m, b) for m, b in zip(margins, budgets)]
    for k, (a, b) in enumerate(zip(chain, route2)):
        if a is not None and b is not None and a != b:
            raise EvaluationFailed(
                "THM2_CHAIN", x, pf,
                RuntimeError(f"chain and sharp-exponent routes disagree at pair {k}"),
            )


# ---------------------------------------------------------------------------
# verifiers: each builds one (x, values, margin, budget) record per point

def _records(claim: str, tag: FunctionId, fam: _Family, grid: Optional[GridSpec], at) -> list:
    """[at(x)] over the grid on tag's interval, a core failure at x raised
    as EvaluationFailed."""
    out = []
    for x in grid_points(grid or GridSpec(), *_interval(tag, fam)):
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


def verify_chain(
    claim: FunctionId,
    p: float,
    grid: Optional[GridSpec] = None,
) -> VerificationReport:
    """Certify every adjacent inequality of a chain on a grid.

    passed requires each pair's value-space margin to exceed its error budget
    at every point.  For THM2_CHAIN the equivalent sharp-exponent bounds
    alpha < thm2_g < beta are checked alongside and must agree pointwise.
    """
    if claim not in _CHAIN_TAGS:
        raise ValueError(f"{claim} is not a chain claim")
    fam = _FAMILIES[p, None]

    def at(x: float) -> tuple:
        return _weakest_pair(x, *_chain_point(claim, fam, x))

    return _report(claim.value, fam.pf, _records(claim.value, claim, fam, grid, at))


def verify_monotone(
    claim: FunctionId,
    p: float,
    grid: Optional[GridSpec] = None,
    direction: Optional[str] = None,
) -> VerificationReport:
    """Check that a functional moves in `direction` along the grid.

    The verdict tolerates reversals inside the shared error budget (reported
    as the claimed direction but leaving passed=false via the margin rule);
    a reversal beyond the budget yields verdict "violated".
    """
    if claim not in _FUNCTIONALS:
        raise ValueError(f"{claim} does not name a scalar functional")
    if direction is None:
        direction = CANONICAL_DIRECTION[claim]
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing|decreasing, got {direction!r}")
    fam = _FAMILIES[p, None]
    fn = _FUNCTIONALS[claim]
    evs = _records(claim.value, claim, fam, grid, lambda x: (x, fn(x, fam.pf)))

    sign = 1.0 if direction == "increasing" else -1.0
    records = [
        (x, (ev.value,), sign * (nxt.value - ev.value), ev.abs_err + nxt.abs_err)
        for (x, ev), (_, nxt) in zip(evs, evs[1:])
    ]
    violated = any(margin < -budget for _, _, margin, budget in records)
    return _report(claim.value, fam.pf, records, "violated" if violated else direction)


def _verify_positive(
    claim: FunctionId, p: float, grid: Optional[GridSpec] = None
) -> VerificationReport:
    fam = _FAMILIES[p, None]
    fn = _FUNCTIONALS[claim]

    def at(x: float) -> tuple:
        ev = fn(x, fam.pf)
        return x, (ev.value,), ev.value, ev.abs_err

    return _report(claim.value, fam.pf, _records(claim.value, claim, fam, grid, at))


def bounds_sandwich(p: float, grid: Optional[GridSpec] = None) -> VerificationReport:
    """Certify 1 < thm1_f < p and alpha < thm2_g < beta at every grid point.

    After taking logs these bounds are THM1_CHAIN, (x/sinh_p)^p < sin_p/x <
    x/sinh_p, and THM2_CHAIN, cosh_p^-beta < sin_p/x < cosh_p^-alpha, so each
    point's four margins and budgets are the two chains' at that point, and
    its values are (thm1_f, thm2_g).
    """
    fam = _FAMILIES[p, None]
    pf = fam.pf

    def at(x: float) -> tuple:
        _, margins1, budgets1 = _chain_point(FunctionId.THM1_CHAIN, fam, x)
        _, margins2, budgets2 = _chain_point(FunctionId.THM2_CHAIN, fam, x)
        values = (thm1_f(x, pf).value, thm2_g(x, pf).value)
        return _weakest_pair(x, values, margins1 + margins2, budgets1 + budgets2)

    records = _records("BOUNDS_SANDWICH", FunctionId.THM1_F, fam, grid, at)
    return _report("BOUNDS_SANDWICH", pf, records)


def verify_claim(
    claim: Union[FunctionId, str],
    p: float,
    grid: Optional[GridSpec] = None,
) -> VerificationReport:
    """Dispatch a claim to its verifier (chain, positivity, or monotonicity)."""
    if isinstance(claim, str):
        try:
            claim = FunctionId[claim.upper()]
        except KeyError:
            raise ValueError(f"unknown claim {claim!r}") from None
    if claim in _CHAIN_TAGS:
        return verify_chain(claim, p, grid)
    if claim is FunctionId.LEM24_GAP:
        return _verify_positive(claim, p, grid)
    return verify_monotone(claim, p, grid)


def is_exploratory(claim: Union[FunctionId, str], p: float) -> bool:
    """True when p sits outside the certified hypotheses for the claim.

    Only the positivity of lem24_gap is certified down to p > 1; every other
    claim assumes p >= 2, and runs below that are reported, never asserted.
    """
    if isinstance(claim, str):
        claim = FunctionId[claim.upper()]
    return _valid_p(p) < 2.0 and claim is not FunctionId.LEM24_GAP
