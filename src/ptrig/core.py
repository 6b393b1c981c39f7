"""The generalized trigonometric and hyperbolic family for parameter p > 1.

arcsin_p and arsinh_p are the defining integrals

    arcsin_p(x) = integral_0^x (1 - t^p)^(-1/p) dt,   x in [0, 1],
    arsinh_p(x) = integral_0^x (1 + t^p)^(-1/p) dt,   x >= 0.

The circular side is evaluated without quadrature.  The half-period has the
closed form pi_p/2 = pi / (p sin(pi/p)), and with w = x^p, om = 1 - w and
q = 1 - 1/p both arcsin_p and its distance to pi_p/2 are incomplete beta
integrals with positive hypergeometric series (DLMF §8.17):

    arcsin_p(x) = x * sum_k (1/p)_k/k! w^k/(kp + 1),                 w <= 1/2,
    T(om) = pi_p/2 - arcsin_p(x) = (om^q/p) * sum_k (q)_k/k! om^k/(k + q).

Above w = 1/2 arcsin_p(x) = arcsin_p(2^(-1/p)) + T(1/2) - T(om), with the
leading terms of the two T series differenced in closed form, so no digits
are lost as p -> 1 where pi_p/2 grows like 1/(p - 1).  Every term ratio is
below w or om, both at most 1/2, so the dropped tail is at most the last
term kept; with a rounding allowance per term this is the error bound.  The
hyperbolic integral is taken by tanh-sinh quadrature, and below the series
switch by its own series, arsinh_p(x) = x f(-z) in z = x^p.

sin_p and sinh_p invert the integrals by one safeguarded Newton loop, and
near zero by reversion series in z = x^p (see :mod:`.series`), where
inversion would lose the deficit x - sin_p(x) to cancellation; their tail
bound rests on a model sampled against high-precision references.  sin_p
is solved for w = log cos_p^p = log om, so that s^p = -expm1(w) and om = e^w
keep full relative accuracy up to a corner within the uncertainty of pi_p/2
(or with om below the double range), where only a bound on om is reported.
sinh_p is solved for s on a bracket taken from closed-form bounds on
arsinh_p, from its floor where x is above arsinh_p(1), so the steps climb.
The other functions follow from the identities

    cos_p = (1 - sin_p^p)^(1/p),      cosh_p = (1 + sinh_p^p)^(1/p),

which also force the derivative formulas implemented below them.  The
circular functions are defined on [0, pi_p/2] only (no periodic extension);
the hyperbolic ones on x >= 0 up to arsinh_p of the largest double (about
709.8 to 710.8, growing with p), beyond which they raise DomainError.  The
log-space primitives of the functionals and chains of :mod:`.inequalities`
come last, beside the states whose layout they read.

The states of sin_p and sinh_p are balls over an interval that holds the
root: one rule turns the bound on the residual at the solve's last iterate,
its slope and how fast the slope can change into that interval, and below
the series switch the series truncation bounds them.  Every other
evaluator is a ball expression of them and of p, so its abs_err follows by
the one rule of :class:`.numerics.Evaluation`, and margin certification
downstream can budget against it.  There is one precision: the targets
of the quadrature and of the Newton loop are fixed constants below, and
NonConvergence means the quadrature missed its target or the loop ran out of
steps.  Every public evaluator takes (x, p), a finite x, and raises
DomainError outside its domain or past the double range, and PoleError where
a ball reaches a pole (tan_p, and d_cos_p for p > 2, against pi_p/2).

Each p has one family, which keeps a capped memo of per-point states, and
each public evaluator, the functionals of :mod:`.inequalities` among them,
is served by _served on one of three domains, _circular, _unit or
_half_line, each with the window it is sampled on, which the evaluator
carries as its .domain.  _served validates (x, p), refuses what the domain
excludes, names the call in every refusal and keeps its own capped table
of the Evaluations it returned, so a repeated call returns the same object
without recomputing it.
"""

from __future__ import annotations

import math
import sys
import threading
from functools import cached_property, wraps

from . import series
from .numerics import _EPS, _ULP0, DomainError, Evaluation, NonConvergence, PoleError
from .numerics import _centred, integrate

__all__ = [
    "DomainError",
    "PoleError",
    "pi_p",
    "arcsin_p",
    "sin_p",
    "cos_p",
    "tan_p",
    "arsinh_p",
    "sinh_p",
    "cosh_p",
    "tanh_p",
    "d_sin_p",
    "d_cos_p",
    "d_sinh_p",
    "d_cosh_p",
    "d_tanh_p",
]

# The quadrature's absolute and relative targets for arsinh_p.
_QUAD_ABS = 1e-15
_QUAD_REL = 5e-14
# The Newton loop stops after a step below this relative size, and _sinh_raw's
# at a residual below this times 1 + x.
_INV_TOL = 1e-13
# Step cap of the Newton loop of _sin_state and _sinh_raw.
_NEWTON_STEPS = 80
# _sinh_bracket widens the closed-form enclosure of the root in log s by this
# times 1 + x, some 2e4 times the quadrature's error, to hold its root too.
_BOUNDS_MARGIN = 1e-9


def _valid_p(p: float) -> float:
    """p as a float; every definition here requires p finite and > 1.  Text
    is no number, though float() would parse it."""
    try:
        if isinstance(p, (str, bytes, bytearray)):
            raise TypeError
        pf = float(p)
    except TypeError:
        raise TypeError(f"parameter p must be a number, got {type(p).__name__}") from None
    if not (math.isfinite(pf) and pf > 1.0):
        raise ValueError(f"parameter p must be finite and > 1, got {pf}")
    return pf


# ---------------------------------------------------------------------------
# Families and kept results.  At most _FAMILY_CAP families stay registered, and
# as many values of p in each evaluator's results (the oldest goes first).  A
# family's memo is emptied at _MEMO_CAP entries and a table of results at
# _RESULT_CAP: with the sixteen evaluators of _RESULTS (eleven here, the five
# functionals of inequalities), at most 16 * 16,384 states and
# 16 * 16 * 1,024 results are kept.  A miss recomputes exactly what
# a hit returns, so values never depend on cache state.
_FAMILY_CAP = 16
_MEMO_CAP = 1 << 14
_RESULT_CAP = 1 << 10


class _Family:
    """What depends on p alone: the z-series zseries, the half-period half
    (the one source of pi_p/2 for pi_p, the circular domains and the
    verifiers), the integer exponent cosh_p snaps to (0 for none), the
    integrands of arsinh_p's quadrature (h(u) = (1 + e^(-pu))^(-1/p) and
    h(-log t), built on first use so that numpy loads only then),
    arsinh_p(1), and memo, the one dict in which _kept keeps fn(fam, *key)
    under (fn, *key): the states of _sin_state and _sinh_raw and what other
    modules derive from p."""

    def __init__(self, pf: float) -> None:
        self.pf = pf
        self.q = (pf - 1.0) / pf
        self.snap = int(pf) if pf.is_integer() and 2.0 <= pf <= 64.0 else 0
        self.memo = {}

    @cached_property
    def zseries(self) -> series.SmallZSeries:
        """The z-series near 0: sin_p and sinh_p for the states here, the
        primitives for the functionals and chains in inequalities."""
        return series.SmallZSeries(self.pf)

    @cached_property
    def half(self) -> tuple[float, float]:
        """pi_p/2 = pi / (p sin(pi/p)) and its error bound.

        Below p = 2 the same sine is taken at pi q = pi - pi/p, an angle in
        (0, pi/2) that keeps full relative accuracy as p -> 1.
        """
        theta = math.pi / self.pf if self.pf >= 2.0 else math.pi * self.q
        v = math.pi / (self.pf * math.sin(theta))
        return v, 4.0 * _EPS * v

    @cached_property
    def pi(self) -> Evaluation:
        """pi_p = 2 arcsin_p(1), the one Evaluation pi_p returns for the family."""
        return 2.0 * Evaluation(*self.half)

    @cached_property
    def glue(self) -> tuple[float, float]:
        """arcsin_p(2^(-1/p)) + T(1/2) less its k = 0 term, with its error bound."""
        pf, q = self.pf, self.q
        sa, ea = _beta_tail(1.0 / pf, 0.5)
        sq, eq = _beta_tail(q, 0.5)
        root, hq = 0.5 ** (1.0 / pf), 0.5 ** q
        v = root * (1.0 + sa / pf) + hq * sq / pf
        return v, (root * ea + hq * eq) / pf + 4.0 * _EPS * v

    @cached_property
    def integrands(self) -> tuple:
        """arsinh_p's two integrands, from _hyp_integrand: h above 1 and
        h(-log t) on [0, 1]."""
        return _hyp_integrand(self.pf)

    @cached_property
    def arsinh_one(self) -> Evaluation:
        """arsinh_p(1), the base of arsinh_p above 1."""
        return _arsinh_quad(self, 1.0)


# Validated float p -> its _Family.  An int or numpy p finds its float key.
_FAMILIES: dict = {}
# Public evaluator name -> its results: validated float p -> {x: Evaluation}.
_RESULTS: dict = {}
_LOCK = threading.Lock()


def _filed(registry: dict, pf: float, make):
    """registry[pf], filed as make() if absent, the oldest entry dropped
    first once registry holds _FAMILY_CAP."""
    with _LOCK:
        got = registry.get(pf)
        if got is None:
            if len(registry) >= _FAMILY_CAP:
                del registry[next(iter(registry))]
            got = registry[pf] = make()
        return got


def _family(p: float) -> _Family:
    """The family of p; a miss validates p."""
    try:
        return _FAMILIES[p]
    except (KeyError, TypeError):  # TypeError: an unhashable p
        pf = _valid_p(p)
        return _filed(_FAMILIES, pf, lambda: _Family(pf))


def _kept(fn):
    """Keep fn(fam, *key) in fam.memo under (fn, *key), emptying the memo
    first once it holds _MEMO_CAP entries.  It keeps the states and what
    inequalities derives from p; public results are kept by _served."""

    @wraps(fn)
    def kept(fam: _Family, *key):
        memo = fam.memo
        got = memo.get((fn, *key))
        if got is None:
            got = fn(fam, *key)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[(fn, *key)] = got
        return got

    return kept


def _served(domain):
    """Serve body(fam, x) as the public evaluator (x, p), and keep each result
    in the evaluator's own table, _RESULTS[name][float p][x].  It serves the
    evaluators here and the functionals of inequalities alike.

    A hit is two dict lookups and nothing else: an int, float or numpy p
    finds its float key.  A miss looks up the family, which validates p,
    checks x with domain(fam, name, x), which raises DomainError naming the
    evaluator, and stores the result.  A call that raised raises again: a
    result past the double range as a DomainError naming the call, and a
    DomainError (PoleError included) or NonConvergence from body prefixed
    with the call it refuses.  The evaluator carries domain as its .domain.
    """

    def wrap(body):
        name = body.__name__
        results = _RESULTS[name] = {}

        def serve(x: float, p: float) -> Evaluation:
            try:
                return results[p][x]
            except (KeyError, TypeError):  # TypeError: an unhashable p or x
                pass
            fam = _family(p)
            table = results.get(fam.pf)
            if table is None:
                table = _filed(results, fam.pf, dict)
            domain(fam, name, x)
            try:
                got = body(fam, x)
            except OverflowError:
                raise DomainError(f"{name}({x}, p={fam.pf}) exceeds floating-point range") from None
            except (DomainError, NonConvergence) as exc:
                raise type(exc)(f"{name}({x}, p={fam.pf}): {exc}") from None
            if len(table) >= _RESULT_CAP:
                table.clear()
            table[x] = got
            return got

        # Not functools.wraps: its __wrapped__ would show body's (fam, x)
        # as the public signature.
        serve.__name__ = serve.__qualname__ = name
        serve.__doc__ = body.__doc__
        serve.domain = domain
        return serve

    return wrap


# The domains of the public evaluators; each requires a finite x and
# carries the window (lo, hi) = window(fam) its evaluators are sampled on, by
# the claims of inequalities and the CLI's tables.  The half-line's is the
# desk-scale (0, _HYP_UPPER) of the paper's hyperbolic claims.
_HYP_UPPER = 3.0


def _circular(fam: _Family, name: str, x: float) -> None:
    # An argument may exceed pi_p/2 by its error bound and a few ulp.
    ph_v, ph_e = fam.half
    if not 0.0 <= x <= ph_v + (ph_e + 4.0 * _EPS * ph_v):
        raise DomainError(f"{name} requires x in [0, pi_p/2 = {ph_v}], got {x}")


def _unit(fam: _Family, name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} requires x in [0, 1], got {x}")


def _half_line(fam: _Family, name: str, x: float) -> None:
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} requires finite x >= 0, got {x}")


_circular.window = lambda fam: (0.0, fam.half[0])
_unit.window = lambda fam: (0.0, 1.0)
_half_line.window = lambda fam: (0.0, _HYP_UPPER)


# ---------------------------------------------------------------------------
# Defining integrals


def _beta_tail(a: float, x: float) -> tuple[float, float]:
    """S = sum_{k>=1} (a)_k/k! x^k/(k+a) and its error bound, 0 < a < 1, 0 <= x <= 1/2.

    x^a (1/a + S) is the incomplete beta integral of u^(a-1) (1-u)^(-a) over
    [0, x].  Every term is positive and each term ratio
    (a+k)^2 x / ((k+1)(k+1+a)) is below x, so the terms after the last one
    kept sum to at most last * x/(1-x).  Rounding is allowed eps * S for each
    term summed, plus a few for the term recurrence and the rounding of x.
    """
    c = a * x
    k = 1
    term = c / (1.0 + a)
    total = term
    r = x / (1.0 - x)
    while term * r > 0.5 * _EPS * total:
        c *= (a + k) / (k + 1) * x
        k += 1
        term = c / (k + a)
        total += term
    return total, term * r + (k + 3) * _EPS * total


def _hyp_integrand(pf: float) -> tuple:
    """(h, h(-log t)) for h(u) = (1 + e^(-pu))^(-1/p): after t = e^u,
    arsinh_p's integrand for t >= 1, and (1 + t^p)^(-1/p) itself on [0, 1]."""
    import numpy as np

    def h(u: np.ndarray) -> np.ndarray:
        return np.exp(-np.log1p(np.exp(-pf * u)) / pf)

    return h, lambda t: h(-np.log(t))


def _arcsin_series(fam: _Family, s: float, om: float) -> tuple[float, float]:
    """arcsin_p(s) and its error bound for 0 < s < 1, given om = 1 - s^p to a
    few ulp: the series in w = s^p up to w = 1/2, the endpoint series in om
    above it."""
    pf, q = fam.pf, fam.q
    w = s ** pf
    if w <= 0.5:
        S, e = _beta_tail(1.0 / pf, w)
        v = s * (1.0 + S / pf)
        return v, s * e / pf + 2.0 * (_EPS * v + _ULP0)
    # glue + T(1/2) - T(om): the k = 0 terms of the two T series differ by
    # ((1/2)^q - om^q)/q, taken through expm1.  The 6 eps term covers the
    # rounding of the sum; the (1 + |log om|) eps terms cover the relative
    # error of om and of q, which reach the difference through its slope
    # om^q |log om|, and the rounding of log(2 om).
    log_om = math.log(om)
    omq, hq = om ** q, 0.5 ** q
    S, e = _beta_tail(q, om)
    head = -hq * math.expm1(q * math.log(2.0 * om)) / q
    g_v, g_e = fam.glue
    v = g_v + (head - omq * S) / pf
    rounding = 6.0 * (head + hq + omq * (1.0 + S)) + 3.0 * (1.0 + abs(log_om)) * omq * (1.0 + S)
    err = g_e + (omq * e + rounding * _EPS) / pf + 2.0 * _EPS * v
    return v, err


def _arsinh_quad(fam: _Family, x: float) -> Evaluation:
    """arsinh_p(x), x > 0, by one quadrature: of (1 + t^p)^(-1/p) over
    (0, x] up to 1, else arsinh_p(1) plus h over (0, log x]."""
    h, h_low = fam.integrands
    if x <= 1.0:
        return integrate(h_low, x, _QUAD_ABS, _QUAD_REL)
    return fam.arsinh_one + integrate(h, math.log(x), _QUAD_ABS, _QUAD_REL)


def pi_p(p: float) -> Evaluation:
    """The half-period constant pi_p = 2 arcsin_p(1) = 2 pi / (p sin(pi/p)).

    Cross-checked in the test suite against the defining integral.
    """
    # _family's hit, inline: a repeated call runs no other function, as a
    # hit of a served evaluator runs none.
    try:
        return _FAMILIES[p].pi
    except (KeyError, TypeError):
        return _family(p).pi


@_served(_unit)
def arcsin_p(fam: _Family, x: float) -> Evaluation:
    """Inverse generalized sine on [0, 1]."""
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    if x == 1.0:
        return Evaluation(*fam.half)
    return Evaluation(*_arcsin_series(fam, x, -math.expm1(fam.pf * math.log(x))))


@_served(_half_line)
def arsinh_p(fam: _Family, x: float) -> Evaluation:
    """Inverse generalized hyperbolic sine on x >= 0."""
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    if (z := series.small_z(fam.pf, x)) is not None:
        return series.zp_ball(fam.zseries.arsinh_ratio, z, x) + 0.0  # rounded as in sin_p
    return _arsinh_quad(fam, x)


# ---------------------------------------------------------------------------
# Inversion: sin_p and sinh_p


def _newton(residual, u: float, lo: float, hi: float, name: str) -> tuple:
    """Safeguarded Newton from u for the root of residual, increasing in u,
    on the bracket (lo, hi).  residual(u) is (r, slope, tol, scale): the
    loop stops at |r| <= tol, or one residual after a step |r|/slope below
    _INV_TOL scale, so the caller's bound rests on the stepped u.  A step
    that leaves the bracket bisects it, halves summed separately so that
    lo + hi cannot overflow.  Returns (u, r, slope, tol) where it stops;
    NonConvergence names the solve, name."""
    last = False
    for _ in range(_NEWTON_STEPS):
        r, slope, tol, scale = residual(u)
        if last or abs(r) <= tol:
            return u, r, slope, tol
        if r < 0.0:
            lo = u
        else:
            hi = u
        last = abs(r) <= _INV_TOL * slope * scale
        step = u - r / slope
        u = step if lo < step < hi else 0.5 * lo + 0.5 * hi
    raise NonConvergence(f"the {name} solve found no root in {_NEWTON_STEPS} steps")


def _root_interval(R: float, m: float, c: float) -> tuple[float, float]:
    """(grow, fall): how far the root lies at most from the last iterate, on
    the side where the slope m > 0 grows and on the side where its log falls
    at a rate of at most c > 0, given the bound R on the residual there.
    Within t the residual moves by m t at least on the first side, and by
    m (1 - e^(-c t))/c on the other, which reaches R at -log1p(-c R/m)/c and
    never once c R/m >= 1: inf (Moore, Kearfott & Cloud, Introduction to
    Interval Analysis, 2009, ch. 8)."""
    d = R / m
    return d, (-math.log1p(-c * d) / c if c * d < 1.0 else math.inf)


@_kept
def _sin_state(fam: _Family, x: float) -> tuple:
    """The balls (s, om, w) of s = sin_p(x), om = cos_p(x)^p and w = log om
    (None where om = 0).

    om is carried separately because 1 - s^p loses all relative accuracy
    once s rounds to 1; every cosine-like quantity downstream feeds on it.
    Above the series switch both come from w = log om by Newton on
    arcsin_p(s) = x: s^p = -expm1(w) and om = e^w keep full relative
    accuracy at either end of the domain.
    """
    pf, q = fam.pf, fam.q
    if x == 0.0:
        return Evaluation(0.0, 0.0), Evaluation(1.0, 0.0), Evaluation(0.0, 0.0)
    if (z := series.small_z(pf, x)) is not None:
        s = series.zp_ball(fam.zseries.sin_ratio, z, x)
        om = -(pf * s.log()).expm1()
        return s, om, om.log()
    z = x ** pf

    # pi_p/2 - x = T(om) >= om^q/(p-1), and the true pi_p/2 - x is at most
    # tau + tau_err: a ceiling on w = log om.
    ph_v, ph_e = fam.half
    tau = ph_v - x
    tau_err = ph_e + _EPS * ph_v
    w_top = math.log((pf - 1.0) * (max(tau, 0.0) + tau_err)) / q
    if tau <= tau_err or w_top < math.log(sys.float_info.min):
        # The corner: x at pi_p/2 within its own uncertainty, or om below
        # the normal range.  The ceiling bounds om, the + 1 absorbing
        # rounding, and 1 - s <= om/p.
        om_ub = math.exp(max(w_top, -745.0) + 1.0)
        return Evaluation(1.0, max(2.0 * _EPS, om_ub / pf)), Evaluation(0.0, om_ub), None

    def residual(w):
        # x - arcsin_p(s) rises with w at the slope (om/s^p)^q / p.  Its
        # rounding: the series bound, and for s from w a 2 eps relative
        # error, which moves x by at most 2 eps x om^(-1/p) <= 8 eps x om
        # where the series in s^p serves (om >= 1/2).  A step is relative
        # to both om and s^p (d log s^p = (om/s^p) dw).
        om, sp = math.exp(w), -math.expm1(w)
        v, v_err = _arcsin_series(fam, sp ** (1.0 / pf), om)
        slope = math.exp(q * (w - math.log(sp))) / pf
        return x - v, slope, v_err + 8.0 * _EPS * om * x, min(1.0, sp / om)

    # arcsin_p(s) <= s om^(-1/p) gives s^p >= z/(1 + z), a second ceiling.
    # x(w) decreases and is concave, so Newton started above the root
    # descends onto it; the bracket only guards against rounding.
    top = min(w_top + 1.0, -math.log1p(z))
    w, r, slope, band = _newton(residual, min(w_top, -math.log1p(z)), -math.inf, top, "sin_p")
    om, sp = math.exp(w), -math.expm1(w)
    # The slope grows with w, by the rate q (1 + om/s^p) at most below it;
    # above w the ceilings bound the root too.
    grow, fall = _root_interval(abs(r) + band, slope, q * (1.0 + om / sp))
    grow = min(grow, top - w)
    if fall == math.inf:
        # No floor from the slope: pi_p/2 - x >= tau - tau_err gives one, as
        # T(om) <= om^q (1 - q log(1 - om)) / (p - 1), each term of T's
        # series after the first being at most om^k/k of it.
        wf = math.log((pf - 1.0) * (tau - tau_err) / (1.0 - q * math.log1p(-om * math.exp(grow))))
        fall = w - (wf - 8.0 * _EPS * (1.0 + abs(wf))) / q
    # The balls about the values at w, over the root's [w - fall, w + grow].
    om_err = om * (max(math.expm1(grow), -math.expm1(-fall)) + 2.0 * _EPS)
    lw = math.log(om)
    return (Evaluation(sp, om_err + 2.0 * _EPS * sp) ** (1.0 / pf), Evaluation(om, om_err),
            Evaluation(lw, max(grow, fall) + abs(lw - w) + 4.0 * _EPS * (1.0 + abs(lw))))


@_kept
def _sinh_raw(fam: _Family, x: float) -> Evaluation:
    """The ball of sinh_p(x), for x >= 0."""
    pf = fam.pf
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    if (z := series.small_z(pf, x)) is not None:
        return series.zp_ball(fam.zseries.sinh_ratio, z, x)

    def residual(s):
        # arsinh_p(s) - x rises at the slope 1/cosh_p(s).  Its tolerance
        # exceeds _INV_TOL s/cosh_p(s): no step is the last before it stops.
        return _arsinh_quad(fam, s).value - x, _inv_cosh(pf, s), _INV_TOL * (1.0 + x), s

    s, r, slope, _ = _newton(residual, *_sinh_bracket(fam, x), "sinh_p")
    # The residual bounded by |r| and twice the quadrature's target; the
    # slope falls above s, its log at the rate s^(p-1)/(1 + s^p) < 1/s.
    grow, fall = _root_interval(abs(r) + 2.0 * max(_QUAD_ABS, _QUAD_REL * x), slope, 1.0 / s)
    return Evaluation(s, max(grow, fall) + 4.0 * _EPS * s)


def _sinh_bracket(fam: _Family, x: float) -> tuple[float, float, float]:
    """(start, lo, hi) of the solve of arsinh_p(s) = x > 0, a bracket that
    holds the quadrature's root.  The root lies above x, as arsinh_p(s) < s.
    Up to the top of arsinh_p(1)'s enclosure it is 1 at most, but for
    rounding, where arsinh_p(s) > s/2, so below 2x.  Above, log s lies in
    [x - up, x - lo] for the ends (lo, up) of _arsinh_bounds at s = 1,
    widened by _BOUNDS_MARGIN (1 + x) and rounding; the solve starts at
    that floor, and as arsinh_p is concave its steps stay below the root.
    A floor past the largest double raises OverflowError; a ceiling past it
    is clipped there, and one quadrature decides."""
    a_lo, a_up = _arsinh_bounds(fam, 1.0)
    if x <= a_up:
        return 1.5 * x, x, 2.0 * x
    pad = (_BOUNDS_MARGIN + 4.0 * _EPS) * (1.0 + x)
    floor, ceil = x - a_up - pad, x - a_lo + pad
    top = math.log(sys.float_info.max)
    hi = math.exp(ceil) if ceil < top else sys.float_info.max
    if floor > top or (ceil >= top and _arsinh_quad(fam, hi).value < x):
        raise OverflowError(f"sinh_p({x}) exceeds floating-point range")
    lo = math.exp(floor)
    return lo, lo, hi


def _arsinh_bounds(fam: _Family, s: float) -> tuple[float, float]:
    """An enclosure of arsinh_p(s), s > 0, in closed form but for arsinh_p(1).

    On [0, 1] the integrand lies in [2^(-1/p), 1]; for t >= 1 it lies in
    [(1 - t^(-p)/p)/t, 1/t] (Bernoulli), whose integrals over [1, s] differ
    by at most 1/p^2.  The 4 eps pad covers the rounding of the sums.
    """
    if s < 1.0:
        return 0.5 ** (1.0 / fam.pf) * s, s
    one_v, one_e = fam.arsinh_one.value, fam.arsinh_one.abs_err
    top = one_v + one_e + math.log(s)
    pad = 4.0 * _EPS * top
    return top - 2.0 * one_e - (1.0 / fam.pf) ** 2 - pad, top + pad


def _inv_cosh(pf: float, s: float) -> float:
    """1/cosh_p of sinh_p = s > 0 in floats: e^(-v) for the value v that
    _lcosh gives for the exact ball of s, by the same float expression."""
    ls = math.log(s)
    if s > 1.0:
        return math.exp(-(ls + math.log1p(math.exp(-pf * ls)) / pf))
    return math.exp(-(math.log1p(math.exp(pf * ls)) / pf))


def _lcosh(pf: float, s: Evaluation) -> Evaluation:
    """log cosh_p from the ball of sinh_p, safe for huge s^p."""
    if s.value <= 0.0:
        return s  # 0 = log cosh_p(0)
    ls = s.log()
    if s.value > 1.0:
        return ls + ((-pf) * ls).exp().log1p() / pf
    return (pf * ls).exp().log1p() / pf


@_served(_circular)
def sin_p(fam: _Family, x: float) -> Evaluation:
    """Generalized sine on [0, pi_p/2]; increasing from 0 to 1."""
    return _sin_state(fam, x)[0] + 0.0  # + 0 rounds the state as a result


def _cos_from_state(pf: float, om: Evaluation, w: Evaluation | None) -> Evaluation:
    """cos_p = exp(w/p), or om^(1/p) where om = 0.  Near the corner the ball
    of om, clipped at 0, can be the narrower one about the same value."""
    if w is None:
        return om ** (1.0 / pf)
    c = (w / pf).exp()
    clipped = _centred(om ** (1.0 / pf), c.value)
    return clipped if clipped.abs_err < c.abs_err else c


@_served(_circular)
def cos_p(fam: _Family, x: float) -> Evaluation:
    """Generalized cosine (1 - sin_p^p)^(1/p); decreasing from 1 to 0."""
    return _cos_from_state(fam.pf, *_sin_state(fam, x)[1:])


@_served(_circular)
def tan_p(fam: _Family, x: float) -> Evaluation:
    """sin_p/cos_p on [0, pi_p/2); raises PoleError where the ball of cos_p reaches 0."""
    s, om, w = _sin_state(fam, x)
    return s / _cos_from_state(fam.pf, om, w)


@_served(_half_line)
def sinh_p(fam: _Family, x: float) -> Evaluation:
    """Generalized hyperbolic sine on x >= 0; sinh_p(x) > x for x > 0."""
    return _sinh_raw(fam, x) + 0.0  # rounded as in sin_p


def _snap_to_identity(n: int, s: float, v: float) -> float:
    """Move v = cosh_p(x) onto the double nearest the root of v^p = 1 + s^p.

    The log/exp route carries a relative error of a few ulp scaled by |log|,
    which the p-th power then amplifies by p.  For integer p the defining
    equation is rational, so one Newton step in exact arithmetic lands within
    half an ulp of the true root; exp rounding no longer leaks into the
    residual 1 + sinh_p^p - cosh_p^p.  cosh_p applies it with n = p for
    integer p in [2, 64] (the family's snap) and s > 0, 1 < v < inf.
    """
    from fractions import Fraction

    fv = Fraction(v)
    r = fv ** n - (1 + Fraction(s) ** n)
    return v if r == 0 else float(fv - r / (n * fv ** (n - 1)))


@_served(_half_line)
def cosh_p(fam: _Family, x: float) -> Evaluation:
    """Generalized hyperbolic cosine (1 + sinh_p^p)^(1/p) >= 1."""
    s = _sinh_raw(fam, x)
    c = _lcosh(fam.pf, s).exp()
    if fam.snap and s.value > 0.0 and 1.0 < c.value:
        c = _centred(c, _snap_to_identity(fam.snap, s.value, c.value))
    return c


@_served(_half_line)
def tanh_p(fam: _Family, x: float) -> Evaluation:
    """sinh_p/cosh_p on x >= 0, with values in [0, 1)."""
    # One exp of log s - log cosh_p would carry a rounding error of about
    # |log s| ulp.
    s = _sinh_raw(fam, x)
    return s * (-_lcosh(fam.pf, s)).exp()


# ---------------------------------------------------------------------------
# Closed-form derivatives


def d_sin_p(x: float, p: float) -> Evaluation:
    """d/dx sin_p = cos_p."""
    return cos_p(x, p)


d_sin_p.domain = cos_p.domain


@_served(_circular)
def d_cos_p(fam: _Family, x: float) -> Evaluation:
    """d/dx cos_p = -cos_p^(2-p) sin_p^(p-1).  For p > 2 it is singular at
    pi_p/2, and raises PoleError where the ball of cos_p reaches 0."""
    pf = fam.pf
    s, om, w = _sin_state(fam, x)
    # Each power is taken on its own, within an ulp of its exact value; one
    # exp of the summed logs would carry a rounding error of about
    # |(p - 1) log s| ulp.  Adding 0 leaves a value that underflows unsigned.
    return -(_cos_from_state(pf, om, w) ** (2.0 - pf) * s ** (pf - 1.0)) + 0.0


def d_sinh_p(x: float, p: float) -> Evaluation:
    """d/dx sinh_p = cosh_p."""
    return cosh_p(x, p)


d_sinh_p.domain = cosh_p.domain


@_served(_half_line)
def d_cosh_p(fam: _Family, x: float) -> Evaluation:
    """d/dx cosh_p = cosh_p^(2-p) sinh_p^(p-1) (forced by the identity)."""
    pf = fam.pf
    s = _sinh_raw(fam, x)
    lch = _lcosh(pf, s)
    # Up to s = 1 the power of s keeps its few-ulp accuracy, which one exp of
    # (p - 1) log s would lose; above it the value is cosh_p tanh_p^(p-1),
    # each factor in range up to arsinh_p(largest double).
    if s.value <= 1.0:
        return ((2.0 - pf) * lch).exp() * s ** (pf - 1.0)
    return lch.exp() * ((pf - 1.0) * (s.log() - lch)).exp()


@_served(_half_line)
def d_tanh_p(fam: _Family, x: float) -> Evaluation:
    """d/dx tanh_p = 1 - tanh_p^p."""
    # 1 - tanh_p^p = cosh_p^(-p), which does not cancel as tanh_p -> 1.
    return (-fam.pf * _lcosh(fam.pf, _sinh_raw(fam, x))).exp()


# ---------------------------------------------------------------------------
# Log-space primitives as balls, from the states: the direct route (z above
# the switch) of the functionals and chains of inequalities.  The four logs
# are kept with the family, as the claims on one side share a grid.


@_kept
def _l1(fam: _Family, x: float) -> Evaluation:
    """log(x / sin_p(x)) > 0, an unsigned 0 where sin_p(x) rounds to x."""
    l1 = -((_sin_state(fam, x)[0] - x) / x).log1p()
    return Evaluation(l1.value + 0.0, l1.abs_err)


@_kept
def _l4(fam: _Family, x: float) -> Evaluation:
    """-log cos_p(x) > 0."""
    w = _sin_state(fam, x)[2]
    if w is None:
        raise PoleError(f"cos_p vanished at x = {x}")
    return -w / fam.pf


@_kept
def _l2(fam: _Family, x: float) -> Evaluation:
    """log(sinh_p(x) / x) > 0."""
    return ((_sinh_raw(fam, x) - x) / x).log1p()


@_kept
def _l3(fam: _Family, x: float) -> Evaluation:
    """log cosh_p(x) > 0."""
    return _lcosh(fam.pf, _sinh_raw(fam, x))


def _dee(fam: _Family, x: float) -> Evaluation:
    """(sin_p - x cos_p) / sin_p = 1 - x cos_p/sin_p, positive on the domain."""
    return -(_l1(fam, x) - _l4(fam, x)).expm1()


def _ee(fam: _Family, x: float) -> Evaluation:
    """(x cosh_p - sinh_p) / sinh_p = x/tanh_p - 1, positive for x > 0."""
    return (_l3(fam, x) - _l2(fam, x)).expm1()


def _lem24(fam: _Family, x: float) -> Evaluation:
    """log cosh_p(x) - (x/p) tanh_p(x)^(p-1) > 0."""
    pf = fam.pf
    l3 = _l3(fam, x)
    return l3 - (x / pf) * ((pf - 1.0) * (_sinh_raw(fam, x).log() - l3)).exp()


# Direct-route primitive behind each series.SmallZSeries name.
_DIRECT = {"l1": _l1, "l2": _l2, "l3": _l3, "l4": _l4, "d": _dee, "e": _ee, "lem24": _lem24}
