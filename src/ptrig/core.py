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
hyperbolic integral is still taken by tanh-sinh quadrature.

sin_p and sinh_p invert the integrals, each with its own safeguarded Newton
loop that bisects its bracket when a step would leave it, switching to
verified reversion series near zero where inversion would lose the deficit
x - sin_p(x) to cancellation.  sin_p is solved for w = log cos_p^p = log om,
from which s^p = -expm1(w) and om = e^w both keep full relative accuracy, at
every x from the series switch up to a corner within the uncertainty of
pi_p/2 (or with om below the double range), where only a bound on om is
reported.  sinh_p is solved for s on a bracket above x grown geometrically
up to the largest double.  The remaining functions follow from the
identities

    cos_p = (1 - sin_p^p)^(1/p),      cosh_p = (1 + sinh_p^p)^(1/p),

which also force the derivative formulas implemented at the bottom.  The
circular functions are defined on [0, pi_p/2] only (no periodic extension);
the hyperbolic ones on x >= 0 up to arsinh_p of the largest double (about
709.8 to 710.8, growing with p), beyond which they raise DomainError.

Every public operation returns an :class:`Evaluation` whose abs_err chains
the series or quadrature bound, the inversion residual converted through the
local slope, and the small-argument series truncation, so downstream margin
certification can budget against it.  A series or quadrature whose bound
cannot meet the requested tolerance raises NonConvergence.  Every public
evaluator takes a finite x and raises DomainError outside its domain.

Each (p, tol) family keeps one capped memo of per-point states and the
Evaluation of every successful public call, so a repeated call returns the
same object without recomputing it.
"""

from __future__ import annotations

import math
import sys
import threading
from functools import cached_property, wraps
from typing import Optional

from . import series
from .numerics import _EPS, Evaluation, NonConvergence, Tolerance, integrate

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

# The reversion series in z = x^p serves sin_p and sinh_p below this z, where
# its truncation bound (~25 z^4 relative) is ~2.5e-11; above it the deficit
# x - sin_p(x) ~ x z/(p(p+1)) is large enough for the inversion to resolve.
_SERIES_Z = 1e-3

# Half-width of the guard window around the right endpoint inside which
# tan_p reports a pole and the p > 2 derivative singularities refuse.
_POLE_WINDOW = 1e-12

_QUAD_TOL = Tolerance(abs_tol=1e-15, rel_tol=5e-14, max_iter=60)
_INV_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=80)


class DomainError(ValueError):
    """Argument outside the function's domain."""


class PoleError(DomainError):
    """Argument too close to a pole to evaluate meaningfully."""


def _valid_p(p: float) -> float:
    """p as a float; every definition here requires p finite and > 1."""
    pf = float(p)
    if not (math.isfinite(pf) and pf > 1.0):
        raise ValueError(f"parameter p must be finite and > 1, got {pf}")
    return pf


# ---------------------------------------------------------------------------
# Families.  At most _FAMILY_CAP stay registered (the oldest goes first), and
# a family's memo is emptied when it reaches _MEMO_CAP entries.  A miss
# recomputes exactly what a hit returns, so values never depend on cache state.
_FAMILY_CAP = 16
_MEMO_CAP = 1 << 14


class _Family:
    """What depends on (p, tol) alone: tolerances, the z-series zseries, the
    half-period half (the one source of pi_p/2 for pi_p, the circular domains
    and the verifiers), the integer exponent cosh_p snaps to (0 for none),
    arsinh_p(1), and memo, the one dict in which _kept keeps fn(fam, *key)
    under (fn, *key): the states of _sin_state and _sinh_raw, the Evaluation
    of every public evaluator (keyed on its body and x, see _served) and
    what other modules derive from p."""

    def __init__(self, pf: float, tol: Optional[Tolerance]) -> None:
        self.pf = pf
        self.q = (pf - 1.0) / pf
        self.qtol, self.itol = _QUAD_TOL, _INV_TOL
        if tol is not None:
            self.qtol, self.itol = tol, Tolerance(tol.abs_tol, tol.rel_tol, max(tol.max_iter, 80))
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
        return _within(self.qtol, v, 4.0 * _EPS * v)

    @cached_property
    def pi(self) -> Evaluation:
        """pi_p = 2 arcsin_p(1), the one Evaluation pi_p returns for the family."""
        v, e = self.half
        return Evaluation(2.0 * v, 2.0 * e)

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
    def arsinh_one(self) -> tuple[float, float]:
        """arsinh_p(1) and its error bound, the base of arsinh_p above 1."""
        return _arsinh_quad(self, 1.0)


class _Registry(dict):
    """(p, tol) -> _Family; a miss validates p and files the family under (float p, tol)."""

    _lock = threading.Lock()

    def __missing__(self, key: tuple) -> _Family:
        canon = (_valid_p(key[0]), key[1])
        with self._lock:
            if canon not in self:
                if len(self) >= _FAMILY_CAP:
                    del self[next(iter(self))]
                self[canon] = _Family(*canon)
            return self[canon]


_FAMILIES = _Registry()


def _kept(fn):
    """Keep fn(fam, *key) in fam.memo under (fn, *key), emptying the memo
    first once it holds _MEMO_CAP entries."""

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
    """Serve body(fam, x) as the public evaluator (x, p, tol=None), kept
    under (body, x) in the family of (p, tol).  A hit is one registry lookup
    and one dict lookup.  A miss first checks x with domain(fam, name, x),
    which raises DomainError; only results are kept, so a call that raised
    raises again."""

    def wrap(body):
        kept = _kept(body)

        def serve(x: float, p: float, tol: Optional[Tolerance] = None) -> Evaluation:
            fam = _FAMILIES[p, tol]
            got = fam.memo.get((body, x))
            if got is None:
                domain(fam, body.__name__, x)
                got = kept(fam, x)
            return got

        # Not functools.wraps: its __wrapped__ would show body's (fam, x)
        # as the public signature.
        serve.__name__ = serve.__qualname__ = body.__name__
        serve.__doc__ = body.__doc__
        return serve

    return wrap


# The domains of the public evaluators; each requires a finite x.


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


# ---------------------------------------------------------------------------
# Defining integrals


def _within(tol: Tolerance, v: float, err: float) -> tuple[float, float]:
    """(v, err), or NonConvergence when err exceeds what tol asks of v."""
    if err > max(tol.abs_tol, tol.rel_tol * abs(v)):
        raise NonConvergence(f"error bound {err:.3e} above tolerance at value {v:.17g}")
    return v, err


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


def _hyp_integrand(pf: float):
    """(1 + t^p)^(-1/p) on [0, 1]; smooth, bounded by 1."""
    import numpy as np

    def f(t: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            t = np.asarray(t, dtype=float)
            w = pf * np.log(np.abs(t) + 1e-320)
            return np.exp(-np.log1p(np.exp(w)) / pf)

    return f


def _hyp_tail_integrand(pf: float):
    """The same integrand after t = e^u, valid for t >= 1: (1 + e^(-pu))^(-1/p)."""
    import numpy as np

    def f(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.exp(-np.log1p(np.exp(-pf * u)) / pf)

    return f


def _arcsin_quad(fam: _Family, s: float) -> tuple[float, float]:
    """arcsin_p(s) and its error bound for 0 < s <= 1."""
    if s >= 1.0:
        return fam.half
    return _arcsin_series(fam, s, -math.expm1(fam.pf * math.log(s)))


def _arcsin_series(fam: _Family, s: float, om: float) -> tuple[float, float]:
    """arcsin_p(s) and its error bound for 0 < s < 1, given om = 1 - s^p to a
    few ulp: the series in w = s^p up to w = 1/2, the endpoint series in om
    above it."""
    pf, q = fam.pf, fam.q
    w = s ** pf
    if w <= 0.5:
        S, e = _beta_tail(1.0 / pf, w)
        v = s * (1.0 + S / pf)
        return _within(fam.qtol, v, s * e / pf + 2.0 * _EPS * v)
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
    return _within(fam.qtol, v, err)


def _arsinh_quad(fam: _Family, x: float) -> tuple[float, float]:
    if x <= 1.0:
        res = integrate(_hyp_integrand(fam.pf), 0.0, x, fam.qtol, vectorized=True)
        return res.value, res.abs_err
    base_v, base_e = fam.arsinh_one
    tail = integrate(_hyp_tail_integrand(fam.pf), 0.0, math.log(x), fam.qtol, vectorized=True)
    v = base_v + tail.value
    return v, base_e + tail.abs_err + 2.0 * _EPS * abs(v)


def pi_p(p: float, tol: Optional[Tolerance] = None) -> Evaluation:
    """The half-period constant pi_p = 2 arcsin_p(1) = 2 pi / (p sin(pi/p)).

    Cross-checked in the test suite against the defining integral.
    """
    return _FAMILIES[p, tol].pi


@_served(_unit)
def arcsin_p(fam: _Family, x: float) -> Evaluation:
    """Inverse generalized sine on [0, 1]."""
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    return Evaluation(*_arcsin_quad(fam, x))


@_served(_half_line)
def arsinh_p(fam: _Family, x: float) -> Evaluation:
    """Inverse generalized hyperbolic sine on x >= 0."""
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    return Evaluation(*_arsinh_quad(fam, x))


# ---------------------------------------------------------------------------
# Inversion: sin_p and sinh_p


@_kept
def _sin_state(fam: _Family, x: float) -> tuple[float, float, float, float]:
    """(s, s_err, om, om_err) with s = sin_p(x) and om = cos_p(x)^p.

    om is carried separately because 1 - s^p loses all relative accuracy
    once s rounds to 1; every cosine-like quantity downstream feeds on it.
    Above the series switch both come from w = log om by Newton on
    arcsin_p(s) = x: s^p = -expm1(w) and om = e^w keep full relative
    accuracy at either end of the domain.
    """
    pf, q = fam.pf, fam.q
    if x == 0.0:
        return 0.0, 0.0, 1.0, 0.0
    z = x ** pf
    if z < _SERIES_Z:
        q = fam.zseries.sin_ratio.replace(0, 1.0)
        s = x * series.zp_eval(q, z)
        s_err = x * series.zp_trunc_err(q, z)
        om = _cos_pow(pf, s)
        return s, s_err, om, pf * s ** (pf - 1.0) * s_err + 2.0 * _EPS * om

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
        return 1.0, max(2.0 * _EPS, om_ub / pf), 0.0, om_ub

    # arcsin_p(s) <= s om^(-1/p) gives s^p >= z/(1 + z), a second ceiling.
    # x(w) decreases and is concave, so Newton started above the root
    # descends onto it; the bracket only guards against rounding.
    w = min(w_top, -math.log1p(z))
    top = min(w_top + 1.0, -math.log1p(z))
    lo, hi = -math.inf, top
    last = False
    for _ in range(fam.itol.max_iter):
        om, sp = math.exp(w), -math.expm1(w)
        v, v_err = _arcsin_series(fam, sp ** (1.0 / pf), om)
        r = v - x
        # The residual's rounding: the series bound, and for s from w a 2 eps
        # relative error, which moves x by at most 2 eps x om^(-1/p) <= 8 eps x om
        # where the series in s^p serves (om >= 1/2).
        band = v_err + 8.0 * _EPS * om * x
        slope = math.exp(q * (w - math.log(sp))) / pf  # |dx/dw| = (om/s^p)^q / p
        if last or abs(r) <= band:
            break
        if r > 0.0:
            lo = w
        else:
            hi = w
        # A step below rel_tol relative to both om and s^p (d log s^p =
        # (om/s^p) dw) is the last one; the residual after it is summed once
        # more, so the band rests on the stepped w.
        last = abs(r) <= fam.itol.rel_tol * slope * min(1.0, sp / om)
        step = w + r / slope
        w = step if lo < step < hi else 0.5 * (lo + hi)
    else:
        raise NonConvergence(f"sin_p({x}): no root in log cos_p^p in {fam.itol.max_iter} steps")

    # The band on w from the residual's bound R.  Above w the slope only
    # grows, so the root lies within d = R/slope, and below the ceilings;
    # below w the slope falls at most like exp(-c dw), which bounds the
    # root by 1 - (1 - c d)^(1/c) in om, all of om once c d >= 1.
    d = (abs(r) + band) / slope
    c = q * (1.0 + om / sp)
    up = math.expm1(min(d, top - w))
    down = 1.0 if c * d >= 1.0 else -math.expm1(math.log1p(-c * d) / c)
    om_err = om * (max(up, down) + 2.0 * _EPS)
    s = sp ** (1.0 / pf)
    rho = om_err / sp
    s_err = s * ((1.0 if rho >= 1.0 else -math.expm1(math.log1p(-rho) / pf)) + 4.0 * _EPS)
    return s, s_err, om, om_err


@_kept
def _sinh_raw(fam: _Family, x: float) -> tuple[float, float]:
    """sinh_p(x) with an error bound, for x >= 0."""
    pf = fam.pf
    if x == 0.0:
        return 0.0, 0.0
    if x < 1.0 and x ** pf < _SERIES_Z:
        z = x ** pf
        q = fam.zseries.sinh_ratio.replace(0, 1.0)
        return x * series.zp_eval(q, z), x * series.zp_trunc_err(q, z)

    # arsinh_p(s) < s puts the root above x.  Grow the bracket up to the
    # largest double; a root beyond it would leave floating-point range.
    big = sys.float_info.max
    hi = min(2.0 * x, big)
    while _arsinh_quad(fam, hi)[0] < x:
        if hi == big:
            raise DomainError(f"sinh_p({x}) exceeds floating-point range")
        hi = min(4.0 * hi, big)
    # Newton on the concave arsinh_p, bisecting whenever a step leaves the
    # bracket; halves are summed separately so that lo + hi cannot overflow.
    lo, s = x, 0.5 * x + 0.5 * hi
    for _ in range(fam.itol.max_iter):
        r = _arsinh_quad(fam, s)[0] - x
        if abs(r) <= fam.itol.abs_tol * (1.0 + x):
            break
        if r < 0.0:
            lo = s
        else:
            hi = s
        step = s - r / math.exp(-_log_cosh(pf, s))
        s = step if lo < step < hi else 0.5 * lo + 0.5 * hi
    else:
        raise NonConvergence(f"sinh_p({x}): no root in {fam.itol.max_iter} steps")
    # The residual band plus the band of the integral itself, through the
    # slope cosh_p(s)^-1 of arsinh_p.
    restol = fam.itol.abs_tol * (1.0 + x) + 2.0 * fam.qtol.rel_tol * x
    s_err = 2.0 * restol * math.exp(_log_cosh(pf, s)) + 4.0 * _EPS * s
    return s, s_err


def _cos_pow(pf: float, s: float) -> float:
    """cos_p^p = 1 - s^p at full relative accuracy, for s = sin_p value."""
    if s <= 0.0:
        return 1.0
    if s >= 1.0:
        return 0.0
    return -math.expm1(pf * math.log(s))


def _log_cosh(pf: float, s: float) -> float:
    """log cosh_p from the sinh_p value s, safe for huge s^p."""
    if s <= 0.0:
        return 0.0
    ls = math.log(s)
    if s > 1.0:
        return ls + math.log1p(math.exp(-pf * ls)) / pf
    return math.log1p(math.exp(pf * ls)) / pf


@_served(_circular)
def sin_p(fam: _Family, x: float) -> Evaluation:
    """Generalized sine on [0, pi_p/2]; increasing from 0 to 1."""
    s, s_err, _, _ = _sin_state(fam, x)
    return Evaluation(min(s, 1.0), s_err)


def _cos_from_state(pf: float, om: float, om_err: float) -> Evaluation:
    if om <= 0.0:
        return Evaluation(0.0, om_err ** (1.0 / pf))
    c = math.exp(math.log(om) / pf)
    # Linearized propagation, capped by the full enclosure width when the
    # relative uncertainty of om is not small.  The relative error is formed
    # first: for tiny om the product c * om_err would underflow to zero.
    lin = c * (om_err / om) / pf
    cap = (om + om_err) ** (1.0 / pf) - max(om - om_err, 0.0) ** (1.0 / pf)
    return Evaluation(c, min(lin, cap) + 4.0 * _EPS * c)


@_served(_circular)
def cos_p(fam: _Family, x: float) -> Evaluation:
    """Generalized cosine (1 - sin_p^p)^(1/p); decreasing from 1 to 0."""
    _, _, om, om_err = _sin_state(fam, x)
    return _cos_from_state(fam.pf, om, om_err)


@_served(_circular)
def tan_p(fam: _Family, x: float) -> Evaluation:
    """sin_p/cos_p on [0, pi_p/2); raises PoleError against the right end."""
    ph_v, _ = fam.half
    if x > ph_v - _POLE_WINDOW:
        raise PoleError(f"tan_p pole: x = {x} within {_POLE_WINDOW} of pi_p/2 = {ph_v}")
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    s, s_err, om, om_err = _sin_state(fam, x)
    c = _cos_from_state(fam.pf, om, om_err)
    if c.value <= c.abs_err:
        raise PoleError(f"tan_p pole: cos_p = {c.value} is not resolved from 0 at x = {x}")
    v = s / c.value
    # The far end of the enclosure s/c over both error bands; first-order
    # propagation would understate it once c's relative error is not small.
    hi = (s + s_err) / (c.value - c.abs_err)
    return Evaluation(v, (hi - v) + 4.0 * _EPS * v)


@_served(_half_line)
def sinh_p(fam: _Family, x: float) -> Evaluation:
    """Generalized hyperbolic sine on x >= 0; sinh_p(x) > x for x > 0."""
    return Evaluation(*_sinh_raw(fam, x))


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
    pf = fam.pf
    s, s_err = _sinh_raw(fam, x)
    lch = _log_cosh(pf, s)
    v = math.exp(lch)
    if fam.snap and s > 0.0 and 1.0 < v < math.inf:
        v = _snap_to_identity(fam.snap, s, v)
    # d cosh/d sinh = tanh^(p-1) <= 1.
    slope = 1.0 if s == 0.0 else math.exp((pf - 1.0) * (math.log(s) - lch))
    return Evaluation(v, slope * s_err + 4.0 * _EPS * v)


@_served(_half_line)
def tanh_p(fam: _Family, x: float) -> Evaluation:
    """sinh_p/cosh_p on x >= 0, with values in [0, 1)."""
    s, s_err = _sinh_raw(fam, x)
    if s == 0.0:
        return Evaluation(0.0, 0.0)
    # One exp of log s - log cosh_p would carry a rounding error of about
    # |log s| ulp, which near 0 exceeds the 4 eps below.
    r = math.exp(-_log_cosh(fam.pf, s))
    v = s * r
    return Evaluation(v, s_err * r + 4.0 * _EPS * v)


# ---------------------------------------------------------------------------
# Closed-form derivatives


def d_sin_p(x: float, p: float, tol: Optional[Tolerance] = None) -> Evaluation:
    """d/dx sin_p = cos_p."""
    return cos_p(x, p, tol)


@_served(_circular)
def d_cos_p(fam: _Family, x: float) -> Evaluation:
    """d/dx cos_p = -cos_p^(2-p) sin_p^(p-1); singular at pi_p/2 when p > 2."""
    ph_v, _ = fam.half
    pf = fam.pf
    if pf > 2.0 and x > ph_v - _POLE_WINDOW:
        raise DomainError(
            f"d_cos_p is singular at pi_p/2 for p > 2 (x = {x}, pi_p/2 = {ph_v})"
        )
    if x == 0.0:
        return Evaluation(0.0, 0.0)
    s, s_err, om, om_err = _sin_state(fam, x)
    c = _cos_from_state(pf, om, om_err)
    if c.value == 0.0:  # reachable only for p <= 2; the p = 2 case is -sin_p
        v = -(s ** (pf - 1.0)) if pf == 2.0 else 0.0
        return Evaluation(v, pf * s_err + om_err ** (1.0 / pf) + 4.0 * _EPS)
    # Each power is taken on its own, within an ulp of its exact value; one
    # exp of the summed logs would carry a rounding error of about
    # |(p - 1) log s| ulp, which near 0 exceeds the 4 eps below.
    v = -(c.value ** (2.0 - pf)) * s ** (pf - 1.0)
    rel = (
        abs(2.0 - pf) * c.abs_err / c.value
        + (pf - 1.0) * s_err / s
        + 4.0 * _EPS
    )
    # Once sin_p^(p-1) falls below the normal range (large p, small x) its
    # rounding is absolute, up to the smallest subnormal; cos_p is then 1.
    return Evaluation(v, abs(v) * rel + 2.0 * math.ulp(0.0))


def d_sinh_p(x: float, p: float, tol: Optional[Tolerance] = None) -> Evaluation:
    """d/dx sinh_p = cosh_p."""
    return cosh_p(x, p, tol)


@_served(_half_line)
def d_cosh_p(fam: _Family, x: float) -> Evaluation:
    """d/dx cosh_p = cosh_p^(2-p) sinh_p^(p-1) (forced by the identity)."""
    pf = fam.pf
    s, s_err = _sinh_raw(fam, x)
    if s == 0.0:
        return Evaluation(0.0, (pf - 1.0) * s_err)
    lch = _log_cosh(pf, s)
    # Up to s = 1 the power of s keeps its few-ulp accuracy, which one exp of
    # (p - 1) log s would lose; above it the value is cosh_p tanh_p^(p-1),
    # each factor in range up to arsinh_p(largest double).
    if s <= 1.0:
        v = math.exp((2.0 - pf) * lch) * s ** (pf - 1.0)
    else:
        v = math.exp(lch) * math.exp((pf - 1.0) * (math.log(s) - lch))
    rel = (abs(2.0 - pf) + (pf - 1.0)) * (s_err / s) + 4.0 * _EPS
    return Evaluation(v, v * rel)


@_served(_half_line)
def d_tanh_p(fam: _Family, x: float) -> Evaluation:
    """d/dx tanh_p = 1 - tanh_p^p."""
    pf = fam.pf
    s, s_err = _sinh_raw(fam, x)
    if s == 0.0:
        return Evaluation(1.0, pf * s_err + 4.0 * _EPS)
    lch = _log_cosh(pf, s)
    lth = math.log(s) - lch
    v = -math.expm1(pf * lth)
    t_err = s_err * math.exp(-lch)
    return Evaluation(v, pf * math.exp((pf - 1.0) * lth) * t_err + 4.0 * _EPS)
