"""Audit of the evaluators against an independent mpmath oracle.

Every sampled value must satisfy |value - ref| <= abs_err.  The references
are the hypergeometric closed forms of the defining integrals (DLMF 15.4),

    arcsin_p(s) = s 2F1(1/p, 1/p; 1 + 1/p; s^p),
    arsinh_p(s) = s 2F1(1/p, 1/p; 1 + 1/p; -s^p),

taken by mpmath at 40 digits, and pi_p = 2 pi / (p sin(pi/p)) in the same
precision.  sin_p(x) and sinh_p(x) are the roots of arcsin_p(s) = x and
arsinh_p(s) = x found by mpmath.findroot.
Near pi_p/2, where s differs from 1 in digits beyond any working precision,
the root is found in log(om), om = 1 - s^p = cos_p^p, through the connection
formula pi_p/2 - arcsin_p(s) = om^q/(p q) 2F1(q, q; 1 + q; om), q = 1 - 1/p.
cos_p, tan_p, d_cos_p, cosh_p, tanh_p and d_tanh_p follow from the roots
exactly.

Points: seeded random arguments, arguments against both ends of the circular
domain, the switches between the evaluation routes (_SERIES_Z between the
reversion series and the Newton solve in log cos_p^p, the two edges of the
corner where that solve gives way to a bound on cos_p^p, and x = 1 where the
arsinh_p quadrature changes variable) and the w = s^p = 1/2 seam of the
arcsin_p series, each switch also one ulp to either side; hyperbolic
arguments out to x = 700, near the end of the double range.
"""

import math
import random
import sys

import mpmath as mp
import pytest

import ptrig
from ptrig import core

# p within 1e-9, 1e-14 and one ulp of 1 as well: there pi_p/2 ~ 1/(p-1)
# carries a large absolute error, which the corner test must account for,
# while the solve in log cos_p^p never forms pi_p/2 - x.
P_AUDIT = [math.nextafter(1.0, 2.0), 1.0 + 1e-14, 1.0 + 1e-9,
           1.001, 1.01, 1.1, 1.5, 2.0, 3.7, 10.0, 50.0, 300.0]
DPS = 40


def _circular_dps(p):
    """DPS plus the digits the circular reference loses as p -> 1: pi_p/2
    grows like 1/(p-1) and the slope of T(om) in log om shrinks like
    q = 1 - 1/p, so pi_p/2 - x pins log om only to 10^-DPS (p-1)^-2."""
    return DPS + round(2 * max(0.0, -math.log10(p - 1)))


def _ulps(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _mp_arcsin(s, p):
    a = 1 / p
    # Near z = 1 mpmath may return a complex value with a rounding-level
    # imaginary part; the real part is the integral.
    return s * mp.re(mp.hyp2f1(a, a, 1 + a, s ** p))


def _mp_tail(om, p):
    q = 1 - 1 / p
    return om ** q / (p * q) * mp.re(mp.hyp2f1(q, q, 1 + q, om))


def _mp_sin_cos(x, p, guess):
    """(sin_p(x), cos_p(x)) in mpmath; guess is the double sin_p value."""
    P, X = mp.mpf(p), mp.mpf(x)
    half = mp.pi / (P * mp.sin(mp.pi / P))
    if X >= half:
        return mp.mpf(1), mp.mpf(0)
    if 1 - mp.mpf(guess) ** P > mp.mpf("1e-3"):
        s = mp.findroot(lambda s: _mp_arcsin(s, P) - X, mp.mpf(guess))
        return s, (1 - s ** P) ** (1 / P)
    q = 1 - 1 / P
    tau = half - X
    lead = mp.log((P - 1) * tau) / q
    log_om = mp.findroot(lambda L: mp.log(_mp_tail(mp.exp(L), P) / tau), lead)
    om = mp.exp(log_om)
    return (1 - om) ** (1 / P), om ** (1 / P)


def _mp_d_cos(s, c, P):
    """d/dx cos_p = -cos_p^(2-p) sin_p^(p-1) from the reference pair."""
    return -(c ** (2 - P)) * s ** (P - 1)


def _arguments(p):
    """Circular arguments x in [0, pi_p/2] for the audit at p."""
    half = ptrig.pi_p(p).value / 2
    rng = random.Random(int(p * 1000))
    xs = [half * rng.random() for _ in range(6)]
    xs += [half * 10.0 ** rng.uniform(-8, 0) for _ in range(3)]
    xs += [half * (1 - 1e-3), half * (1 - 1e-8), half - 1e-11, half]
    # Near p = 1, where cos_p ~ exp(-x), far out on the p = 1 limit.
    xs += [10.0, 11.0, 12.0, 20.0, 30.0, 100.0, 700.0]
    # x = 0.05 stays a sample: below it the series once served every z for p < 2.
    xs += _ulps(0.05) + _ulps(core._SERIES_Z ** (1 / p))
    # The edges of the corner: x within the uncertainty of pi_p/2, and cos_p^p
    # at the smallest normal double by the solve's ceiling on log cos_p^p.
    fam = core._FAMILIES[p, None]
    ph_v, ph_e = fam.half
    tau_err = ph_e + core._EPS * ph_v
    xs += _ulps(ph_v - tau_err)
    xs += _ulps(ph_v - (sys.float_info.min ** fam.q / (p - 1) - tau_err))
    with mp.workdps(DPS):
        seam = _mp_arcsin(mp.mpf(0.5) ** (1 / mp.mpf(p)), mp.mpf(p))
    xs += _ulps(float(seam))
    return [x for x in xs if 0.0 < x <= half]


def _ratio(ev, ref):
    """|ev.value - ref| / ev.abs_err, 0 for an exact value."""
    dev = abs(mp.mpf(ev.value) - ref)
    return 0.0 if dev == 0 else float(dev / ev.abs_err) if ev.abs_err > 0 else math.inf


def _audit_circular(p):
    """(name, x, |value - ref| / abs_err) for every audited evaluation at p."""
    out = []

    def check(name, x, ev, ref):
        out.append((name, x, _ratio(ev, ref)))

    with mp.workdps(_circular_dps(p)):
        P = mp.mpf(p)
        check("pi_p", None, ptrig.pi_p(p), 2 * mp.pi / (P * mp.sin(mp.pi / P)))
        half = (ptrig.pi_p(p).value / 2)
        s_seam = 0.5 ** (1 / p)
        for s in [0.1, 0.37, 0.8, 1 - 1e-6, 1 - 1e-12, math.nextafter(1.0, 0.0), 1.0, *_ulps(s_seam)]:
            check("arcsin_p", s, ptrig.arcsin_p(s, p), _mp_arcsin(mp.mpf(s), P))
        for x in _arguments(p):
            sin = ptrig.sin_p(x, p)
            ref_s, ref_c = _mp_sin_cos(x, p, sin.value)
            check("sin_p", x, sin, ref_s)
            check("cos_p", x, ptrig.cos_p(x, p), ref_c)
            if p <= 2.0 or x <= half - core._POLE_WINDOW:
                check("d_cos_p", x, ptrig.d_cos_p(x, p), _mp_d_cos(ref_s, ref_c, P))
            if x < half - core._POLE_WINDOW and ref_c > 0:
                try:
                    tan = ptrig.tan_p(x, p)
                except ptrig.PoleError:  # cos_p underflowed: no value to audit
                    continue
                check("tan_p", x, tan, ref_s / ref_c)
    return out


@pytest.mark.parametrize("p", P_AUDIT)
def test_circular_values_lie_within_abs_err(p):
    audit = _audit_circular(p)
    bad = [(name, x, r) for name, x, r in audit if not r <= 1.0]
    assert not bad, bad
    assert {name for name, _, _ in audit} == {"pi_p", "arcsin_p", "sin_p", "cos_p", "tan_p", "d_cos_p"}


def test_d_cos_near_zero_lies_within_abs_err():
    # A single exp of (2 - p) log cos_p + (p - 1) log sin_p would carry a
    # rounding error of |(p - 1) log sin_p| ulp, past the bound here.
    p, x = 2.5, 0.00020670493941599456
    d = ptrig.d_cos_p(x, p)
    with mp.workdps(_circular_dps(p)):
        ref_s, ref_c = _mp_sin_cos(x, p, ptrig.sin_p(x, p).value)
        assert _ratio(d, _mp_d_cos(ref_s, ref_c, mp.mpf(p))) <= 1.0


def test_circular_band_rests_on_the_last_step():
    # A point whose solve stops on the size of its last Newton step: the
    # band must come from the residual after that step, near the series'
    # rounding floor, not from the residual before it.
    p, x = 4.242, 0.9082
    sin = ptrig.sin_p(x, p)
    with mp.workdps(DPS):
        ref_s, _ = _mp_sin_cos(x, p, sin.value)
    assert _ratio(sin, ref_s) <= 1.0
    assert sin.abs_err < 1e-14 * sin.value


P_HYPERBOLIC = [1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 2.0, 3.7, 10.0, 50.0]


def _mp_arsinh(s, p):
    a = 1 / p
    return s * mp.re(mp.hyp2f1(a, a, 1 + a, -s ** p))


def _audit_hyperbolic(p):
    """(name, x, |value - ref| / abs_err) for sinh_p, cosh_p, tanh_p and
    d_tanh_p at x, and for arsinh_p at x as its argument, at p."""
    rng = random.Random(int(p * 1000))
    xs = [3.0 * rng.random() for _ in range(6)]
    xs += _ulps(0.05) + _ulps(core._SERIES_Z ** (1 / p)) + _ulps(1.0)
    # Where the residual tolerance 1e-13 (1 + x) of the solve is absolute,
    # up to near the end of the double range.
    xs += [7.0, 40.0, 700.0]
    # Deep in the series range, and for arsinh_p a short quadrature interval.
    # Down to 1e-14 tanh_p's value must not pass through log sinh_p, whose
    # rounding there is |log sinh_p| ulp.
    xs += [1e-5, 9.230537181463702e-08] + [10.0 ** -k for k in range(7, 15)]
    out = []
    with mp.workdps(DPS):
        P = mp.mpf(p)
        for x in xs:
            sinh = ptrig.sinh_p(x, p)
            # In log s: out at x = 700 a step of the secant in s would not
            # move s at the working precision.
            s = mp.exp(mp.findroot(lambda L: _mp_arsinh(mp.exp(L), P) - mp.mpf(x),
                                   mp.log(sinh.value)))
            c = (1 + s ** P) ** (1 / P)
            out.append(("sinh_p", x, _ratio(sinh, s)))
            out.append(("cosh_p", x, _ratio(ptrig.cosh_p(x, p), c)))
            out.append(("tanh_p", x, _ratio(ptrig.tanh_p(x, p), s / c)))
            # 1 - tanh_p^p as 1/(1 + s^p), which does not cancel.
            out.append(("d_tanh_p", x, _ratio(ptrig.d_tanh_p(x, p), 1 / (1 + s ** P))))
            out.append(("arsinh_p", x, _ratio(ptrig.arsinh_p(x, p), _mp_arsinh(mp.mpf(x), P))))
    return out


@pytest.mark.parametrize("p", P_HYPERBOLIC)
def test_hyperbolic_values_lie_within_abs_err(p):
    bad = [(name, x, r) for name, x, r in _audit_hyperbolic(p) if not r <= 1.0]
    assert not bad, bad


@pytest.mark.parametrize(
    "p,x",
    [(2.5, 0.00023491957668433328), (3.7, 0.00031343483472087615), (3.0, 0.8),
     (10.0, 0.05), (50.0, 2.0), (1.5, 40.0), (300.0, 700.0)],
)
def test_d_cosh_lies_within_abs_err(p, x):
    # Below s = 1 a single exp of (p - 1) log s would carry a rounding error
    # of |(p - 1) log s| ulp, past the bound at the first two points.
    d = ptrig.d_cosh_p(x, p)
    with mp.workdps(DPS):
        P = mp.mpf(p)
        s = mp.exp(mp.findroot(lambda L: _mp_arsinh(mp.exp(L), P) - mp.mpf(x),
                               mp.log(ptrig.sinh_p(x, p).value)))
        ref = (1 + s ** P) ** ((2 - P) / P) * s ** (P - 1)
        assert _ratio(d, ref) <= 1.0
