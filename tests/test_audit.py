"""Audit of the evaluators against an independent mpmath oracle.

Every sampled value must satisfy |value - ref| <= abs_err.  The references
are the hypergeometric closed forms of the defining integrals (DLMF 15.4),

    arcsin_p(s) = s 2F1(1/p, 1/p; 1 + 1/p; s^p),
    arsinh_p(s) = s 2F1(1/p, 1/p; 1 + 1/p; -s^p),

taken by mpmath at 40 digits, and pi_p = 2 pi / (p sin(pi/p)) in the same
precision; more digits near p = 1 and at subnormal arguments, where 40
would not resolve the value's distance from its argument.  sin_p(x) and
sinh_p(x) are the roots of arcsin_p(s) = x and arsinh_p(s) = x found by
mpmath.findroot.
Near pi_p/2, where s differs from 1 in digits beyond any working precision,
the root is found in log(om), om = 1 - s^p = cos_p^p, through the connection
formula pi_p/2 - arcsin_p(s) = om^q/(p q) 2F1(q, q; 1 + q; om), q = 1 - 1/p.
cos_p, tan_p, d_cos_p, cosh_p, tanh_p and d_tanh_p follow from the roots
exactly, and so do the five functionals of inequalities, each a closed
expression in sin_p and cos_p or sinh_p and cosh_p.

Points: seeded random arguments, arguments against both ends of the circular
domain, the switches between the evaluation routes (series._Z_SWITCH between
the reversion series and the Newton solve in log cos_p^p, the two edges of the
corner where that solve gives way to a bound on cos_p^p, and x = 1 where the
arsinh_p quadrature changes variable) and the w = s^p = 1/2 seam of the
arcsin_p series, each switch also one ulp to either side, and x^p just
above the switch, where a solve's ball is sharpest; hyperbolic
arguments out to x = 700, near the end of the double range; and subnormal
arguments on both sides, where a value rounds in absolute terms.  The
functionals are audited on each claim's verification grid and at the same
switch between the z-series and the direct route, at p from 1.1 to 100,
where the grid's first z = x^p underflow, and the hyperbolic ones from one
ulp above p = 1, where the float composition of the z-series lost
lem24_gap's z^2 term to cancellation.  The closed-form
enclosure of arsinh_p that sets sinh_p's bracket, the second-order bound
that raises its floor above arsinh_p(1) and the binomial upper bound whose
root is its floor below are checked against the same arsinh_p reference,
and the bracket against the quadrature's root.
"""

import contextlib
import functools
import io
import json
import math
import random
import sys

import mpmath as mp
import pytest

import ptrig
from ptrig import cli, core, series
from ptrig import inequalities as iq

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


# Subnormal arguments, where values underflow or round in absolute terms.
SUBNORMAL_X = [5e-324, 1e-320, 1e-310]


def _subnormal_dps(x, dps):
    """dps plus 2 log10(1/x) digits at subnormal x.  The deficit x - sin_p(x)
    ~ x^(p+1)/(p(p+1)) (and arsinh_p's) lies p log10(1/x) digits below x, so
    dps digits round the reference onto x; these resolve it for p up to
    about 2, and beyond that it lies below x^3, under any nonzero abs_err."""
    return dps + (round(-2 * math.log10(x)) if x < sys.float_info.min else 0)


def _ulps(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _above_switch(p):
    """x just above the series switch, x^p = _Z_SWITCH (1 + 10^-k)^p for
    k = 1..4, where the solves start and their balls are sharpest."""
    return [_switch_x(p) * (1.0 + 10.0 ** -k) for k in range(1, 5)]


def _switch_x(p):
    """The x at which z = x^p reaches the one series switch."""
    return series._Z_SWITCH ** (1 / p)


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
    """d/dx cos_p = -cos_p^(2-p) sin_p^(p-1) from the reference pair; -inf
    at the pole, cos_p = 0 with p > 2."""
    if c == 0 and P > 2:
        return -mp.inf
    return -(c ** (2 - P)) * s ** (P - 1)


def _arguments(p):
    """Circular arguments x in [0, pi_p/2] for the audit at p."""
    half = ptrig.pi_p(p).value / 2
    rng = random.Random(int(p * 1000))
    xs = [half * rng.random() for _ in range(6)]
    xs += [half * 10.0 ** rng.uniform(-8, 0) for _ in range(3)]
    xs += [half * (1 - 1e-3), half * (1 - 1e-8), half - 1e-11, half]
    # Up to the pole of tan_p (and of d_cos_p for p > 2), which the ball of
    # cos_p alone decides: relative steps, and the last 40 ulps before it.
    xs += [half - half * 10.0 ** -k for k in range(9, 16)]
    below = half
    for _ in range(40):
        below = math.nextafter(below, 0.0)
        xs.append(below)
    # Near p = 1, where cos_p ~ exp(-x), far out on the p = 1 limit.
    xs += [10.0, 11.0, 12.0, 20.0, 30.0, 100.0, 700.0]
    # x = 0.05 stays a sample: below it the series once served every z for p < 2.
    xs += _ulps(0.05) + _ulps(_switch_x(p)) + _above_switch(p)
    xs += SUBNORMAL_X
    # The edges of the corner: x within the uncertainty of pi_p/2, and cos_p^p
    # at the smallest normal double by the solve's ceiling on log cos_p^p.
    fam = core._family(p)
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
        for s in [*SUBNORMAL_X, 0.1, 0.37, 0.8, 1 - 1e-6, 1 - 1e-12, math.nextafter(1.0, 0.0), 1.0,
                  *_ulps(s_seam)]:
            with mp.workdps(_subnormal_dps(s, mp.mp.dps)):
                check("arcsin_p", s, ptrig.arcsin_p(s, p), _mp_arcsin(mp.mpf(s), P))
        for x in _arguments(p):
            with mp.workdps(_subnormal_dps(x, mp.mp.dps)):
                sin = ptrig.sin_p(x, p)
                ref_s, ref_c = _mp_sin_cos(x, p, sin.value)
                check("sin_p", x, sin, ref_s)
                check("cos_p", x, ptrig.cos_p(x, p), ref_c)
                # PoleError, where the ball of cos_p reaches 0, is the one
                # refusal; a value at the pole itself audits against inf.
                for name, fn, ref in (("d_cos_p", ptrig.d_cos_p, _mp_d_cos(ref_s, ref_c, P)),
                                      ("tan_p", ptrig.tan_p, ref_s / ref_c if ref_c else mp.inf)):
                    try:
                        check(name, x, fn(x, p), ref)
                    except ptrig.PoleError:
                        pass
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


# Below the switch sin_p and sinh_p are the series' balls, whose radii are
# rounding: at most 16 eps relative, from one ulp above p = 1 up to the switch.
P_BELOW_SWITCH = [math.nextafter(1.0, 2.0), 1.5, 3.7, 50.0, 300.0]
Z_BELOW_SWITCH = [1e-12, 1e-6, 1e-3, 0.999 * series._Z_SWITCH]


@pytest.mark.parametrize("p", P_BELOW_SWITCH)
def test_series_balls_are_sharp_below_the_switch(p):
    for z in Z_BELOW_SWITCH:
        x = z ** (1 / p)
        assert series.small_z(p, x) is not None
        sin, sinh = ptrig.sin_p(x, p), ptrig.sinh_p(x, p)
        with mp.workdps(_circular_dps(p)):
            ref_s, _ = _mp_sin_cos(x, p, sin.value)
            ref_sh = _mp_sinh(x, mp.mpf(p), sinh.value)
        for ev, ref in ((sin, ref_s), (sinh, ref_sh)):
            assert _ratio(ev, ref) <= 1.0, (p, z)
            assert ev.abs_err <= 16 * core._EPS * ev.value, (p, z, ev)


P_HYPERBOLIC = [math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 2.0, 3.7, 10.0, 50.0, 300.0]


def _mp_arsinh(s, p):
    a = 1 / p
    return s * mp.re(mp.hyp2f1(a, a, 1 + a, -s ** p))


def _mp_sinh(x, P, guess):
    """sinh_p(x) in mpmath; guess is the double sinh_p value.  The root is
    found by Newton in L = log s, with d arsinh_p(e^L)/dL = e^L / cosh_p:
    out at x = 700 a step in s would not move s at the working precision."""
    return mp.exp(mp.findroot(
        lambda L: _mp_arsinh(mp.exp(L), P) - mp.mpf(x), mp.log(guess),
        solver="newton", df=lambda L: mp.exp(L) * (1 + mp.exp(P * L)) ** (-1 / P),
    ))


def _audit_hyperbolic(p):
    """(name, x, |value - ref| / abs_err) for sinh_p, cosh_p, tanh_p and
    d_tanh_p at x, and for arsinh_p at x as its argument, at p."""
    rng = random.Random(int(p * 1000))
    xs = [3.0 * rng.random() for _ in range(6)]
    xs += _ulps(0.05) + _ulps(_switch_x(p)) + _above_switch(p) + _ulps(1.0)
    # Where sinh_p's bracket changes rule, at the top of arsinh_p(1)'s
    # enclosure.
    fam = core._family(p)
    xs += _ulps(fam.arsinh_one.value) + _ulps(core._arsinh_bounds(fam, 1.0)[1])
    # Where the residual tolerance 1e-13 (1 + x) of the solve is absolute,
    # up to near the end of the double range.
    xs += [7.0, 40.0, 700.0]
    # Deep in the series range, and for arsinh_p a short quadrature interval.
    # Down to 1e-14 tanh_p's value must not pass through log sinh_p, whose
    # rounding there is |log sinh_p| ulp.
    xs += [1e-5, 9.230537181463702e-08] + [10.0 ** -k for k in range(7, 15)] + SUBNORMAL_X
    out = []
    P = mp.mpf(p)
    for x in xs:
        with mp.workdps(_subnormal_dps(x, DPS)):
            sinh = ptrig.sinh_p(x, p)
            s = _mp_sinh(x, P, sinh.value)
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


# Calls near the largest p at which the hyperbolic solve's ball, raised to
# the p-th power, stays clear of a pole or of the double range: cosh_p near
# x = 1 (up to p = 1e13, below the 1.09e13 where its ball first reaches the
# pole) and the functions built on it, lem23_g, thm1_f at x = 1, and beta,
# on which verify_claim's THM2_CHAIN rests, at p = 1e12.  Each must answer,
# and within its abs_err.
EDGE_CALLS = [("cosh_p", 1.0, 2.05e12), ("cosh_p", 1.0, 6.5e12), ("cosh_p", 1.0, 7.5e12),
              ("cosh_p", 1.0, 1e13), ("tanh_p", 1.0, 6.5e12),
              ("d_tanh_p", 1.0, 6.5e12), ("d_cosh_p", 1.0, 6.5e12), ("lem24_gap", 1.0, 6.5e12),
              ("d_cosh_p", 1.05, 3.16e15), ("lem23_g", 1.0, 1e12), ("thm1_f", 1.0, 1.5e6)]


def _mp_edge(name, x, p):
    if name in FUNCTIONALS:
        return _mp_functional(name, x, p)
    P = mp.mpf(p)
    sh, ch = _mp_sinh_cosh(x, p)
    return {"cosh_p": ch, "tanh_p": sh / ch, "d_tanh_p": 1 / (1 + sh ** P),
            "d_cosh_p": ch ** (2 - P) * sh ** (P - 1)}[name]


@pytest.mark.parametrize("name, x, p", EDGE_CALLS)
def test_calls_at_the_edge_answer_within_abs_err(name, x, p):
    with mp.workdps(DPS):
        assert _ratio(getattr(ptrig, name)(x, p), _mp_edge(name, x, p)) <= 1.0


def test_beta_at_the_edge_answers_within_abs_err():
    p = 1e12
    assert _ratio(iq._beta(core._family(p)), _mp_constants(p)["beta"]) <= 1.0
    assert iq.verify_claim(iq.FunctionId.THM2_CHAIN, p, iq.GridSpec(n=5)).p == p


# The closed-form enclosure of arsinh_p(s) that sets sinh_p's bracket, from
# just above the series range to near the largest double, around the change
# of bound at s = 1.
P_BOUNDS = [1.0 + 1e-9, 1.001, 1.1, 2.0, 3.0, 10.0, 50.0, 300.0]
S_BOUNDS = [1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 10.0, 1e3, 1e10, 1e100, 1e300]


@pytest.mark.parametrize("p", P_BOUNDS)
def test_arsinh_bounds_enclose_the_integral(p, monkeypatch):
    fam = core._Family(p)
    quad = functools.partial(core._arsinh_quad, fam)
    fam.arsinh_one
    monkeypatch.setattr(core, "_arsinh_quad", lambda *args: pytest.fail(f"quadrature at {args[1:]}"))
    for s in S_BOUNDS:
        lo, up = core._arsinh_bounds(fam, s)
        with mp.workdps(DPS):
            ref = _mp_arsinh(mp.mpf(s), mp.mpf(p))
        assert lo <= ref <= up, (s, lo, ref, up)
        # sinh_p's bracket for the x whose root the quadrature puts at s
        # holds that root: the quadrature's residual is below 0 at the
        # floor, or 0 where the floor is x and arsinh_p(x) rounds to x, and
        # not below 0 at the ceiling.
        x = quad(s).value
        _, floor, ceil = core._sinh_bracket(fam, x)
        below = quad(floor).value - x
        assert below < 0.0 or (below == 0.0 and floor == x), (s, floor, below)
        assert quad(ceil).value - x >= 0.0, (s, ceil)


@pytest.mark.parametrize("p", P_BOUNDS)
def test_floor_below_arsinh_one_lies_below_the_root(p):
    # Up to the top of arsinh_p(1)'s enclosure sinh_p's floor is the root of
    # U(s) = s (1 - y/(p (p + 1)) + (p + 1) y^2/(2 p^2 (2 p + 1))), y = s^p:
    # the binomial series of (1 + t^p)^(-1/p) integrated through its t^(2p)
    # term, which bounds arsinh_p from above on [0, 1].  arsinh_p rises, so
    # the floor lies below sinh_p(x) where arsinh_p(floor) < x.
    fam = core._Family(p)
    top = core._arsinh_bounds(fam, 1.0)[1]
    low = _switch_x(p) * (1.0 + 1e-4)
    with mp.workdps(50):
        P = mp.mpf(p)
        for s in (mp.mpf(s) for s in S_BOUNDS if s <= 1.0):
            y = s ** P
            U = s * (1 - y / (P * (P + 1)) + (P + 1) * y ** 2 / (2 * P ** 2 * (2 * P + 1)))
            assert _mp_arsinh(s, P) <= U, (s, U)
        for x in [low + (top - low) * k / 16 for k in range(16)] + [top]:
            start, floor, _ = core._sinh_bracket(fam, x)
            assert start == floor and _mp_arsinh(mp.mpf(floor), P) < x, (x, floor)


@pytest.mark.parametrize("p", P_BOUNDS)
def test_deficit_lies_between_the_binomial_bounds(p):
    # Above arsinh_p(1)'s enclosure sinh_p's floor is raised by g(s), the
    # integral over [1, s] of the first two terms of the binomial bound on
    # 1/t - (1 + t^p)^(-1/p), t^(-1) (u/p - (p + 1) u^2/(2 p^2)) with
    # u = t^(-p); the first term alone integrates to arsinh_p's 1/p^2 gap.
    with mp.workdps(50):
        P = mp.mpf(p)
        one = _mp_arsinh(mp.mpf(1), P)
        for s in (mp.mpf(s) for s in S_BOUNDS if s > 1.0):
            y = s ** -P
            deficit = mp.log(s) - (_mp_arsinh(s, P) - one)
            first = (1 - y) / P ** 2
            g = first - (P + 1) * (1 - y ** 2) / (4 * P ** 3)
            assert 0 <= g <= deficit <= first, (s, g, deficit, first)


def _cli_eval(fn, x, p):
    """fn(x, p) as ``ptrig eval --format json`` prints it."""
    out = io.StringIO()
    argv = ["eval", "--fn", fn, "--x", repr(x), "--p", repr(p), "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    got = json.loads(out.getvalue())
    return ptrig.Evaluation(got["value"], got["abs_err"])


@pytest.mark.parametrize("route", ["default", "cli"])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("x", [5.0, 40.0, 700.0])
def test_d_tanh_bound_shrinks_with_the_value(x, p, route):
    # d_tanh_p = cosh_p^(-p) falls like e^(-p x): an error in sinh_p moves it
    # in relative terms, so its abs_err must fall with it, in the library and
    # as the CLI prints it.  At x = 700 the value underflows and only the
    # 2 ulp(0) floor is left.
    d = ptrig.d_tanh_p(x, p) if route == "default" else _cli_eval("d_tanh_p", x, p)
    with mp.workdps(DPS):
        P = mp.mpf(p)
        s = _mp_sinh(x, P, ptrig.sinh_p(x, p).value)
        assert _ratio(d, 1 / (1 + s ** P)) <= 1.0
    assert d.abs_err <= 1e-6 * d.value + 2.0 * math.ulp(0.0)


@pytest.mark.parametrize(
    "p,x",
    [(2.5, 0.00023491957668433328), (3.7, 0.00031343483472087615), (3.0, 0.8),
     (10.0, 0.05), (50.0, 2.0), (1.5, 40.0), (300.0, 700.0),
     (300.0, 0.05), (300.0, 0.09), (2.5, 1e-300)],
)
def test_d_cosh_lies_within_abs_err(p, x):
    # Below s = 1 a single exp of (p - 1) log s would carry a rounding error
    # of |(p - 1) log s| ulp, past the bound at the first two points.  The
    # last three values underflow, or round among the subnormals.
    d = ptrig.d_cosh_p(x, p)
    with mp.workdps(DPS):
        P = mp.mpf(p)
        s = _mp_sinh(x, P, ptrig.sinh_p(x, p).value)
        ref = (1 + s ** P) ** ((2 - P) / P) * s ** (P - 1)
        assert _ratio(d, ref) <= 1.0


def _functional_dps(x, p):
    """DPS plus 2p log10(1/x) digits: each functional is a difference of O(1)
    terms that cancel to O(z) or, for lem24_gap, O(z^2), z = x^p."""
    return DPS + round(2 * p * max(0.0, -math.log10(x)))


# The roots are shared by the functionals of one side, whose grids coincide.

@functools.lru_cache(maxsize=None)
def _mp_sinh_cosh(x, p):
    with mp.workdps(_functional_dps(x, p)):
        P = mp.mpf(p)
        sh = _mp_sinh(x, P, ptrig.sinh_p(x, p).value)
        return sh, (1 + sh ** P) ** (1 / P)


@functools.lru_cache(maxsize=None)
def _mp_sin_cos_at(x, p):
    with mp.workdps(_functional_dps(x, p)):
        return _mp_sin_cos(x, p, ptrig.sin_p(x, p).value)


def _mp_functional(name, x, p):
    """The functional of inequalities called name at (x, p), from the roots,
    at _functional_dps(x, p) digits."""
    P, X = mp.mpf(p), mp.mpf(x)
    sh, ch = _mp_sinh_cosh(x, p)
    l2, l3 = mp.log(sh / X), mp.log1p(sh ** P) / P
    if name == "lem23_g":
        return P * l2 / (X * ch / sh - 1)
    if name == "lem24_gap":
        return l3 - X / P * (sh / ch) ** (P - 1)
    s, c = _mp_sin_cos_at(x, p)
    l1 = mp.log(X / s)
    return {"thm1_f": l1 / l2, "thm2_g": l1 / l3, "lem22_f": P * l1 / (1 - X * c / s)}[name]


def _functional_arguments(name, p):
    """The claim's 25-point verification grid and z = x^p at the series switch."""
    fam = core._family(p)
    xs = iq.grid_points(iq.GridSpec(n=25), *getattr(iq, name).domain.window(fam))
    return xs + _ulps(_switch_x(p))


FUNCTIONALS = ["thm1_f", "thm2_g", "lem22_f", "lem23_g", "lem24_gap"]
# LEM24_GAP holds for every p > 1, and its neighbour on the hyperbolic side is
# audited with it down to one ulp above 1.
P_NEAR_ONE = [math.nextafter(1.0, 2.0), 1.0 + 1e-14, 1.0 + 1e-9, 1.001]


@pytest.mark.parametrize(
    "name, p",
    [(name, p) for p in [1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 24.0, 50.0, 100.0] for name in FUNCTIONALS]
    + [(name, p) for p in P_NEAR_ONE for name in ("lem23_g", "lem24_gap")],
)
def test_functionals_lie_within_abs_err(name, p):
    xs = _functional_arguments(name, p)
    # Both the z-series and the direct route are audited.
    assert {series.small_z(p, x) is None for x in xs} == {False, True}
    bad = []
    for x in xs:
        with mp.workdps(_functional_dps(x, p)):
            r = _ratio(getattr(iq, name)(x, p), _mp_functional(name, x, p))
        if not r <= 1.0:
            bad.append((x, r))
    assert not bad, bad


def test_thm1_budget_just_under_the_switch_is_near_its_error():
    # Seven orders put the truncation bound down at rounding level: the
    # budget stays within 100 times the true error against 60 digits.
    p = 3.0
    x = (0.999 * series._Z_SWITCH) ** (1 / p)
    f = iq.thm1_f(x, p)
    with mp.workdps(60):
        P, X = mp.mpf(p), mp.mpf(x)
        s, _ = _mp_sin_cos(x, p, ptrig.sin_p(x, p).value)
        sh = _mp_sinh(x, P, ptrig.sinh_p(x, p).value)
        err = abs(mp.mpf(f.value) - mp.log(X / s) / mp.log(sh / X))
    assert err <= f.abs_err <= 100 * err, (f, float(err))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
@pytest.mark.parametrize("name", ["thm1_f", "thm2_g"])
def test_end_values_at_the_half_period_lie_within_abs_err(name, p):
    # At the float pi_p/2 thm1_f returns Theorem 1's sharp exponent and
    # thm2_g returns beta.  The reference is taken at min(x, pi_p/2), where
    # sin_p = 1 from the true pi_p/2 on, at 60 digits.
    x = ptrig.pi_p(p).value / 2
    with mp.workdps(60):
        P = mp.mpf(p)
        X = min(mp.mpf(x), mp.pi / (P * mp.sin(mp.pi / P)))
        s, _ = _mp_sin_cos(X, p, ptrig.sin_p(x, p).value)
        sh = _mp_sinh(X, P, ptrig.sinh_p(x, p).value)
        l1 = mp.log(X / s)
        ref = l1 / mp.log(sh / X) if name == "thm1_f" else l1 / (mp.log1p(sh ** P) / P)
        assert _ratio(getattr(iq, name)(x, p), ref) <= 1.0


# The chains' pair margins, which are what a chain's PASS rests on, against
# the same roots.  Both routes certify the chain with the exact constants, so
# the reference takes them exactly: alpha = 1/(1+p), lam = log(pi_p/2) and
# beta from an mpmath cosh_p(pi_p/2), to more digits than any point takes,
# as a cancelling pair lies that many digits below its terms.

@functools.lru_cache(maxsize=None)
def _mp_constants(p):
    with mp.workdps(200):
        P = mp.mpf(p)
        half = mp.pi / (P * mp.sin(mp.pi / P))
        sh = _mp_sinh(half, P, ptrig.sinh_p(float(half), p).value)
        lam = mp.log(half)
        beta = lam / (mp.log1p(sh ** P) / P)
        return {"alpha": 1 / (1 + P), "beta": beta, "lam": lam, "1/p": 1 / P, "p": P, "1": 1, "0": 0}


def _mp_chain_margins(tag, x, p):
    """T_(k+1) - T_k for the chain of tag at (x, p), at _functional_dps(x, p) digits."""
    P, X = mp.mpf(p), mp.mpf(x)
    sh, ch = _mp_sinh_cosh(x, p)
    prims = {"l2": mp.log(sh / X), "l3": mp.log1p(sh ** P) / P, "e": X * ch / sh - 1}
    if iq._CLAIMS[tag].domain is core._circular:
        s, c = _mp_sin_cos_at(x, p)
        prims.update(l1=mp.log(X / s), l4=-mp.log(c), d=1 - X * c / s)
    const = _mp_constants(p)
    terms = [mp.exp(sign * mp.mpf(const[k]) * (prims[prim] if prim else 0))
             for sign, k, prim in iq._CLAIMS[tag].formula]
    return [b - a for a, b in zip(terms, terms[1:])]


CHAINS = [tag for tag, claim in iq._CLAIMS.items() if claim.kind == "chain"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0, 10.0, 24.0, 50.0, 100.0, 300.0])
@pytest.mark.parametrize("tag", CHAINS, ids=str)
def test_chain_margins_lie_within_their_budgets(tag, p):
    fam = core._family(p)
    xs = iq.grid_points(iq.GridSpec(n=25), *iq._CLAIMS[tag].domain.window(fam)) + _ulps(_switch_x(p))
    # Both the z-series and the direct route are audited.
    assert {series.small_z(p, x) is None for x in xs} == {False, True}
    worst = 0.0
    for x in xs:
        _, margins, budgets = iq._chain_point(tag, fam, x)
        with mp.workdps(_functional_dps(x, p)):
            refs = _mp_chain_margins(tag, x, p)
            for m, b, ref in zip(margins, budgets, refs):
                worst = max(worst, float(abs(mp.mpf(m) - ref) / b))
    assert worst <= 1.0, (tag, p, worst)
