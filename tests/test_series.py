"""Series coefficients, exact and rounded once, against mpmath references."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ptrig import core, series
from ptrig import inequalities as iq
from ptrig.series import SmallZSeries, zp_eval, zp_trunc_err

from conftest import mp_primitives, mp_sin_p, mp_sinh_p

# Attributes of SmallZSeries, and the quotients the functionals take.
ATTRIBUTES = ["sin_ratio", "sinh_ratio", "l1", "l2", "l3", "l4", "d", "e", "lem24"]
QUOTIENTS = [claim.formula[:2] for claim in iq._CLAIMS.values()
             if claim.kind != "chain" and claim.formula[1] is not None]
P_EXACT = [1.0 + 2.0 ** -52, 1.5, 2.0, 3.7, 10.0, 300.0]
F = iq.FunctionId

# Weights of SmallZSeries.combination, as functions of the exact p.
ONE, ALPHA, INV_P = (lambda P: 1), (lambda P: 1 / (1 + P)), (lambda P: 1 / P)


# An independent reference: series in z with mpmath coefficients, 50 digits,
# orders 0 .. _N - 1, composed by the binomial, log and exp expansions, with
# sin_p(x)/x = g(z) found by fixed-point reversion g = 1/f(z g^p), where
# arcsin_p(s) = s f(s^p), and likewise sinh_p(x)/x from the arsinh_p integral.
_N = 6


def _mul(a, b):
    return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(_N)]


def _compose(coeffs, u):
    """sum_k coeffs[k] u^k, for u[0] = 0."""
    out = [mp.mpf(0)] * _N
    for c in reversed(coeffs):
        out = _mul(out, u)
        out[0] += c
    return out


def _unit(a):
    return a[0], [mp.mpf(0)] + [c / a[0] for c in a[1:]]


def _power(a, r):
    a0, u = _unit(a)
    binomial = [mp.binomial(r, k) for k in range(_N)]
    return [a0 ** r * c for c in _compose(binomial, u)]


def _log(a):
    a0, u = _unit(a)
    out = _compose([0] + [(-1) ** (k + 1) / mp.mpf(k) for k in range(1, _N)], u)
    return [out[0] + mp.log(a0)] + out[1:]


def _shifted(a):
    return [mp.mpf(0)] + a[:-1]


def _reverted(P, sign):
    """x/s as a series in z = x^p, for s = sin_p(x) (sign -1) or sinh_p(x) (+1)."""
    f = [mp.binomial(-1 / P, k) * sign ** k / (k * P + 1) for k in range(_N)]
    g = [mp.mpf(1)] + [mp.mpf(0)] * (_N - 1)
    for _ in range(_N + 1):
        g = _power(_compose(f, _shifted(_power(g, P))), -1)
    return _power(g, -1)


def _mp_series(p):
    """Every SmallZSeries attribute, and the quotients, from 50-digit mpmath."""
    with mp.workdps(50):
        P = mp.mpf(p)
        one = [mp.mpf(1)] + [mp.mpf(0)] * (_N - 1)
        g, h = _power(_reverted(P, -1), -1), _power(_reverted(P, 1), -1)
        sin_pow, sinh_pow = _shifted(_power(g, P)), _shifted(_power(h, P))
        cos_pow = [a - b for a, b in zip(one, sin_pow)]  # cos_p^p = 1 - sin_p^p
        cosh_pow = [a + b for a, b in zip(one, sinh_pow)]
        ref = {
            "sin_ratio": [g[0] - 1] + g[1:],
            "sinh_ratio": [h[0] - 1] + h[1:],
            "l1": [-c for c in _log(g)],
            "l2": _log(h),
            "l3": [c / P for c in _log(cosh_pow)],
            "l4": [-c / P for c in _log(cos_pow)],
            "d": [a - b for a, b in zip(one, _mul(_power(cos_pow, 1 / P), _power(g, -1)))],
            "e": [a - b for a, b in zip(_mul(_power(cosh_pow, 1 / P), _power(h, -1)), one)],
        }
        # (x/p) tanh_p^(p-1) = (z/p) (sinh_p/x)^(p-1) cosh_p^(1-p)
        growth = _mul(_power(h, P - 1), _power(cosh_pow, (1 - P) / P))
        ref["lem24"] = [a - b / P for a, b in zip(ref["l3"], _shifted(growth))]
        for num, den in QUOTIENTS:
            a, b = ref[num][1:] + [0], ref[den][1:] + [0]
            q = _mul(a, _power(b, -1))
            ref[num, den] = q[:_N - 1]
        return ref


def _rounded_is_nearest(got, ref):
    """got[k] is the double nearest ref[k]; a reference coefficient at the
    50-digit noise floor of its series stands for an exact 0."""
    scale = max(abs(c) for c in ref[:4])
    want = [0.0 if abs(c) <= mp.mpf(10) ** -40 * scale else float(c) for c in ref[:4]]
    return list(got) == want and all(type(c) is float for c in got)


class TestCoefficients:
    def test_classical_inverse(self):
        # sin(x) = x - x^3/6 + x^5/120 - x^7/5040 + ...; log(x/sin x) = x^2/6 +
        # x^4/180 + x^6/2835 + ...; log cosh - (x/2) tanh = x^4/12 + ...
        s = SmallZSeries(2.0)
        assert s.sin_ratio == (0.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
        assert s.l1 == (0.0, 1.0 / 6.0, 1.0 / 180.0, 1.0 / 2835.0)
        assert s.lem24[2] == 1.0 / 12.0

    def test_classical_hyperbolic(self):
        # sinh(x) = x + x^3/6 + x^5/120 + x^7/5040 + ...
        s = SmallZSeries(2.0)
        assert s.sinh_ratio == (0.0, 1.0 / 6.0, 1.0 / 120.0, 1.0 / 5040.0)
        assert s.l2 == (0.0, 1.0 / 6.0, -1.0 / 180.0, 1.0 / 2835.0)

    @pytest.mark.parametrize("p", P_EXACT, ids=repr)
    def test_every_coefficient_is_the_nearest_double(self, p):
        s = SmallZSeries(p)
        ref = _mp_series(p)
        wrong = [name for name in ATTRIBUTES if not _rounded_is_nearest(getattr(s, name), ref[name])]
        wrong += [key for key in QUOTIENTS if not _rounded_is_nearest(s.quotient(*key), ref[key])]
        assert not wrong, wrong

    @pytest.mark.parametrize("p", P_EXACT, ids=repr)
    def test_the_dropped_coefficient_is_within_the_truncation_factor(self, p):
        # zp_trunc_err's tail term assumes |c4| <= _TRUNC_FACTOR max |c0 .. c3|.
        ref = _mp_series(p)
        for key in ATTRIBUTES + QUOTIENTS:
            c = ref[key]
            assert abs(c[4]) <= series._TRUNC_FACTOR * max(map(abs, c[:4])), (key, p)

    # The pairs (k, k+1) whose z^1 terms the paper cancels, and the three
    # pairs that set beta or lam against another constant, which no exact
    # gap carries: beta and lam are no rationals in p.
    CANCELLING = {(F.COROLLARY_CHAIN, 0), (F.COROLLARY_CHAIN, 2), (F.THM1_CHAIN, 1),
                  (F.THM2_CHAIN, 1), (F.LEM22_CHAIN, 0), (F.LEM23_CHAIN, 0)}
    MIXED = {(F.THM2_CHAIN, 0), (F.COROLLARY_CHAIN, 1), (F.LEM22_CHAIN, 1)}

    @pytest.mark.parametrize("p", [1.0 + 2.0 ** -52, 1.0001, 2.5, 24.0, 300.0, 1e10, 1e300],
                             ids=repr)
    def test_declared_cancellations_are_exact(self, p):
        # Every pair but the three mixed ones gets an exact gap: both constants
        # rational in p, or one constant on both sides, which then scales the
        # gap.  Each gap is the float nearest its exact series, so a z^1 term
        # that cancels is 0 as a Fraction and as a float.
        P = Fraction(p)
        exact = SmallZSeries(p)._exact
        rational = {"alpha": 1 / (1 + P), "1/p": 1 / P, "p": P, "1": 1, "0": 0}
        fam = core._family(p)

        def series_of(term, k, shared):
            sign, const, prim = term
            return 0 if prim is None else sign * (1 if shared else rational[const]) * exact[prim][k]

        without = set()
        for tag, claim in iq._CLAIMS.items():
            if claim.kind != "chain":
                continue
            gaps = iq._exact_gaps(fam, tag)
            for k, (a, b) in enumerate(zip(claim.formula, claim.formula[1:])):
                if gaps[k] is None:
                    without.add((tag, k))
                    continue
                shared = not (a[1] in rational and b[1] in rational)
                assert not shared or a[1] == b[1], (tag, k)
                want = [series_of(b, j, shared) - series_of(a, j, shared) for j in range(4)]
                assert gaps[k][0] == tuple(map(float, want)), (tag, k)
                if (tag, k) in self.CANCELLING:
                    assert want[1] == 0 and gaps[k][0][1] == 0.0, (tag, k)
        assert without == self.MIXED
        assert exact["lem24"][1] == 0

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_inverse_series_against_quadrature_inversion(self, p, x):
        # The pre-use check for the sin_p series: high-accuracy root of the
        # defining integral vs the truncated reversion.
        z = x ** p
        ratio = SmallZSeries(p).sin_ratio
        ref = float(mp_sin_p(p, x, dps=50))
        assert abs(x * (1.0 + zp_eval(ratio, z)) - ref) <= 25.0 * abs(ratio[1]) * z ** 4 * x + 1e-16 * x

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_hyperbolic_series_against_quadrature_inversion(self, p, x):
        z = x ** p
        ratio = SmallZSeries(p).sinh_ratio
        ref = float(mp_sinh_p(p, x, dps=50))
        assert abs(x * (1.0 + zp_eval(ratio, z)) - ref) <= 25.0 * abs(ratio[1]) * z ** 4 * x + 1e-16 * x


class TestPolynomialOps:
    """The rational recurrences the series are built with, on series whose
    expansions are known in closed form, and the exact combinations."""

    @staticmethod
    def q(*coeffs):
        return [Fraction(c) for c in coeffs]

    def test_log1p_of_z(self):
        assert series._log(self.q(1, 1, 0, 0, 0)) == self.q(0, 1, "-1/2", "1/3", "-1/4")

    def test_expm1_of_z(self):
        assert series._expm1(self.q(0, 1, 0, 0, 0)) == self.q(0, 1, "1/2", "1/6", "1/24")

    def test_pow1p_square(self):
        assert series._pow(self.q(1, 1, 0, 0, 0), 2) == self.q(1, 2, 1, 0, 0)
        assert series._pow(self.q(1, 1, 0, 0, 0), Fraction(1, 2)) == self.q(
            1, "1/2", "-1/8", "1/16", "-5/128")

    def test_expm1_log1p_roundtrip(self):
        a = self.q(0, "3/10", "-1/10", "1/50", "7/3")
        one_plus_a = self.q(1, *a[1:])
        assert series._expm1(series._log(one_plus_a)) == a
        assert series._div(series._pow(one_plus_a, 3), one_plus_a) == series._pow(one_plus_a, 2)

    def test_combination_is_rounded_once(self):
        # 6 l1/p - l4 at p = 2: 3 (z/6 + z^2/180) - (z/2 + z^2/12) drops z^1.
        s = SmallZSeries(2.0)
        got = s.combination([(6, INV_P, "l1"), (-1, ONE, "l4")])
        exact = [3 * a - b for a, b in zip(s._exact["l1"], s._exact["l4"])]
        assert got == tuple(map(float, exact[:4]))
        assert got[1] == 0.0 and exact[2] == Fraction(-1, 15)


def _random_polys(seed, count=300):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 1.0, 4)


class TestKernelsAgainstNumpy:
    def test_eval_and_trunc_err(self):
        rng = np.random.default_rng(6)
        for a in _random_polys(7):
            z = 10.0 ** rng.uniform(-6.0, -1.0)
            q = tuple(map(float, a))
            assert zp_eval(q, z) == a[0] + z * (a[1] + z * (a[2] + z * a[3]))
            ref = 25.0 * np.max(np.abs(a)) * z ** 4 + 4.0 * np.finfo(float).eps * (
                abs(a[0]) + abs(a[1]) * z + abs(a[2]) * z * z + abs(a[3]) * z ** 3
            )
            assert zp_trunc_err(q, z) == pytest.approx(ref, rel=4.0 * np.finfo(float).eps)


# The degenerate inequality margins: differences whose z^1 terms cancel
# analytically.  Each entry builds the margin polynomial from the primitives
# the way the verification engine does, as one exact combination.
_DEGENERATE = {
    "l1_minus_l2": lambda s: s.combination([(1, ONE, "l1"), (-1, ONE, "l2")]),
    "l1_minus_alpha_l3": lambda s: s.combination([(1, ONE, "l1"), (-1, ALPHA, "l3")]),
    "l4_minus_l3": lambda s: s.combination([(1, ONE, "l4"), (-1, ONE, "l3")]),
    "d_over_p_minus_l1": lambda s: s.combination([(1, INV_P, "d"), (-1, ONE, "l1")]),
    "l2_minus_e_over_p": lambda s: s.combination([(1, ONE, "l2"), (-1, INV_P, "e")]),
    "lem24": lambda s: s.lem24,
}

_MP_MARGIN = {
    "l1_minus_l2": lambda r, p: r["l1"] - r["l2"],
    "l1_minus_alpha_l3": lambda r, p: r["l1"] - r["l3"] / (1 + p),
    "l4_minus_l3": lambda r, p: r["l4"] - r["l3"],
    "d_over_p_minus_l1": lambda r, p: r["d"] / p - r["l1"],
    "l2_minus_e_over_p": lambda r, p: r["l2"] - r["e"] / p,
    "lem24": lambda r, p: r["lem24"],
}


class TestPrimitiveSeries:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("zval", [1e-4, 1e-3, 0.01])
    def test_primitives_and_margins_against_mpmath(self, p, zval):
        x = zval ** (1.0 / p)
        refs = mp_primitives(p, x, dps=50)
        s = SmallZSeries(p)

        for name in ("l1", "l2", "l3", "l4", "d", "e"):
            poly = getattr(s, name)
            got = zp_eval(poly, zval)
            err = zp_trunc_err(poly, zval)
            assert abs(got - float(refs[name])) <= err, f"{name} at p={p}, z={zval}"

        for name, build in _DEGENERATE.items():
            poly = build(s)
            got = zp_eval(poly, zval)
            true = float(_MP_MARGIN[name](refs, p))
            err = zp_trunc_err(poly, zval)
            assert abs(got - true) <= err, f"{name} at p={p}, z={zval}"
            # The bound must also leave the margin usable for certification.
            assert err <= 0.05 * abs(true), f"{name} budget at p={p}, z={zval}"

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0, 10.0])
    def test_degenerate_margins_are_positive_series(self, p):
        # Leading z^2 coefficient must be strictly positive for every margin
        # the engine certifies through the series route.  This holds on the
        # p >= 2 set only: e.g. the l1 - l2 coefficient is negative at
        # p = 1.5, which is why those claims hypothesize p >= 2.
        s = SmallZSeries(p)
        for name, build in _DEGENERATE.items():
            poly = build(s)
            assert poly[1] == 0.0, name
            assert poly[2] > 0.0, f"{name} leading coefficient at p={p}"

    def test_below_two_the_circular_hyperbolic_margin_flips(self):
        s = SmallZSeries(1.5)
        assert _DEGENERATE["l1_minus_l2"](s)[2] < 0.0
        assert s.lem24[2] > 0.0  # the gap claim alone covers all p > 1

    def test_lem24_classical_coefficient(self):
        # At p=2 the gap expands as z^2/12 + O(z^3).
        s = SmallZSeries(2.0)
        assert s.lem24[2] == pytest.approx(1.0 / 12.0, rel=1e-12)
