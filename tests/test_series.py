"""Series coefficients, exact and rounded once, against mpmath references."""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ptrig import core, series
from ptrig import inequalities as iq
from ptrig.series import _DEG, SmallZSeries, zp_eval, zp_trunc_err

from conftest import mp_primitives, mp_sin_p, mp_sinh_p

# Attributes of SmallZSeries, and the quotients the functionals take.
ATTRIBUTES = ["sin_ratio", "sinh_ratio", "l1", "l2", "l3", "l4", "d", "e", "lem24"]
QUOTIENTS = [claim.formula[:2] for claim in iq._CLAIMS.values()
             if claim.kind != "chain" and claim.formula[1] is not None]
P_EXACT = [1.0 + 2.0 ** -52, 1.5, 2.0, 3.7, 10.0, 300.0]
F = iq.FunctionId

# Weights of SmallZSeries.combination, as functions of the exact p.
ONE, ALPHA, INV_P = (lambda P: 1), (lambda P: 1 / (1 + P)), (lambda P: 1 / P)


# An independent reference: series in z with mpmath coefficients, _DPS
# digits, orders 0 .. _N - 1, composed by the binomial, log and exp
# expansions, with sin_p(x)/x = g(z) found by fixed-point reversion
# g = 1/f(z g^p), where arcsin_p(s) = s f(s^p), and likewise sinh_p(x)/x from
# the arsinh_p integral.  The quotients lose an order, and the dropped
# coefficient c_DEG of each is checked too.  Near p = 1 the high orders lie
# some 36 digits below the leading ones, so _DPS leaves them 40 of their own.
_N = _DEG + 2
_DPS = 80


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
    """Every SmallZSeries attribute, and the quotients, from _DPS-digit mpmath."""
    with mp.workdps(_DPS):
        P = mp.mpf(p)
        one = [mp.mpf(1)] + [mp.mpf(0)] * (_N - 1)
        g, h = _power(_reverted(P, -1), -1), _power(_reverted(P, 1), -1)
        sin_pow, sinh_pow = _shifted(_power(g, P)), _shifted(_power(h, P))
        cos_pow = [a - b for a, b in zip(one, sin_pow)]  # cos_p^p = 1 - sin_p^p
        cosh_pow = [a + b for a, b in zip(one, sinh_pow)]
        ref = {
            "sin_ratio": g,
            "sinh_ratio": h,
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


def _dropped_ratio(c):
    """|c_DEG| / max |c_<DEG|: the sample _TRUNC_FACTOR bounds."""
    return abs(c[_DEG]) / max(map(abs, c[:_DEG]))


def _rounded_is_nearest(got, ref):
    """got[k] is the double nearest ref[k]; a reference coefficient at the
    _DPS-digit noise floor of its series stands for an exact 0."""
    scale = max(abs(c) for c in ref[:_DEG])
    want = [0.0 if abs(c) <= mp.mpf(10) ** (10 - _DPS) * scale else float(c) for c in ref[:_DEG]]
    return list(got) == want and all(type(c) is float for c in got)


# At p = 2, z = x^2: sin x / x = sum_k (-z)^k/(2k + 1)!, and log(x/sin x) =
# sum_k 2^(2k-1) |B_2k| z^k / (k (2k)!), with the Bernoulli numbers B_2k.
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
              Fraction(-691, 2730), Fraction(7, 6)]
_SIN_OVER_X = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(_DEG)]
_LOG_X_OVER_SIN = [Fraction(0)] + [2 ** (2 * k - 1) * abs(_BERNOULLI[k - 1])
                                   / (k * math.factorial(2 * k)) for k in range(1, _DEG)]


class TestCoefficients:
    def test_classical_inverse(self):
        # sin(x) = x - x^3/6 + x^5/120 - x^7/5040 + ...; log(x/sin x) = x^2/6 +
        # x^4/180 + x^6/2835 + ...; log cosh - (x/2) tanh = x^4/12 + ...
        s = SmallZSeries(2.0)
        assert s.sin_ratio == tuple(map(float, _SIN_OVER_X))
        assert s.sin_ratio[:4] == (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
        assert s.l1 == tuple(map(float, _LOG_X_OVER_SIN))
        assert s.l1[:4] == (0.0, 1.0 / 6.0, 1.0 / 180.0, 1.0 / 2835.0)
        assert s.lem24[2] == 1.0 / 12.0

    def test_classical_hyperbolic(self):
        # sinh(x) = x + x^3/6 + x^5/120 + x^7/5040 + ...; log(sinh x / x) is
        # log(x/sin x) at -z.
        s = SmallZSeries(2.0)
        assert s.sinh_ratio == tuple(float(abs(c)) for c in _SIN_OVER_X)
        assert s.l2 == tuple(float((-1) ** (k + 1) * c) for k, c in enumerate(_LOG_X_OVER_SIN))
        assert s.l2[:4] == (0.0, 1.0 / 6.0, -1.0 / 180.0, 1.0 / 2835.0)

    @pytest.mark.parametrize("p", P_EXACT, ids=repr)
    def test_every_coefficient_is_the_nearest_double(self, p):
        s = SmallZSeries(p)
        ref = _mp_series(p)
        wrong = [name for name in ATTRIBUTES if not _rounded_is_nearest(getattr(s, name), ref[name])]
        wrong += [key for key in QUOTIENTS if not _rounded_is_nearest(s.quotient(*key), ref[key])]
        assert not wrong, wrong

    @pytest.mark.parametrize("p", P_EXACT, ids=repr)
    def test_the_dropped_coefficient_is_within_the_truncation_factor(self, p):
        # zp_trunc_err's tail term assumes |c_DEG| <= _TRUNC_FACTOR max |c_<DEG|.
        ref = _mp_series(p)
        for key in ATTRIBUTES + QUOTIENTS:
            assert _dropped_ratio(ref[key]) <= series._TRUNC_FACTOR, (key, p)

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
                want = [series_of(b, j, shared) - series_of(a, j, shared) for j in range(_DEG)]
                assert gaps[k][0] == tuple(map(float, want)), (tag, k)
                if (tag, k) in self.CANCELLING:
                    assert want[1] == 0 and gaps[k][0][1] == 0.0, (tag, k)
        assert without == self.MIXED
        assert exact["lem24"][1] == 0

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_inverse_series_against_quadrature_inversion(self, p, x):
        # The pre-use check for the sin_p series: high-accuracy root of the
        # defining integral vs the truncated reversion with its rounded
        # coefficients, summed in mpmath: a float sum rounds by an ulp,
        # 1.1 to 2.2e-16 x, which zp_trunc_err charges and this bound does not.
        ratio = SmallZSeries(p).sin_ratio
        assert _truncation_miss(ratio, x, p, mp_sin_p(p, x, dps=50)) <= 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_hyperbolic_series_against_quadrature_inversion(self, p, x):
        ratio = SmallZSeries(p).sinh_ratio
        assert _truncation_miss(ratio, x, p, mp_sinh_p(p, x, dps=50)) <= 0.0


def _truncation_miss(ratio, x, p, ref):
    """|x ratio(z) - ref| less 25 |c1| z^_DEG x + 1e-16 x, z = x^p, at 50 digits."""
    with mp.workdps(50):
        z = mp.mpf(x) ** p
        got = x * mp.fsum(c * z ** k for k, c in enumerate(ratio))
        return abs(got - ref) - (25 * abs(ratio[1]) * z ** _DEG * x + mp.mpf(1e-16) * x)


class TestPolynomialOps:
    """The rational recurrences the series are built with, on series whose
    expansions are known in closed form, and the exact combinations."""

    @staticmethod
    def q(*coeffs):
        return [Fraction(c) for c in coeffs]

    def test_log1p_of_z(self):
        assert series._log(self.q(1, 1, 0, 0, 0)) == self.q(0, 1, "-1/2", "1/3", "-1/4")

    def test_exp_of_z(self):
        assert series._exp(self.q(0, 1, 0, 0, 0)) == self.q(1, 1, "1/2", "1/6", "1/24")

    @staticmethod
    def power(a, r):
        """a^r as the exact engine forms f^(-pm): exp(r log a)."""
        return series._exp([r * c for c in series._log(a)])

    def test_pow1p_square(self):
        assert self.power(self.q(1, 1, 0, 0, 0), 2) == self.q(1, 2, 1, 0, 0)
        assert self.power(self.q(1, 1, 0, 0, 0), Fraction(1, 2)) == self.q(
            1, "1/2", "-1/8", "1/16", "-5/128")

    def test_expm1_log1p_roundtrip(self):
        a = self.q(0, "3/10", "-1/10", "1/50", "7/3")
        one_plus_a = self.q(1, *a[1:])
        assert series._exp(series._log(one_plus_a)) == one_plus_a
        assert series._div(self.power(one_plus_a, 3), one_plus_a) == self.power(one_plus_a, 2)

    def test_combination_is_rounded_once(self):
        # 6 l1/p - l4 at p = 2: 3 (z/6 + z^2/180) - (z/2 + z^2/12) drops z^1.
        s = SmallZSeries(2.0)
        got = s.combination([(6, INV_P, "l1"), (-1, ONE, "l4")])
        exact = [3 * a - b for a, b in zip(s._exact["l1"], s._exact["l4"])]
        assert got == tuple(map(float, exact[:_DEG]))
        assert got[1] == 0.0 and exact[2] == Fraction(-1, 15)


def _random_polys(seed, count=300):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.choice([-1.0, 1.0], _DEG) * 10.0 ** rng.uniform(-3.0, 1.0, _DEG)


class TestKernelsAgainstNumpy:
    def test_eval_and_trunc_err(self):
        rng = np.random.default_rng(6)
        for a in _random_polys(7):
            z = 10.0 ** rng.uniform(-6.0, -1.0)
            q = tuple(map(float, a))
            horner = 0.0
            for c in a[::-1]:
                horner = c + z * horner
            assert zp_eval(q, z) == horner
            assert zp_eval(q, z) == pytest.approx(np.polyval(a[::-1], z), rel=1e-13, abs=1e-300)
            ref = 25.0 * np.max(np.abs(a)) * z ** _DEG + _DEG * np.finfo(float).eps * np.polyval(
                np.abs(a[::-1]), z)
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

# Each margin is taken at 50 digits from the exact p, as alpha = 1/(1 + p) is.
_MP_MARGIN = {
    "l1_minus_l2": lambda r, p: r["l1"] - r["l2"],
    "l1_minus_alpha_l3": lambda r, p: r["l1"] - r["l3"] / (1 + mp.mpf(p)),
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
            with mp.workdps(50):
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


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_series.py prints, per p of P_EXACT, the
    # worst |c_DEG| / max |c_<DEG| over the attributes and quotients, the
    # sample that _TRUNC_FACTOR rests on, and the time to build SmallZSeries.
    for p in P_EXACT:
        ref = _mp_series(p)
        worst = max(ATTRIBUTES + QUOTIENTS, key=lambda key: _dropped_ratio(ref[key]))
        start = time.perf_counter()
        SmallZSeries(p)
        build = time.perf_counter() - start
        print(f"p = {p!r}: worst |c{_DEG}|/max|c<{_DEG}| = {float(_dropped_ratio(ref[worst])):.3g} "
              f"({worst}), SmallZSeries built in {1e3 * build:.2f} ms")
