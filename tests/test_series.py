"""Series coefficients and polynomial composition against mpmath references."""

import numpy as np
import pytest

from ptrig.series import (
    SmallZSeries,
    direct_coeffs,
    hyper_inverse_coeffs,
    inverse_coeffs,
    zero_coeff,
    zp,
    zp_eval,
    zp_expm1,
    zp_log1p,
    zp_mul,
    zp_pow1p,
    zp_shift_z,
    zp_trunc_err,
)

from conftest import mp_primitives, mp_sin_p, mp_sinh_p


class TestCoefficients:
    def test_classical_direct(self):
        # arcsin(s) = s + s^3/6 + 3 s^5/40 + 15 s^7/336 + ...
        a1, a2, a3 = direct_coeffs(2.0)
        assert a1 == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert a2 == pytest.approx(3.0 / 40.0, rel=1e-15)
        assert a3 == pytest.approx(15.0 / 336.0, rel=1e-15)

    def test_classical_inverse(self):
        # sin(x) = x - x^3/6 + x^5/120 - x^7/5040 + ...
        A1, A2, A3 = inverse_coeffs(2.0)
        assert A1 == pytest.approx(-1.0 / 6.0, rel=1e-15)
        assert A2 == pytest.approx(1.0 / 120.0, rel=1e-14)
        assert A3 == pytest.approx(-1.0 / 5040.0, rel=1e-12)

    def test_classical_hyperbolic(self):
        # sinh(x) = x + x^3/6 + x^5/120 + x^7/5040 + ...
        h1, h2, h3 = hyper_inverse_coeffs(2.0)
        assert h1 == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert h2 == pytest.approx(1.0 / 120.0, rel=1e-14)
        assert h3 == pytest.approx(1.0 / 5040.0, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_inverse_series_against_quadrature_inversion(self, p, x):
        # The pre-use check for the sin_p series: high-accuracy root of the
        # defining integral vs the truncated reversion.
        z = x ** p
        series = x * (1.0 + sum(c * z ** (k + 1) for k, c in enumerate(inverse_coeffs(p))))
        ref = float(mp_sin_p(p, x, dps=50))
        assert abs(series - ref) <= 25.0 * abs(inverse_coeffs(p)[0]) * z ** 4 * x + 1e-16 * x

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
    @pytest.mark.parametrize("x", [0.01, 0.05])
    def test_hyperbolic_series_against_quadrature_inversion(self, p, x):
        z = x ** p
        series = x * (1.0 + sum(c * z ** (k + 1) for k, c in enumerate(hyper_inverse_coeffs(p))))
        ref = float(mp_sinh_p(p, x, dps=50))
        assert abs(series - ref) <= 25.0 * abs(hyper_inverse_coeffs(p)[0]) * z ** 4 * x + 1e-16 * x


class TestPolynomialOps:
    def test_mul_truncates(self):
        a = zp(0.0, 1.0, 1.0, 1.0)
        b = zp(0.0, 2.0, 0.0, 0.0)
        assert np.array_equal(zp_mul(a, b), zp(0.0, 0.0, 2.0, 2.0))

    def test_log1p_of_z(self):
        assert np.allclose(zp_log1p(zp(0.0, 1.0)), zp(0.0, 1.0, -0.5, 1.0 / 3.0))

    def test_expm1_of_z(self):
        assert np.allclose(zp_expm1(zp(0.0, 1.0)), zp(0.0, 1.0, 0.5, 1.0 / 6.0))

    def test_pow1p_square(self):
        assert np.allclose(zp_pow1p(zp(0.0, 1.0), 2.0), zp(1.0, 2.0, 1.0, 0.0), atol=1e-15)

    def test_expm1_log1p_roundtrip(self):
        a = zp(0.0, 0.3, -0.1, 0.02)
        assert np.allclose(zp_expm1(zp_log1p(a)), a, atol=1e-16)

    def test_shift(self):
        assert np.array_equal(zp_shift_z(zp(1.0, 2.0, 3.0, 4.0)), zp(0.0, 1.0, 2.0, 3.0))

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            zp_log1p(zp(1.0, 1.0))

    def test_zero_coeff_accepts_rounding_residue(self):
        a = zp(0.0, 1e-18, 0.5, 0.1)
        out = zero_coeff(a, 1)
        assert out[1] == 0.0 and out[2] == 0.5

    def test_zero_coeff_rejects_real_coefficient(self):
        with pytest.raises(AssertionError):
            zero_coeff(zp(0.0, 0.01, 0.5, 0.1), 1)


# numpy reference for the polynomial kernels: the formulas on float arrays,
# with np.convolve for the product.  s = -1 is log1p, s = +1 gives the same
# expansion on |a| with every term added, which bounds each coefficient's
# rounding scale.
def _np_mul(a, b):
    return np.convolve(a, b)[:4]


def _np_log1p(a, s=-1.0):
    a2 = _np_mul(a, a)
    return a + s * 0.5 * a2 + _np_mul(a2, a) / 3.0


def _np_expm1(a):
    a2 = _np_mul(a, a)
    return a + 0.5 * a2 + _np_mul(a2, a) / 6.0


def _np_pow1p(a, r, s=-1.0):
    out = _np_expm1(r * _np_log1p(a, s))
    out[0] = 1.0
    return out


def _random_polys(seed, count=300, constant=False):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3.0, 1.0, 4)
        if not constant:
            c[0] = 0.0
        yield c


def _close(got, ref, scale, ulps=4.0):
    assert len(got) == 4 and all(type(c) is float for c in got)
    assert np.all(np.abs(np.array(got) - ref) <= ulps * np.finfo(float).eps * scale), (got, ref)


class TestKernelsAgainstNumpy:
    def test_mul(self):
        for a, b in zip(_random_polys(1, constant=True), _random_polys(2, constant=True)):
            _close(zp_mul(zp(*a), zp(*b)), _np_mul(a, b), _np_mul(np.abs(a), np.abs(b)))

    def test_log1p_expm1(self):
        for a in _random_polys(3):
            _close(zp_log1p(zp(*a)), _np_log1p(a), _np_log1p(np.abs(a), 1.0))
            _close(zp_expm1(zp(*a)), _np_expm1(a), _np_expm1(np.abs(a)))

    def test_pow1p(self):
        rng = np.random.default_rng(4)
        for a in _random_polys(5):
            r = rng.uniform(-3.0, 3.0)
            scale = _np_pow1p(np.abs(a), abs(r), 1.0)
            _close(zp_pow1p(zp(*a), r), _np_pow1p(a, r), scale, ulps=16.0)

    def test_eval_and_trunc_err(self):
        rng = np.random.default_rng(6)
        for a in _random_polys(7, constant=True):
            z = 10.0 ** rng.uniform(-6.0, -1.0)
            q = zp(*a)
            assert zp_eval(q, z) == a[0] + z * (a[1] + z * (a[2] + z * a[3]))
            ref = 25.0 * np.max(np.abs(a)) * z ** 4 + 4.0 * np.finfo(float).eps * (
                abs(a[0]) + abs(a[1]) * z + abs(a[2]) * z * z + abs(a[3]) * z ** 3
            )
            assert zp_trunc_err(q, z) == pytest.approx(ref, rel=4.0 * np.finfo(float).eps)

    def test_zero_coeff(self):
        rng = np.random.default_rng(8)
        for a in _random_polys(9, constant=True):
            k = int(rng.integers(0, 4))
            a[k] = rng.uniform(-1e-11, 1e-11) * np.max(np.abs(np.delete(a, k)))
            ref = a.copy()
            ref[k] = 0.0
            assert list(zero_coeff(zp(*a), k)) == ref.tolist()
            a[k] = 1e-9 * np.max(np.abs(np.delete(a, k)))
            with pytest.raises(AssertionError):
                zero_coeff(zp(*a), k)


# The degenerate inequality margins: differences whose z^1 terms cancel
# analytically.  Each entry builds the margin polynomial from the primitives
# the way the verification engine does.
_DEGENERATE = {
    "l1_minus_l2": lambda s: zero_coeff(s.l1 - s.l2, 1),
    "l1_minus_alpha_l3": lambda s: zero_coeff(s.l1 - s.l3 / (1.0 + s.p), 1),
    "l4_minus_l3": lambda s: zero_coeff(s.l4 - s.l3, 1),
    "d_over_p_minus_l1": lambda s: zero_coeff(s.d / s.p - s.l1, 1),
    "l2_minus_e_over_p": lambda s: zero_coeff(s.l2 - s.e / s.p, 1),
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
        assert zero_coeff(s.l1 - s.l2, 1)[2] < 0.0
        assert s.lem24[2] > 0.0  # the gap claim alone covers all p > 1

    def test_lem24_classical_coefficient(self):
        # At p=2 the gap expands as z^2/12 + O(z^3).
        s = SmallZSeries(2.0)
        assert s.lem24[2] == pytest.approx(1.0 / 12.0, rel=1e-12)
