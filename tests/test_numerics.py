"""Quadrature, and the tests' differencing oracle, against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptrig.numerics import Evaluation, NonConvergence, integrate
from tests.conftest import central_diff

PI_3 = 2.0 * math.pi / (3.0 * math.sin(math.pi / 3.0))  # closed form for the p=3 half-period
TOL = (1e-12, 1e-12)  # integrate's absolute and relative targets


class TestDataTypes:
    def test_evaluation_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Evaluation(math.nan, 0.0)
        with pytest.raises(ValueError):
            Evaluation(math.inf, 0.0)
        with pytest.raises(ValueError):
            Evaluation(1.0, -1e-16)
        with pytest.raises(ValueError):
            Evaluation(1.0, math.nan)


class TestIntegrate:
    """integrate(f, b, abs_tol, rel_tol) takes f over (0, b), f mapping an
    array of nodes to the array of its values."""

    def test_constant(self):
        res = integrate(np.ones_like, 1.0, *TOL)
        assert abs(res.value - 1.0) <= res.abs_err
        assert res.abs_err < 1e-12

    def test_cubic_moment(self):
        res = integrate(lambda t: 3.0 * t * t, 1.0, *TOL)
        assert abs(res.value - 1.0) <= max(res.abs_err, 4e-16)

    def test_classical_arcsine_singularity_one_arg(self):
        # Unreflected, the singularity sits at b = 1: nodes near it round
        # onto it, where the integrand is infinite.  The non-finite guard
        # drops those samples and charges their mass, so request a modest
        # tolerance and check honesty.
        clipped = []

        def f(t):
            v = (1.0 - t * t) ** -0.5
            clipped.append(not np.isfinite(v).all())
            return v

        res = integrate(f, 1.0, 1e-6, 1e-6)
        assert any(clipped)
        assert abs(res.value - math.pi / 2.0) <= res.abs_err

    def test_p3_defining_integral(self):
        # Reflected, v = 1 - t, so the singularity sits at 0 where nodes keep
        # full resolution: 1 - t^3 = v (3 - 3v + v^2).
        def f(v):
            return (v * (3.0 - 3.0 * v + v * v)) ** (-1.0 / 3.0)

        res = integrate(f, 1.0, *TOL)
        assert abs(res.value - PI_3 / 2.0) <= max(res.abs_err, 1e-13)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_reported_error_is_honest(self, tol):
        cases = [
            (np.ones_like, 1.0),
            (np.cos, math.sin(1.0)),
            # 1 - t^2 reflected to v (2 - v), singular at 0.
            (lambda v: (v * (2.0 - v)) ** -0.5, math.pi / 2.0),
        ]
        for f, exact in cases:
            res = integrate(f, 1.0, tol, tol)
            assert abs(res.value - exact) <= res.abs_err
            assert res.abs_err <= 10.0 * tol * max(1.0, abs(exact))

    def test_zero_mean_integrand(self):
        res = integrate(lambda t: t - 0.5, 1.0, *TOL)
        assert abs(res.value) <= max(res.abs_err, 1e-15)

    def test_nonconvergence_on_jump(self):
        with pytest.raises(NonConvergence):
            integrate(lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0), 1.0, *TOL)

    @given(
        st.floats(-2.0, 0.0),
        st.floats(0.1, 1.0),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_additivity(self, a, gap1, gap2):
        # The cubic shifted by a, over (0, c) and split at b.
        b = gap1
        c = b + gap2
        f = lambda t: (t + a) ** 3 - 2.0 * (t + a) + 1.0
        whole = integrate(f, c, *TOL)
        left = integrate(f, b, *TOL)
        right = integrate(lambda t: f(t + b), c - b, *TOL)
        assert abs(whole.value - left.value - right.value) <= (
            whole.abs_err + left.abs_err + right.abs_err + 4e-16
        )


class TestCentralDiff:
    """The derivative oracle of C06 and TestDerivatives, kept in tests.conftest."""

    def test_quadratic(self):
        assert abs(central_diff(lambda x: x * x, 1.0, 1e-5) - 2.0) <= 1e-9

    def test_sine_at_zero(self):
        assert abs(central_diff(math.sin, 0.0, 1e-5) - 1.0) <= 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            central_diff(math.sin, 0.0, 0.0)
        with pytest.raises(ValueError):
            central_diff(math.sin, 0.0, -1e-5)
