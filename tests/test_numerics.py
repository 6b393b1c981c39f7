"""Quadrature, and the tests' differencing oracle, against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptrig.numerics import (
    DEFAULT_TOLERANCE,
    Evaluation,
    InvalidInterval,
    NonConvergence,
    Tolerance,
    integrate,
)
from tests.conftest import central_diff

PI_3 = 2.0 * math.pi / (3.0 * math.sin(math.pi / 3.0))  # closed form for the p=3 half-period


class TestDataTypes:
    def test_tolerance_defaults(self):
        t = Tolerance()
        assert t.abs_tol == 1e-12 and t.rel_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": 1.0},
            {"abs_tol": -1e-9},
            {"rel_tol": 0.0},
            {"rel_tol": 2.0},
        ],
    )
    def test_tolerance_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

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
    def test_constant(self):
        res = integrate(lambda t: 1.0, 0.0, 1.0)
        assert abs(res.value - 1.0) <= res.abs_err
        assert res.abs_err < 1e-12

    def test_cubic_moment(self):
        res = integrate(lambda t: 3.0 * t * t, 0.0, 1.0)
        assert abs(res.value - 1.0) <= max(res.abs_err, 4e-16)

    def test_classical_arcsine_singularity_one_arg(self):
        # One-argument integrands cannot resolve the last ~1e-16 of the
        # interval, so request a modest tolerance and check honesty.
        def f(t):
            u = 1.0 - t * t
            return u ** -0.5 if u > 0.0 else math.inf

        res = integrate(f, 0.0, 1.0, Tolerance(1e-6, 1e-6))
        assert abs(res.value - math.pi / 2.0) <= res.abs_err

    def test_p3_defining_integral(self):
        # Reflected, v = 1 - t, so the singularity sits at 0 where nodes keep
        # full resolution: 1 - t^3 = v (3 - 3v + v^2).
        def f(v):
            return (v * (3.0 - 3.0 * v + v * v)) ** (-1.0 / 3.0)

        res = integrate(f, 0.0, 1.0, Tolerance(1e-12, 1e-12))
        assert abs(res.value - PI_3 / 2.0) <= max(res.abs_err, 1e-13)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_reported_error_is_honest(self, tol):
        cases = [
            (lambda t: 1.0, 0.0, 1.0, 1.0),
            (lambda t: math.cos(t), 0.0, 1.0, math.sin(1.0)),
            # 1 - t^2 reflected to v (2 - v), singular at 0.
            (lambda v: (v * (2.0 - v)) ** -0.5, 0.0, 1.0, math.pi / 2.0),
        ]
        for f, a, b, exact in cases:
            res = integrate(f, a, b, Tolerance(tol, tol))
            assert abs(res.value - exact) <= res.abs_err
            assert res.abs_err <= 10.0 * tol * max(1.0, abs(exact))

    def test_vectorized_matches_scalar(self):
        scalar = integrate(lambda t: math.exp(-t), 0.0, 2.0)
        vector = integrate(lambda t: np.exp(-t), 0.0, 2.0, vectorized=True)
        assert scalar.value == vector.value
        assert abs(scalar.value - (1.0 - math.exp(-2.0))) <= scalar.abs_err

    def test_zero_mean_integrand(self):
        res = integrate(lambda t: t - 0.5, 0.0, 1.0)
        assert abs(res.value) <= max(res.abs_err, 1e-15)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf)])
    def test_invalid_interval(self, a, b):
        with pytest.raises(InvalidInterval):
            integrate(lambda t: 1.0, a, b)

    def test_nonconvergence_on_jump(self):
        with pytest.raises(NonConvergence):
            integrate(lambda t: 0.0 if t < 1.0 / 3.0 else 1.0, 0.0, 1.0, Tolerance(1e-12, 1e-12))

    @given(
        st.floats(-2.0, 0.0),
        st.floats(0.1, 1.0),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_additivity(self, a, gap1, gap2):
        b = a + gap1
        c = b + gap2
        f = lambda t: t ** 3 - 2.0 * t + 1.0
        whole = integrate(f, a, c)
        left = integrate(f, a, b)
        right = integrate(f, b, c)
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
