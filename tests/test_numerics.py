"""Quadrature, and the tests' differencing oracle, against closed forms."""

import math
import operator
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptrig import numerics
from ptrig.numerics import DomainError, Evaluation, NonConvergence, integrate
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
        # onto it, where the integrand is infinite.  integrate takes only
        # integrands finite at every node, and refuses a non-finite sample
        # there, or at the midpoint, at once.
        with pytest.raises(NonConvergence, match="non-finite"):
            integrate(lambda t: (1.0 - t * t) ** -0.5, 1.0, 1e-6, 1e-6)
        with pytest.raises(NonConvergence, match="non-finite"):
            integrate(lambda t: np.where(t == 0.5, np.nan, 1.0), 1.0, *TOL)

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


class TestBallRule:
    """Each Evaluation operation's ball encloses the exact image of its
    operands' enclosures, taken by mpmath at 60 digits, or the operation
    raises where that image reaches a pole or leaves the double range; and
    the platform libm stays within the accuracy that rule assumes."""

    @staticmethod
    def balls(rng, n, lo=-300.0, hi=300.0, sign=True):
        """Seeded balls: midpoints over many decades, radii from 0 through
        ulps and moderate relative errors to several times the midpoint."""
        out = []
        for _ in range(n):
            m = 10.0 ** rng.uniform(lo, hi) * (rng.choice((-1.0, 1.0)) if sign else 1.0)
            kind = rng.randrange(6)
            r = [0.0, math.ulp(m) * rng.uniform(0.0, 4.0), abs(m) * 10.0 ** rng.uniform(-16, -8),
                 abs(m) * 10.0 ** rng.uniform(-8, -1), abs(m) * rng.uniform(0.5, 3.0),
                 abs(m) * 10.0 ** rng.uniform(0, 3)][kind]
            out.append(Evaluation(m, r))
        return out

    @staticmethod
    def check(got, image, raises_if):
        """got is the ball or the exception; image the (lo, hi) ends of the
        exact image, or None where it reaches a pole."""
        if isinstance(got, Exception):
            assert raises_if or image is None or max(map(abs, image)) > 1e307, got
            return
        assert image is not None, got
        v, r = mp.mpf(got.value), mp.mpf(got.abs_err)
        for end in image:
            assert abs(end - v) <= r, (got, [mp.nstr(e, 20) for e in image])

    @staticmethod
    def attempt(fn, *args):
        """fn(*args), or the DomainError (PoleError included) or OverflowError
        it raised; any other exception, such as a ZeroDivisionError or a math
        domain error, fails the test."""
        try:
            return fn(*args)
        except (DomainError, OverflowError) as exc:
            return exc

    @staticmethod
    def ends(b):
        return mp.mpf(b.value) - mp.mpf(b.abs_err), mp.mpf(b.value) + mp.mpf(b.abs_err)

    def test_arithmetic_encloses(self):
        rng = random.Random(11)
        pairs = list(zip(self.balls(rng, 600), self.balls(rng, 600)))
        # Near-cancelling sums and operands far apart in scale.
        pairs += [(a, Evaluation(-a.value * (1 + rng.uniform(-1e-9, 1e-9)), a.abs_err)) for a, _ in pairs[:100]]
        with mp.workdps(60):
            for a, b in pairs:
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    corners = [op(x, y) if op is not operator.truediv or y != 0 else None
                               for x in self.ends(a) for y in self.ends(b)]
                    pole = op is operator.truediv and abs(b.value) <= b.abs_err
                    image = None if pole or None in corners else (min(corners), max(corners))
                    self.check(self.attempt(op, a, b), image, pole)
                    # A float operand is an exact ball, on either side.
                    y = mp.mpf(b.value)
                    if op is not operator.truediv or b.value != 0.0:
                        ends = [op(x, y) for x in self.ends(a)]
                        self.check(self.attempt(op, a, b.value), (min(ends), max(ends)), False)
                    if op is not operator.truediv or abs(a.value) > a.abs_err:
                        ends = [op(y, x) for x in self.ends(a)]
                        self.check(self.attempt(op, b.value, a), (min(ends), max(ends)), False)
                    elif op is operator.truediv:
                        self.check(self.attempt(op, b.value, a), None, True)
                self.check(-a, [-e for e in self.ends(a)], False)

    @pytest.mark.parametrize("name", ["exp", "expm1", "log", "log1p"])
    def test_functions_enclose(self, name):
        rng = random.Random(12)
        f = getattr(mp, name)
        pole = {"log": 0.0, "log1p": -1.0}.get(name)
        if pole is None:
            # Up to the ends of the double range: results that underflow to
            # subnormals and 0, and ends that approach overflow.
            ms = [rng.uniform(-760.0, 712.0) for _ in range(500)] + [10.0 ** rng.uniform(-320, 0) for _ in range(100)]
            balls = [Evaluation(m, b.abs_err / abs(b.value) * min(abs(m), 50.0))
                     for m, b in zip(ms, self.balls(rng, len(ms)))]
        else:
            balls = [Evaluation(pole + abs(b.value), b.abs_err) for b in self.balls(rng, 600, -320.0, 300.0)]
        with mp.workdps(60):
            for b in balls:
                lo, hi = self.ends(b)
                reaches = pole is not None and lo <= pole
                image = None if reaches else (f(lo), f(hi))
                self.check(self.attempt(getattr(Evaluation, name), b), image, reaches)

    def test_powers_enclose(self):
        rng = random.Random(13)
        ys = [0.0, 1.0, 2.0, 0.5, 1.0 / 3.0, -1.0, -0.7, 1e-9, 300.0, 1.0 + 1e-9]
        with mp.workdps(60):
            for b in self.balls(rng, 400, -300.0, 300.0, sign=False) + [Evaluation(0.0, 1e-3), Evaluation(5e-324, 5e-324)]:
                lo, hi = self.ends(b)
                lo = max(lo, mp.mpf(0))
                for y in ys + [rng.uniform(-3.0, 3.0)]:
                    reaches = y < 0.0 and lo == 0
                    image = None if reaches else tuple(sorted((lo ** y if lo or y else mp.mpf(1), hi ** y)))
                    self.check(self.attempt(operator.pow, b, y), image, reaches)

    def test_libm_stays_within_the_assumed_ulps(self):
        rng = random.Random(14)
        cases = [(math.exp, mp.exp, rng.uniform(-745.1, 709.78)) for _ in range(400)]
        cases += [(math.expm1, mp.expm1, rng.choice((rng.uniform(-40.0, 709.78), 10.0 ** rng.uniform(-300, 0))))
                  for _ in range(400)]
        cases += [(math.log, mp.log, 10.0 ** rng.uniform(-323.0, 308.0)) for _ in range(400)]
        cases += [(math.log1p, mp.log1p, rng.choice((-1.0 + 10.0 ** rng.uniform(-16, 0),
                                                    10.0 ** rng.uniform(-300, 308))))
                  for _ in range(400)]
        bases = [(10.0 ** rng.uniform(-300.0, 300.0), rng.uniform(-3.0, 3.0)) for _ in range(300)]
        bases += [(rng.uniform(0.0, 2.0), rng.uniform(1.0, 300.0)) for _ in range(100)]
        with mp.workdps(40):
            for fn, ref, x in cases:
                v = fn(x)
                assert abs(mp.mpf(v) - ref(mp.mpf(x))) <= numerics._libm(v), (fn.__name__, x)
            for x, y in bases:
                try:
                    v = x ** y
                except OverflowError:
                    continue
                assert abs(mp.mpf(v) - mp.mpf(x) ** mp.mpf(y)) <= numerics._libm(v), ("pow", x, y)
