"""Core evaluator tests: classical reductions, frozen high-precision values,
identities, round trips, error-bound honesty, and domain policing."""

import gc
import inspect
import itertools
import math
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import ptrig
from ptrig import (
    DomainError,
    Evaluation,
    NonConvergence,
    PoleError,
    Tolerance,
)
from ptrig import core, series
from ptrig import inequalities as iq
from tests.conftest import central_diff, classical_pi_p

P_GRID = [1.5, 2.0, 2.5, 3.0, 5.0, 10.0]

# High-precision anchors (30-digit quadrature + bracketed Newton), rounded
# to 20 significant digits.
FROZEN = {
    ("sin", 3.0, 1.0): 0.91139233322908489354,
    ("cos", 3.0, 1.0): 0.62399495556695192045,
    ("sin", 2.5, 0.9): 0.8202013524568445347,
    ("cos", 2.5, 0.9): 0.68668262967578595243,
    ("sin", 10.0, 1.0): 0.98790643964576319647,
    ("cos", 10.0, 1.0): 0.80520053178244373288,
    ("sin", 1.5, 2.0): 0.99390098566107552394,
    ("cos", 1.5, 2.0): 0.043697678010856474771,
    ("sinh", 3.0, 1.0): 1.0800852386753211506,
    ("cosh", 3.0, 1.0): 1.3123111099467941781,
    ("tanh", 3.0, 1.0): 0.8230405355016095983,
    ("sinh", 2.5, 2.0): 3.3150486391821181151,
    ("cosh", 2.5, 2.0): 3.3803519160776701951,
    ("tanh", 2.5, 2.0): 0.98068151526326124398,
    ("sinh", 10.0, 3.0): 7.5033236253831469437,
    ("cosh", 10.0, 3.0): 7.503323626709676388,
    ("tanh", 10.0, 3.0): 0.99999999982320775296,
}

FROZEN_MISC = {
    "arsinh_3(2)": 1.5580982148556707862,
    "arcsin_3(0.8)": 0.84361769397849159685,
}

# Every public evaluator that takes x.
EVALUATORS = [getattr(core, name) for name in core.__all__ if name[0].islower() and name != "pi_p"]

FUNCS = {
    "sin": ptrig.sin_p,
    "cos": ptrig.cos_p,
    "sinh": ptrig.sinh_p,
    "cosh": ptrig.cosh_p,
    "tanh": ptrig.tanh_p,
}


# Every public entry that takes p, called with that p at an argument inside
# its domain.
FUNCTIONALS = [iq.thm1_f, iq.thm2_g, iq.lem22_f, iq.lem23_g, iq.lem24_gap]
P_ENTRIES = (
    [lambda p, fn=fn: fn(0.5, p) for fn in EVALUATORS + FUNCTIONALS]
    + [lambda p, claim=claim: ptrig.verify_claim(claim, p) for claim in iq.FunctionId]
    + [lambda p, claim=claim: ptrig.is_exploratory(claim, p) for claim in iq.FunctionId]
    + [ptrig.pi_p, ptrig.sharp_constants, ptrig.bounds_sandwich]
)


class TestParams:
    def test_pparam_accepts_p_above_one(self):
        assert ptrig.sin_p(0.5, 1.5).value > 0.0
        sc = ptrig.sharp_constants(2)
        assert type(sc.p) is float and sc.p == 2.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0, math.nan, math.inf])
    def test_pparam_rejects(self, bad):
        for entry in P_ENTRIES:
            with pytest.raises(ValueError, match="parameter p must be finite and > 1"):
                entry(bad)

    def test_int_and_float_p_share_one_family(self):
        assert core._FAMILIES[2, None] is core._FAMILIES[2.0, None]
        assert ptrig.sin_p(0.5, 2) is ptrig.sin_p(0.5, 2.0)


class TestHalfPeriod:
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_closed_form(self, p):
        got = ptrig.pi_p(p)
        assert abs(got.value - classical_pi_p(p)) <= max(1e-13, 2 * got.abs_err)
        assert got.abs_err <= 1e-12

    def test_p2_is_pi(self):
        assert abs(ptrig.pi_p(2.0).value - math.pi) <= 1e-13

    def test_known_values(self):
        assert abs(ptrig.pi_p(3.0).value - 2.4183991523122903) <= 1e-12
        assert abs(ptrig.pi_p(4.0).value - 2.221441469079183) <= 1e-12

    def test_conjugate_exponent_doubling(self):
        # pi_{p'} = (p-1) * pi_p for the conjugate exponent p' = p/(p-1)
        p = 3.0
        conj = p / (p - 1.0)
        assert abs(ptrig.pi_p(conj).value - (p - 1.0) * ptrig.pi_p(p).value) <= 1e-12


class TestClassicalReduction:
    XS = [0.0, 0.05, 0.3, math.pi / 4, 1.0, 1.4, math.pi / 2]

    @pytest.mark.parametrize("x", XS)
    def test_circular(self, x):
        assert abs(ptrig.sin_p(x, 2.0).value - math.sin(x)) <= 1e-10
        assert abs(ptrig.cos_p(x, 2.0).value - math.cos(x)) <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 1.5])
    def test_tangent(self, x):
        assert abs(ptrig.tan_p(x, 2.0).value - math.tan(x)) <= 1e-9 * max(
            1.0, abs(math.tan(x))
        )

    @pytest.mark.parametrize("x", [0.0, 0.05, 0.7, 1.0, 2.0, 3.0])
    def test_hyperbolic(self, x):
        assert abs(ptrig.sinh_p(x, 2.0).value - math.sinh(x)) <= 1e-10
        assert abs(ptrig.cosh_p(x, 2.0).value - math.cosh(x)) <= 1e-10
        assert abs(ptrig.tanh_p(x, 2.0).value - math.tanh(x)) <= 1e-10

    def test_hyperbolic_to_double_range(self):
        for x in (0.5, 3.0, 20.0, 100.0, 700.0, 709.0):
            for fn, ref in ((ptrig.sinh_p, math.sinh), (ptrig.cosh_p, math.cosh),
                            (ptrig.tanh_p, math.tanh)):
                ev = fn(x, 2.0)
                assert abs(ev.value - ref(x)) <= ev.abs_err, (fn.__name__, x)

    def test_inverses(self):
        assert abs(ptrig.arcsin_p(1.0, 2.0).value - math.pi / 2) <= 1e-12
        assert abs(ptrig.arcsin_p(0.5, 2.0).value - math.asin(0.5)) <= 1e-12
        assert abs(ptrig.arsinh_p(1.0, 2.0).value - math.log(1 + math.sqrt(2))) <= 1e-12
        assert abs(ptrig.arsinh_p(2.5, 2.0).value - math.asinh(2.5)) <= 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.8, 1.5])
    def test_derivatives_reduce(self, x):
        assert abs(ptrig.d_sin_p(x, 2.0).value - math.cos(x)) <= 1e-10
        assert abs(ptrig.d_cos_p(x, 2.0).value + math.sin(x)) <= 1e-10
        assert abs(ptrig.d_sinh_p(x, 2.0).value - math.cosh(x)) <= 1e-10
        assert abs(ptrig.d_cosh_p(x, 2.0).value - math.sinh(x)) <= 1e-10
        assert abs(ptrig.d_tanh_p(x, 2.0).value - 1.0 / math.cosh(x) ** 2) <= 1e-10


class TestFrozenAnchors:
    @pytest.mark.parametrize("key", sorted(FROZEN), ids=lambda k: f"{k[0]}-p{k[1]}-x{k[2]}")
    def test_anchor(self, key):
        name, p, x = key
        got = FUNCS[name](x, p)
        assert abs(got.value - FROZEN[key]) <= max(5e-13, 2 * got.abs_err)

    def test_misc_anchors(self):
        got = ptrig.arsinh_p(2.0, 3.0)
        assert abs(got.value - FROZEN_MISC["arsinh_3(2)"]) <= 1e-12
        got = ptrig.arcsin_p(0.8, 3.0)
        assert abs(got.value - FROZEN_MISC["arcsin_3(0.8)"]) <= 1e-12


class TestIdentities:
    @pytest.mark.parametrize("p", P_GRID)
    def test_circular_identity(self, p):
        ph = ptrig.pi_p(p).value / 2
        for frac in (0.01, 0.2, 0.5, 0.8, 0.99, 0.99999):
            x = ph * frac
            s = ptrig.sin_p(x, p).value
            c = ptrig.cos_p(x, p).value
            assert abs(s ** p + c ** p - 1.0) <= 1e-9

    @pytest.mark.parametrize("p", P_GRID)
    def test_hyperbolic_identity(self, p):
        # When ch^p >> 1 the residual cannot beat the representability floor
        # p * ch^(p-1) * ulp(ch) / 2, so the tolerance carries that term.
        for x in (0.01, 0.5, 1.0, 2.0, 3.0):
            sh = ptrig.sinh_p(x, p).value
            ch = ptrig.cosh_p(x, p).value
            floor = (0.5 * p + 2.5) * ch ** p * 2.3e-16
            assert abs(ch ** p - sh ** p - 1.0) <= max(1e-9, floor)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    def test_tan_is_ratio(self, p):
        ph = ptrig.pi_p(p).value / 2
        for frac in (0.1, 0.5, 0.9):
            x = ph * frac
            t = ptrig.tan_p(x, p).value
            ratio = ptrig.sin_p(x, p).value / ptrig.cos_p(x, p).value
            assert abs(t - ratio) <= 1e-12 * max(1.0, abs(ratio))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    def test_endpoint_values(self, p):
        ph = ptrig.pi_p(p).value / 2
        assert ptrig.sin_p(ph, p).value == 1.0
        assert ptrig.cos_p(ph, p).value == 0.0
        assert ptrig.sin_p(0.0, p).value == 0.0
        assert ptrig.cos_p(0.0, p).value == 1.0
        assert ptrig.cosh_p(0.0, p).value == 1.0
        assert ptrig.tanh_p(0.0, p).value == 0.0


class TestRoundTrips:
    @pytest.mark.parametrize("p", P_GRID)
    def test_arcsin_of_sin(self, p):
        ph = ptrig.pi_p(p).value / 2
        for frac in (0.001, 0.03, 0.3, 0.7, 0.95):
            x = ph * frac
            s = ptrig.sin_p(x, p).value
            back = ptrig.arcsin_p(s, p).value
            assert abs(back - x) <= 1e-8 * max(1.0, x)

    @pytest.mark.parametrize("p", P_GRID)
    def test_arsinh_of_sinh(self, p):
        for x in (0.001, 0.04, 0.5, 1.5, 3.0):
            sh = ptrig.sinh_p(x, p).value
            back = ptrig.arsinh_p(sh, p).value
            assert abs(back - x) <= 1e-8 * max(1.0, x)


class TestShape:
    @pytest.mark.parametrize("p", [1.5, 2.5, 5.0])
    def test_sin_increasing_concave(self, p):
        ph = ptrig.pi_p(p).value / 2
        xs = [ph * i / 40 for i in range(41)]
        vals = [ptrig.sin_p(x, p).value for x in xs]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d > 0 for d in diffs[:-1])
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    @pytest.mark.parametrize("p", [1.5, 2.5, 5.0])
    def test_cos_decreasing(self, p):
        ph = ptrig.pi_p(p).value / 2
        xs = [ph * i / 20 for i in range(21)]
        vals = [ptrig.cos_p(x, p).value for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [1.5, 2.5, 5.0])
    def test_sandwich_sin_below_x_below_sinh(self, p):
        for x in (0.01, 0.2, 0.8):
            assert ptrig.sin_p(x, p).value < x < ptrig.sinh_p(x, p).value

    @pytest.mark.parametrize("p", [1.5, 2.5, 5.0])
    def test_hyperbolic_ranges(self, p):
        for x in (0.1, 1.0, 3.0):
            assert ptrig.cosh_p(x, p).value > 1.0
            assert 0.0 < ptrig.tanh_p(x, p).value < 1.0


class TestDerivatives:
    @pytest.mark.parametrize(
        "name,p,x",
        [
            ("d_sin_p", 2.5, 0.6), ("d_cos_p", 2.5, 0.6), ("d_cos_p", 3.0, 1.1),
            ("d_sinh_p", 3.0, 0.8), ("d_cosh_p", 3.0, 0.8), ("d_tanh_p", 3.0, 0.8),
            ("d_cosh_p", 1.5, 1.2), ("d_tanh_p", 10.0, 0.5),
        ],
    )
    def test_against_central_difference(self, name, p, x):
        base = {
            "d_sin_p": ptrig.sin_p, "d_cos_p": ptrig.cos_p,
            "d_sinh_p": ptrig.sinh_p, "d_cosh_p": ptrig.cosh_p,
            "d_tanh_p": ptrig.tanh_p,
        }[name]
        want = central_diff(lambda u: base(u, p).value, x, 1e-5)
        got = getattr(ptrig, name)(x, p).value
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_d_cos_vanishes_at_origin(self):
        assert ptrig.d_cos_p(0.0, 3.0).value == 0.0

    def test_d_tanh_at_origin_is_one(self):
        assert abs(ptrig.d_tanh_p(0.0, 3.0).value - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [5.0, 10.0, 50.0, 300.0])
    def test_d_cosh_at_the_top_of_the_range(self, p):
        # d_cosh_p = cosh_p tanh_p^(p-1) <= cosh_p stays finite wherever
        # cosh_p does: over the last ulps below arsinh_p(largest double).
        x = ptrig.arsinh_p(sys.float_info.max, p).value
        for _ in range(6):
            x = math.nextafter(x, 0.0)
            c = ptrig.cosh_p(x, p)
            d = ptrig.d_cosh_p(x, p)
            assert math.isfinite(d.value)
            assert d.value <= c.value + c.abs_err + d.abs_err


class TestDomains:
    def test_rejects_negative_arguments(self):
        for fn in (ptrig.sin_p, ptrig.cos_p, ptrig.tan_p, ptrig.sinh_p,
                   ptrig.cosh_p, ptrig.tanh_p, ptrig.arsinh_p, ptrig.d_cos_p):
            with pytest.raises(DomainError):
                fn(-0.5, 2.0)

    def test_rejects_beyond_half_period(self):
        ph = ptrig.pi_p(3.0).value / 2
        for fn in (ptrig.sin_p, ptrig.cos_p, ptrig.tan_p):
            with pytest.raises(DomainError):
                fn(ph + 1e-6, 3.0)

    def test_arcsin_domain(self):
        with pytest.raises(DomainError):
            ptrig.arcsin_p(1.0 + 1e-9, 2.0)
        with pytest.raises(DomainError):
            ptrig.arcsin_p(-0.1, 2.0)

    def test_tan_pole(self):
        ph = ptrig.pi_p(2.0).value / 2
        with pytest.raises(PoleError):
            ptrig.tan_p(ph, 2.0)
        with pytest.raises(PoleError):
            ptrig.tan_p(ph - 5e-13, 2.0)
        # PoleError is a DomainError
        assert issubclass(PoleError, DomainError)

    def test_tan_just_outside_pole_window_works(self):
        ph = ptrig.pi_p(2.0).value / 2
        got = ptrig.tan_p(ph - 1e-9, 2.0)
        assert got.value > 1e8

    def test_d_cos_singularity_only_above_p2(self):
        ph3 = ptrig.pi_p(3.0).value / 2
        with pytest.raises(DomainError):
            ptrig.d_cos_p(ph3, 3.0)
        ph2 = ptrig.pi_p(2.0).value / 2
        assert abs(ptrig.d_cos_p(ph2, 2.0).value + 1.0) <= 1e-10
        ph15 = ptrig.pi_p(1.5).value / 2
        assert abs(ptrig.d_cos_p(ph15, 1.5).value) <= 1e-10

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", EVALUATORS, ids=lambda fn: fn.__name__)
    def test_rejects_non_finite_arguments(self, fn, x):
        with pytest.raises(DomainError):
            fn(x, 3.0)

    @pytest.mark.parametrize("fn", EVALUATORS, ids=lambda fn: fn.__name__)
    def test_public_signature(self, fn):
        assert str(inspect.signature(fn)) == (
            "(x: 'float', p: 'float', tol: 'Optional[Tolerance]' = None)"
            " -> 'Evaluation'"
        )

    def test_sinh_overflow_guard(self):
        # arsinh_2 of the largest double is 710.4759: beyond it sinh_p, and
        # what builds on it, leaves floating-point range.
        for fn, x in ((ptrig.sinh_p, 1e280), (ptrig.sinh_p, 711.0), (ptrig.sinh_p, 1e308),
                      (iq.lem23_g, math.inf), (iq.lem24_gap, math.inf)):
            with pytest.raises(DomainError):
                fn(x, 2.0)

    def test_impossible_tolerance_raises(self):
        with pytest.raises(NonConvergence):
            ptrig.sin_p(1.0, 3.0, tol=Tolerance(1e-30, 1e-30, 60))


class TestParameterNearOne:
    """As p -> 1, pi_p/2 grows like 1/(p-1) and the family tends to
    sin_1(x) = 1 - exp(-x), cos_1(x) = exp(-x), tan_1(x) = exp(x) - 1."""

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.02, math.nextafter(1.0, 2.0)])
    def test_circular_functions_evaluate(self, p):
        pi = ptrig.pi_p(p)
        assert abs(pi.value * (p - 1.0) / 2.0 - 1.0) <= 2.0 * (p - 1.0)
        half = pi.value / 2.0
        # The p = 1 limit moves by about 100 (p - 1) over these x.
        for x in (0.01, 0.5, 2.0, 10.0):
            checks = [(ptrig.sin_p, -math.expm1(-x)), (ptrig.cos_p, math.exp(-x)),
                      (ptrig.tan_p, math.expm1(x))]
            for fn, limit in checks:
                ev = fn(x, p)
                assert abs(ev.value - limit) <= ev.abs_err + 200.0 * (p - 1.0) * limit
        # The solve in log cos_p^p never forms pi_p/2 - x, whose absolute
        # error grows like 1/(p - 1), so cos_p keeps a narrow band.
        cos = ptrig.cos_p(10.0, p)
        assert cos.abs_err < 1e-6 * cos.value
        for x in (0.5 * half, half * (1.0 - 1e-9), half):
            assert 0.0 <= ptrig.cos_p(x, p).value <= ptrig.cos_p(10.0, p).value
            assert ptrig.sin_p(x, p).value >= ptrig.sin_p(10.0, p).value

    @pytest.mark.parametrize("dp", [2.0 ** -52, 1e-14, 1e-12, 1e-9, 1e-6])
    def test_far_arguments_keep_relative_accuracy(self, dp):
        # Far from both ends, cos_p ~ exp(-x) reaches 1e-304 by x = 700 while
        # pi_p/2 ~ 1/dp is still far off: the band stays relative throughout.
        p = 1.0 + dp
        for x in (11.0, 12.0, 20.0, 100.0, 300.0, 700.0):
            for fn in (ptrig.cos_p, ptrig.d_cos_p):
                ev = fn(x, p)
                assert ev.abs_err <= 1e-9 * abs(ev.value), (fn.__name__, x, ev)
            tan = ptrig.tan_p(x, p)
            assert tan.abs_err <= 1e-9 * tan.value, (x, tan)


class TestErrorReporting:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_bounds_are_finite_and_small(self, p):
        ph = ptrig.pi_p(p).value / 2
        for frac in (0.001, 0.3, 0.9, 0.9999):
            ev = ptrig.sin_p(ph * frac, p)
            assert 0.0 <= ev.abs_err <= 1e-7
        for x in (0.001, 1.0, 3.0):
            ev = ptrig.sinh_p(x, p)
            assert 0.0 <= ev.abs_err <= 1e-7 * max(1.0, ev.value)

    @pytest.mark.parametrize("p", [1.1, 1.5])
    def test_series_serves_only_small_z(self, p):
        # z = 0.049^p is far above the series switch for p < 2: the value
        # comes from the inversion, not from a series truncated at z^3.
        for fn in (ptrig.sin_p, ptrig.sinh_p):
            ev = fn(0.049, p)
            assert ev.abs_err < 1e-10 * ev.value

    def test_cos_resolvable_near_endpoint(self):
        # the solve in log cos_p^p keeps cos_p accurate where the
        # s-space inverse would have rounded 1 - s^p to zero
        for p in (1.5, 2.0, 10.0):
            ph = ptrig.pi_p(p).value / 2
            ev = ptrig.cos_p(ph * (1.0 - 1e-6), p)
            assert ev.value > 0.0
            assert ev.abs_err < 1e-4 * ev.value

    def test_loose_tolerance_still_sane(self):
        tight = ptrig.sin_p(1.0, 3.0)
        loose = ptrig.sin_p(1.0, 3.0, tol=Tolerance(1e-6, 1e-6, 60))
        assert abs(tight.value - loose.value) <= 1e-5


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(1.3, 6.0),
        frac=st.floats(0.01, 0.95),
    )
    def test_round_trip_property(self, p, frac):
        x = ptrig.pi_p(p).value / 2 * frac
        s = ptrig.sin_p(x, p)
        assert 0.0 <= s.value <= 1.0
        back = ptrig.arcsin_p(s.value, p)
        assert abs(back.value - x) <= 1e-7 * max(1.0, x)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(1.3, 6.0),
        x=st.floats(0.001, 3.0),
    )
    def test_hyperbolic_round_trip_property(self, p, x):
        sh = ptrig.sinh_p(x, p)
        # Strict ordering holds analytically; at tiny x the excess is below
        # one ulp, so equality of the rounded values must be accepted.
        assert sh.value >= x
        back = ptrig.arsinh_p(sh.value, p)
        assert abs(back.value - x) <= 1e-7 * max(1.0, x)


class TestFamilyRegistry:
    """One family per (p, tol), held in a bounded registry; its memos never
    change a value, only whether it is recomputed."""

    P = 2.75
    fresh = itertools.count()

    # What a repeated public call must not reach: the per-point states and
    # the defining integrals.
    SOLVERS = ("_sin_state", "_sinh_raw", "_arcsin_quad", "_arsinh_quad")

    @staticmethod
    def evaluations(p, tol=None):
        """Every public evaluator at p, over the series route and the solve in log cos_p^p."""
        half = ptrig.pi_p(p).value / 2
        circular = (ptrig.sin_p, ptrig.cos_p, ptrig.tan_p, ptrig.d_sin_p, ptrig.d_cos_p)
        hyperbolic = (ptrig.sinh_p, ptrig.cosh_p, ptrig.tanh_p,
                      ptrig.d_sinh_p, ptrig.d_cosh_p, ptrig.d_tanh_p)
        evs = [ptrig.pi_p(p, tol), ptrig.arcsin_p(0.9, p, tol), ptrig.arsinh_p(4.0, p, tol)]
        for x in (0.01 * half, 0.6 * half, (1.0 - 1e-7) * half):
            evs += [f(x, p, tol) for f in circular]
        for x in (0.02, 0.9, 2.5):
            evs += [f(x, p, tol) for f in hyperbolic]
        return evs

    @classmethod
    def evaluate(cls, p, tol=None):
        return [repr(ev) for ev in cls.evaluations(p, tol)]

    @classmethod
    def count_solver_calls(cls, monkeypatch) -> list:
        """Names of the solvers called from now on, one entry per call."""
        calls = []
        for name in cls.SOLVERS:
            orig = getattr(core, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(core, name, counted)
        return calls

    @staticmethod
    def kept(fam, fn) -> dict:
        """fn's entries in the family memo, keyed on the rest of their key."""
        return {key[1:]: v for key, v in fam.memo.items() if key[0].__name__ == fn.__name__}

    @classmethod
    def evict_all(cls):
        """Register _FAMILY_CAP families never seen before."""
        for _ in range(core._FAMILY_CAP):
            ptrig.arcsin_p(0.5, 40.0 + next(cls.fresh) / 16)

    @pytest.mark.parametrize("tol", [None, Tolerance(1e-11, 1e-11, 60)])
    def test_cold_warm_and_evicted_values_are_identical(self, tol):
        self.evict_all()
        cold = self.evaluate(self.P, tol)
        warm = self.evaluate(self.P, tol)
        # Without the kept Evaluations the same calls are served by the states.
        memo = core._FAMILIES[self.P, tol].memo
        for key in [key for key, v in memo.items() if isinstance(v, Evaluation)]:
            del memo[key]
        states = self.evaluate(self.P, tol)
        self.evict_all()
        assert (self.P, tol) not in core._FAMILIES
        assert self.evaluate(self.P, tol) == states == warm == cold

    def test_repeated_calls_return_the_first_result_without_solving(self, monkeypatch):
        self.evict_all()
        first = self.evaluations(self.P)
        calls = self.count_solver_calls(monkeypatch)
        again = self.evaluations(self.P)
        assert calls == []
        assert all(a is b for a, b in zip(again, first))

    def test_failed_calls_raise_again_and_leave_no_entry(self):
        half = ptrig.pi_p(self.P).value / 2
        fam = core._FAMILIES[self.P, None]
        failing = [
            (ptrig.arcsin_p, 1.5, DomainError), (ptrig.arsinh_p, -1.0, DomainError),
            (ptrig.sin_p, 2.0 * half, DomainError), (ptrig.cos_p, -0.1, DomainError),
            (ptrig.tan_p, half, PoleError), (ptrig.d_cos_p, half, DomainError),
            (ptrig.sinh_p, -1.0, DomainError), (ptrig.cosh_p, -1.0, DomainError),
            (ptrig.tanh_p, -1.0, DomainError), (ptrig.d_cosh_p, -1.0, DomainError),
            (ptrig.d_tanh_p, -1.0, DomainError), (ptrig.sinh_p, 1e300, DomainError),
        ]
        for fn, x, exc in failing:
            for _ in range(2):
                with pytest.raises(exc):
                    fn(x, self.P)
            assert (x,) not in self.kept(fam, fn), fn.__name__

    def test_results_are_never_served_across_tolerances(self):
        loose = Tolerance(1e-11, 1e-11, 60)
        self.evict_all()
        want = self.evaluate(self.P)
        self.evict_all()
        other = self.evaluate(self.P, loose)
        assert self.evaluate(self.P) == want
        assert other != want
        assert self.evaluate(self.P, loose) == other

    def test_registry_stays_at_its_cap(self):
        for k in range(core._FAMILY_CAP + 5):
            ptrig.arcsin_p(0.5, 3.0 + k / 7)
        assert len(core._FAMILIES) == core._FAMILY_CAP

    def test_full_memos_are_emptied_without_changing_values(self, monkeypatch):
        self.evict_all()
        want = self.evaluate(self.P)
        self.evict_all()
        monkeypatch.setattr(core, "_MEMO_CAP", 2)
        assert self.evaluate(self.P) == want
        assert len(core._FAMILIES[self.P, None].memo) <= 2

    def test_integer_p_cosh_snap_is_served_from_results(self, monkeypatch):
        snaps = []
        snap = core._snap_to_identity
        monkeypatch.setattr(core, "_snap_to_identity", lambda *a: snaps.append(a) or snap(*a))
        for p in (3.0, 3.5):
            core._FAMILIES.pop((p, None), None)
        first = ptrig.cosh_p(0.7, 3.0)
        assert len(snaps) == 1
        calls = self.count_solver_calls(monkeypatch)
        assert ptrig.cosh_p(0.7, 3.0) is first
        assert self.kept(core._FAMILIES[3.0, None], ptrig.cosh_p)[0.7,] is first
        assert len(snaps) == 1 and calls == []
        ptrig.cosh_p(0.7, 3.5)
        assert len(snaps) == 1

    def test_p_keyed_caches_stay_bounded(self):
        """Series primitives, coefficients, sharp constants and chain
        polynomials live in the families: many distinct p leave at most
        _FAMILY_CAP of each behind."""
        for k in range(5000):
            iq.thm1_f(1e-3, 1.1 + k / 101.0)
        for k in range(core._FAMILY_CAP + 4):
            p = 2.0 + k / 3.0
            iq.sharp_constants(p)
            iq._chain_point(iq.FunctionId.THM2_CHAIN, core._FAMILIES[p, None], 1e-3)
        assert len(core._FAMILIES) == core._FAMILY_CAP
        for fn in (series.direct_coeffs, series.inverse_coeffs,
                   series.hyper_inverse_coeffs, iq._beta, iq._chain_polys):
            assert not hasattr(fn, "cache_info"), fn
        gc.collect()
        live = sum(isinstance(o, series.SmallZSeries) for o in gc.get_objects())
        assert live <= core._FAMILY_CAP
        derived = (iq._beta, iq._chain_polys)
        for fam in core._FAMILIES.values():
            assert sum(len(self.kept(fam, fn)) for fn in derived) <= 2

    def test_concurrent_callers_see_the_same_values(self):
        ps = [1.5 + k / 8 for k in range(core._FAMILY_CAP + 8)]
        calls = [(ptrig.arcsin_p, 0.8), (ptrig.sin_p, 0.4), (ptrig.cosh_p, 0.4)]
        want = {(fn, p): fn(x, p) for p in ps for fn, x in calls}
        errors = []

        def worker(offset):
            try:
                for p in ps[offset:] + ps[:offset]:
                    for _ in range(2):
                        for fn, x in calls:
                            assert fn(x, p) == want[fn, p]
            except Exception as exc:  # collected and asserted empty below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(3 * k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(core._FAMILIES) <= core._FAMILY_CAP
