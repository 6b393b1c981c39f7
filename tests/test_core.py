"""Core evaluator tests: classical reductions, frozen high-precision values,
identities, round trips, error-bound honesty, and domain policing."""

import gc
import inspect
import itertools
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ptrig
from ptrig import DomainError, NonConvergence, PoleError
from ptrig import core, numerics, series
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
    + [ptrig.pi_p, ptrig.sharp_constants]
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
        import numpy as np

        assert core._family(2) is core._family(2.0)
        for fn in (ptrig.sin_p, ptrig.sinh_p):
            assert fn(0.5, 2) is fn(0.5, 2.0) is fn(0.5, np.float64(2.0))
        assert ptrig.pi_p(2) is ptrig.pi_p(2.0) is ptrig.pi_p(np.float64(2.0))

    @pytest.mark.parametrize("text", ["3", b"2.5", bytearray(b"3"), [3]],
                             ids=lambda text: type(text).__name__)
    def test_text_p_is_no_number(self, text):
        # float() would parse text, but p is a plain number; an unhashable p
        # (bytearray, list) is turned away by the same check, not by a lookup.
        for entry in (lambda p: ptrig.sin_p(0.5, p), lambda p: ptrig.sinh_p(1.0, p),
                      ptrig.pi_p, ptrig.sharp_constants,
                      lambda p: ptrig.verify_claim("thm1_f", p)):
            with pytest.raises(TypeError, match="parameter p must be a number"):
                entry(text)


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

    @pytest.mark.parametrize("p", [1.5, 50.0, 300.0])
    def test_d_tanh_is_never_negative_zero(self, p):
        # 1 - tanh_p^p is positive; as tanh_p rounds to 1 it must shrink
        # toward +0.0, not cancel to -0.0.  The CLI's table grid.
        window = ptrig.d_tanh_p.domain.window(core._family(p))
        xs = iq.grid_points(iq.GridSpec(n=200), *window) + [40.0, 700.0]
        negative = [x for x in xs if math.copysign(1.0, ptrig.d_tanh_p(x, p).value) < 0]
        assert not negative

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
        # Short of the pole, where the ball of cos_p clears 0, tan_p answers,
        # and its ball encloses tan.
        x = ph - 5e-13
        got = ptrig.tan_p(x, 2.0)
        with mp.workdps(40):
            assert abs(mp.mpf(got.value) - mp.tan(mp.mpf(x))) <= got.abs_err
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
        assert str(inspect.signature(fn)) == "(x: 'float', p: 'float') -> 'Evaluation'"

    def test_sinh_overflow_guard(self):
        # arsinh_2 of the largest double is 710.4759: beyond it sinh_p, and
        # what builds on it, leaves floating-point range.
        for fn, x in ((ptrig.sinh_p, 1e280), (ptrig.sinh_p, 711.0), (ptrig.sinh_p, 1e308),
                      (iq.lem23_g, math.inf), (iq.lem24_gap, math.inf)):
            with pytest.raises(DomainError):
                fn(x, 2.0)

    @staticmethod
    def count_quadratures(monkeypatch) -> list:
        calls = []
        orig = core._arsinh_quad

        def counted(fam, s):
            calls.append(s)
            return orig(fam, s)

        monkeypatch.setattr(core, "_arsinh_quad", counted)
        return calls

    @pytest.mark.parametrize("x", [40.0, 100.0, 300.0, 700.0])
    def test_large_sinh_takes_a_few_quadratures(self, x, monkeypatch):
        # The bracket comes from closed-form bounds of arsinh_p without
        # quadrature; the solve then takes a few, arsinh_p(1) among them.
        calls = self.count_quadratures(monkeypatch)
        s = core._sinh_raw(core._Family(2.0), x).value
        assert abs(math.asinh(s) - x) <= 1e-12 * x
        assert len(calls) <= 5

    def test_floor_near_one_saves_a_quadrature(self, monkeypatch):
        # The first-order floor sits below the root by its deficit
        # log s + arsinh_p(1) - arsinh_p(s), which near p = 1 comes close to
        # the ceiling 1/p^2; the second-order term takes most of it back, so
        # each solve takes at most 5 quadratures (6 from the first-order floor).
        fam = core._Family(1.1)
        fam.arsinh_one
        calls = self.count_quadratures(monkeypatch)
        for x in (2.3, 2.6, 2.9):
            calls.clear()
            core._sinh_raw(fam, x)
            assert len(calls) <= 5, (x, calls)

    @pytest.mark.parametrize("p", [1.0 + 1e-9, 1.001, 1.01, 1.1, 1.5, 2.0, 3.7, 10.0, 50.0, 300.0])
    def test_sinh_solve_climbs_from_the_floor(self, p, monkeypatch):
        # Above arsinh_p(1)'s enclosure the solve starts at the bracket's
        # floor; arsinh_p is concave, so every iterate is a Newton step
        # that stays below the root: the iterates rise, and none bisects.
        fam, steps, newton = core._Family(p), [], core._newton

        def watched(residual, *args):
            def traced(s):
                got = residual(s)
                steps.append((s, *got[:2]))
                return got

            return newton(traced, *args)

        monkeypatch.setattr(core, "_newton", watched)
        seam = math.nextafter(core._arsinh_bounds(fam, 1.0)[1], math.inf)
        for x in (seam, 1.0, 2.9, 7.0, 40.0, 700.0):
            steps.clear()
            core._sinh_raw(fam, x)
            assert len(steps) >= 2, (x, steps)
            for (s, r, slope), (after, _, _) in zip(steps, steps[1:]):
                assert r < 0.0 and after == s - r / slope and after > s, (x, steps)

    @pytest.mark.parametrize("x", [720.0, 1e280])
    def test_sinh_past_the_range_raises_after_one_quadrature(self, x, monkeypatch):
        # Only arsinh_p(1), the base of the bounds above 1, is integrated.
        # The solve signals the range as OverflowError, which the public
        # sinh_p refuses as a DomainError naming the call.
        calls = self.count_quadratures(monkeypatch)
        with pytest.raises(OverflowError, match="exceeds floating-point range"):
            core._sinh_raw(core._Family(2.0), x)
        assert calls == [1.0]
        with pytest.raises(DomainError) as refused:
            ptrig.sinh_p(x, 2.0)
        assert str(refused.value) == f"sinh_p({x}, p=2.0) exceeds floating-point range"

    def test_newton_step_cap_raises(self, monkeypatch):
        # The Newton loop raises once it runs out of steps, for either family;
        # the point is new to the process, so nothing is served from the memos.
        # The refusal names the call.
        monkeypatch.setattr(core, "_NEWTON_STEPS", 1)
        for fn in (ptrig.sin_p, ptrig.sinh_p):
            with pytest.raises(NonConvergence) as refused:
                fn(1.0000000001234567, 3.0)
            assert str(refused.value).startswith(f"{fn.__name__}({1.0000000001234567}, p=3.0): ")


class TestHyperbolicQuadrature:
    """What each Newton step of sinh_p's solve takes: a float slope with the
    bits of the ball one, and one quadrature of an integrand its family
    builds once, under the quadrature's own numpy error state."""

    @given(st.floats(-52.0, math.log2(1e12 - 1.0)),
           st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.floats(0.5, 2.0)))
    @example(-52.0, 1e-300)
    @example(-52.0, 1e300)
    @example(math.log2(1e12 - 1.0), 1e300)
    @example(1.0, math.nextafter(1.0, 0.0))
    @example(1.0, 1.0)
    @example(1.0, math.nextafter(1.0, 2.0))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_float_slope_is_the_ball_slope_bit_for_bit(self, e, s):
        pf = 1.0 + 2.0 ** e
        ball = math.exp(-core._lcosh(pf, ptrig.Evaluation(s, 0.0)).value)
        assert core._inv_cosh(pf, s) == ball, (pf, s)

    HYPERBOLIC = [ptrig.arsinh_p, ptrig.sinh_p, ptrig.cosh_p, ptrig.tanh_p, ptrig.d_sinh_p,
                  ptrig.d_cosh_p, ptrig.d_tanh_p, ptrig.lem23_g, ptrig.lem24_gap]
    X = [5e-324, 1e-300, 1e-60, 1e-10, 0.3, 0.5, 1.0, 1.7, 30.0, 700.0, 711.0,
         sys.float_info.max]

    def answers(self, p):
        """Every hyperbolic evaluator at X, as float.hex or its refusal, on a
        cold family and node table, and, at p = 3, LEM23_CHAIN's report."""
        for table in [core._FAMILIES, *core._RESULTS.values()]:
            table.pop(p, None)
        numerics._node_table.cache_clear()
        out = []
        for fn, x in itertools.product(self.HYPERBOLIC, self.X):
            try:
                ev = fn(x, p)
                out.append((ev.value.hex(), ev.abs_err.hex()))
            except (DomainError, NonConvergence) as exc:
                out.append((type(exc), str(exc)))
        if p == 3.0:
            out.append(iq.verify_claim(iq.FunctionId.LEM23_CHAIN, p))
        return out

    @pytest.mark.parametrize("p", [3.0, sys.float_info.max])
    def test_callers_numpy_state_changes_no_answer(self, p):
        # integrate sets its own error state, so a caller's state that raises
        # on every floating-point exception (underflow in the node table,
        # log 0 at t = 0, p u past the double range) changes no bit and no
        # refusal, and is the caller's state again afterwards.
        default = self.answers(p)
        raising = dict.fromkeys(np.geterr(), "raise")
        saved = np.seterr(**raising)
        try:
            assert self.answers(p) == default
            assert np.geterr() == raising
        finally:
            np.seterr(**saved)

    @pytest.mark.parametrize("p", [1.0 + 2.0 ** -52, 2.0, 24.0])
    def test_integrand_at_t_zero_keeps_its_value(self, p):
        # Below x ~ 3e-49 nodes fall on t = 0, where h(-log t) takes
        # log 0 = -inf under integrate's error state and is 1, its limit.
        # arsinh_p itself takes the series there, which gives x.
        pins = {5e-324: (0.0, 1e-323), 1e-320: (1e-320, 1e-323),
                1e-300: (1e-300, 7.505152399e-314), 1e-60: (1e-60, 7.501106618660115e-74)}
        fam = core._Family(p)
        for x, pin in pins.items():
            ev = core._arsinh_quad(fam, x)
            assert (ev.value.hex(), ev.abs_err.hex()) == tuple(map(float.hex, pin)), (p, x)
            assert ptrig.arsinh_p(x, p).value == x

    def test_integrands_are_built_once_per_family(self, monkeypatch):
        p, built, factory = 3.3, [], core._hyp_integrand

        def counted(pf):
            built.append(pf)
            return factory(pf)

        monkeypatch.setattr(core, "_hyp_integrand", counted)
        core._FAMILIES.pop(p, None)
        for results in core._RESULTS.values():
            results.pop(p, None)
        for k in range(1, 141):
            for fn in (ptrig.sinh_p, ptrig.cosh_p, ptrig.arsinh_p):
                fn(0.05 * k, p)
        assert built == [p]


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
    """One family per p, held in a bounded registry, and one bounded table of
    results per public evaluator; neither ever changes a value, only whether
    it is recomputed."""

    P = 2.75
    fresh = itertools.count()

    # What a repeated public call must not reach: the per-point states and
    # the defining integrals.
    SOLVERS = ("_sin_state", "_sinh_raw", "_arcsin_series", "_arsinh_quad")
    # The public evaluators that are another one under a second name.
    ALIASES = {ptrig.d_sin_p: ptrig.cos_p, ptrig.d_sinh_p: ptrig.cosh_p}

    @staticmethod
    def calls(p):
        """(evaluator, args) for every public evaluator at p, the functionals
        among them, over the series route and the solve in log cos_p^p."""
        half = ptrig.pi_p(p).value / 2
        circular = (ptrig.sin_p, ptrig.cos_p, ptrig.tan_p, ptrig.d_sin_p, ptrig.d_cos_p,
                    ptrig.thm1_f, ptrig.thm2_g, ptrig.lem22_f)
        hyperbolic = (ptrig.sinh_p, ptrig.cosh_p, ptrig.tanh_p,
                      ptrig.d_sinh_p, ptrig.d_cosh_p, ptrig.d_tanh_p,
                      ptrig.lem23_g, ptrig.lem24_gap)
        calls = [(ptrig.pi_p, (p,)), (ptrig.arcsin_p, (0.9, p)), (ptrig.arsinh_p, (4.0, p))]
        for x in (0.01 * half, 0.6 * half, (1.0 - 1e-7) * half):
            calls += [(f, (x, p)) for f in circular]
        for x in (0.02, 0.9, 2.5):
            calls += [(f, (x, p)) for f in hyperbolic]
        return calls

    @classmethod
    def evaluations(cls, p):
        return [f(*args) for f, args in cls.calls(p)]

    @classmethod
    def evaluate(cls, p):
        return [repr(ev) for ev in cls.evaluations(p)]

    @classmethod
    def count_solver_calls(cls, monkeypatch) -> list:
        """Names of the solvers called from now on, one entry per call, from
        the evaluators or from the functionals of inequalities, whose
        primitives call them in core."""
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

    @staticmethod
    def results(fn, p) -> dict:
        """The results fn keeps at p, keyed on x."""
        return core._RESULTS[fn.__name__].get(p, {})

    @staticmethod
    def entries() -> int:
        """Entries kept in every family memo and every results table."""
        states = sum(len(fam.memo) for fam in core._FAMILIES.values())
        return states + sum(
            len(table) for results in core._RESULTS.values() for table in results.values()
        )

    @classmethod
    def evict_all(cls):
        """File _FAMILY_CAP values of p never seen before, in the registry and
        in every results table."""
        for _ in range(core._FAMILY_CAP):
            p = 40.0 + next(cls.fresh) / 16
            for name in core._RESULTS:
                getattr(ptrig, name)(0.0, p)

    def test_cold_warm_and_evicted_values_are_identical(self):
        self.evict_all()
        cold = self.evaluate(self.P)
        warm = self.evaluate(self.P)
        # Without the kept results the same calls are served by the states.
        for results in core._RESULTS.values():
            del results[self.P]
        states = self.evaluate(self.P)
        self.evict_all()
        assert self.P not in core._FAMILIES
        assert not any(self.P in results for results in core._RESULTS.values())
        assert self.evaluate(self.P) == states == warm == cold

    def test_repeated_calls_return_the_first_result_without_solving(self, monkeypatch):
        self.evict_all()
        first = self.evaluations(self.P)
        calls = self.count_solver_calls(monkeypatch)
        again = self.evaluations(self.P)
        assert calls == []
        assert all(a is b for a, b in zip(again, first))

    def test_a_repeated_call_runs_no_other_python_function(self):
        import numpy as np

        calls = self.calls(self.P)
        # An int or numpy p finds the results filed under the float p.
        calls += [(ptrig.sin_p, (0.5, 3.0)), (ptrig.sin_p, (0.5, 3)),
                  (ptrig.sin_p, (0.5, np.float64(3.0))), (ptrig.pi_p, (3,)),
                  (ptrig.pi_p, (np.float64(3.0),))]
        for fn, args in calls:
            fn(*args)
        for fn, args in calls:
            ran = []

            def profile(frame, event, arg):
                if event == "call":
                    ran.append(frame.f_code)

            sys.setprofile(profile)
            try:
                fn(*args)
            finally:
                sys.setprofile(None)
            want = [fn.__code__] + ([self.ALIASES[fn].__code__] if fn in self.ALIASES else [])
            assert ran == want, (fn.__name__, [code.co_name for code in ran])

    def test_kept_entries_stay_within_the_stated_bound(self, monkeypatch):
        # With today's caps: the families' states and the evaluators' results
        # together keep at most twice what _FAMILY_CAP full memos hold.
        served = len(core._RESULTS)
        assert served == 16
        bound = core._FAMILY_CAP * (core._MEMO_CAP + served * core._RESULT_CAP)
        assert bound <= 2 * 16 * 16384
        # The same bound with small caps, under a loop over more p and more x
        # than they hold, through every public evaluator.
        monkeypatch.setattr(core, "_FAMILIES", {})
        for results in core._RESULTS.values():
            results.clear()
        monkeypatch.setattr(core, "_FAMILY_CAP", 3)
        monkeypatch.setattr(core, "_MEMO_CAP", 16)
        monkeypatch.setattr(core, "_RESULT_CAP", 8)
        most = 0
        for p in (2.0 + k / 8 for k in range(5)):
            for x in (k * 1e-4 for k in range(12)):
                ptrig.pi_p(p)
                for fn in EVALUATORS + FUNCTIONALS:
                    fn(x, p)
                    most = max(most, self.entries())
        assert len(EVALUATORS) == 13
        assert len(core._FAMILIES) == 3
        assert all(len(results) == 3 for results in core._RESULTS.values())
        assert 0 < most <= 3 * (16 + served * 8)

    def test_failed_calls_raise_again_and_leave_no_entry(self):
        half = ptrig.pi_p(self.P).value / 2
        failing = [
            (ptrig.arcsin_p, 1.5, DomainError), (ptrig.arsinh_p, -1.0, DomainError),
            (ptrig.sin_p, 2.0 * half, DomainError), (ptrig.cos_p, -0.1, DomainError),
            (ptrig.tan_p, half, PoleError), (ptrig.d_cos_p, half, DomainError),
            (ptrig.sinh_p, -1.0, DomainError), (ptrig.cosh_p, -1.0, DomainError),
            (ptrig.tanh_p, -1.0, DomainError), (ptrig.d_cosh_p, -1.0, DomainError),
            (ptrig.d_tanh_p, -1.0, DomainError), (ptrig.sinh_p, 1e300, DomainError),
            (ptrig.thm1_f, 2.0 * half, DomainError), (ptrig.lem22_f, half, PoleError),
            (ptrig.lem24_gap, -1.0, DomainError),
        ]
        for fn, x, exc in failing:
            for _ in range(2):
                with pytest.raises(exc):
                    fn(x, self.P)
            assert x not in self.results(fn, self.P), fn.__name__

    def test_registry_stays_at_its_cap(self):
        for k in range(core._FAMILY_CAP + 5):
            ptrig.arcsin_p(0.5, 3.0 + k / 7)
        assert len(core._FAMILIES) == core._FAMILY_CAP

    def test_full_memos_are_emptied_without_changing_values(self, monkeypatch):
        self.evict_all()
        want = self.evaluate(self.P)
        self.evict_all()
        monkeypatch.setattr(core, "_MEMO_CAP", 2)
        monkeypatch.setattr(core, "_RESULT_CAP", 2)
        assert self.evaluate(self.P) == want
        assert len(core._family(self.P).memo) <= 2
        assert all(len(results[self.P]) <= 2 for results in core._RESULTS.values())

    def test_integer_p_cosh_snap_is_served_from_results(self, monkeypatch):
        snaps = []
        snap = core._snap_to_identity
        monkeypatch.setattr(core, "_snap_to_identity", lambda *a: snaps.append(a) or snap(*a))
        for p in (3.0, 3.5):
            core._FAMILIES.pop(p, None)
            core._RESULTS["cosh_p"].pop(p, None)
        first = ptrig.cosh_p(0.7, 3.0)
        assert len(snaps) == 1
        calls = self.count_solver_calls(monkeypatch)
        assert ptrig.cosh_p(0.7, 3.0) is first
        assert self.results(ptrig.cosh_p, 3.0)[0.7] is first
        assert len(snaps) == 1 and calls == []
        ptrig.cosh_p(0.7, 3.5)
        assert len(snaps) == 1

    def test_p_keyed_caches_stay_bounded(self):
        """Series primitives, coefficients, sharp constants and exact chain
        gaps live in the families: many distinct p leave at most
        _FAMILY_CAP of each behind."""
        for k in range(5000):
            iq.thm1_f(1e-3, 1.1 + k / 101.0)
        for k in range(core._FAMILY_CAP + 4):
            p = 2.0 + k / 3.0
            iq.sharp_constants(p)
            iq._chain_point(iq.FunctionId.THM2_CHAIN, core._family(p), 1e-3)
        assert len(core._FAMILIES) == core._FAMILY_CAP
        for fn in (iq._beta, iq._exact_gaps):
            assert not hasattr(fn, "cache_info"), fn
        gc.collect()
        live = sum(isinstance(o, series.SmallZSeries) for o in gc.get_objects())
        assert live <= core._FAMILY_CAP
        derived = (iq._beta, iq._exact_gaps)
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
