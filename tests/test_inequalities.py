"""Functionals against classical and mpmath oracles, plus the verifier."""

import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import ptrig
from ptrig import inequalities as iq
from ptrig import series
from ptrig.inequalities import FunctionId as F
from ptrig.numerics import NonConvergence

from conftest import classical_pi_p, mp_sin_p, mp_sinh_p

P_CERT = [2.0, 2.5, 3.0, 5.0, 10.0]


def mp_functionals(p, x, dps=40):
    """(thm1_f, thm2_g, lem22_f, lem23_g, lem24_gap) at 40+ digits."""
    with mp.workdps(dps):
        pm, xm = mp.mpf(p), mp.mpf(x)
        s = mp_sin_p(p, x, dps)
        sh = mp_sinh_p(p, x, dps)
        c = (1 - s ** pm) ** (1 / pm)
        ch = (1 + sh ** pm) ** (1 / pm)
        f1 = mp.log(xm / s) / mp.log(sh / xm)
        g2 = mp.log(xm / s) / mp.log(ch)
        f22 = pm * s * mp.log(xm / s) / (s - xm * c)
        g23 = pm * sh * mp.log(sh / xm) / (xm * ch - sh)
        gap = mp.log(ch) - (xm / pm) * (sh / ch) ** (pm - 1)
        return tuple(float(v) for v in (f1, g2, f22, g23, gap))


class TestClassicalPoints:
    """p=2 reduces every functional to elementary expressions."""

    def test_thm1_f(self):
        want = math.log(1 / math.sin(1)) / math.log(math.sinh(1))
        got = iq.thm1_f(1.0, 2.0)
        assert abs(got.value - want) <= 1e-12
        assert abs(got.value - want) <= got.abs_err

    def test_thm2_g(self):
        want = math.log(1 / math.sin(1)) / math.log(math.cosh(1))
        got = iq.thm2_g(1.0, 2.0)
        assert abs(got.value - want) <= 1e-12

    def test_lem22_f(self):
        s, c = math.sin(1), math.cos(1)
        want = 2 * s * math.log(1 / s) / (s - c)
        got = iq.lem22_f(1.0, 2.0)
        assert abs(got.value - want) <= 1e-12

    def test_lem23_g(self):
        sh, ch = math.sinh(1), math.cosh(1)
        want = 2 * sh * math.log(sh) / (ch - sh)
        got = iq.lem23_g(1.0, 2.0)
        assert abs(got.value - want) <= 1e-12

    def test_lem24_gap(self):
        want = math.log(math.cosh(1)) - math.tanh(1) / 2
        got = iq.lem24_gap(1.0, 2.0)
        assert abs(got.value - want) <= 1e-12

    def test_lem22_right_limit(self):
        # f decreases toward p log(pi_p/2) at the right endpoint.
        ph = ptrig.pi_p(2.0).value / 2
        got = iq.lem22_f(ph * (1 - 1e-6), 2.0).value
        assert abs(got - 2 * math.log(math.pi / 2)) <= 1e-5

    def test_lem23_slow_approach(self):
        # g(x) -> p logarithmically; classical checkpoints.
        for x, want in ((3.0, 1.1968), (10.0, 1.5565), (20.0, 1.7170)):
            sh, ch = math.sinh(x), math.cosh(x)
            oracle = 2 * sh * math.log(sh / x) / (x * ch - sh)
            got = iq.lem23_g(x, 2.0).value
            assert abs(got - oracle) <= 1e-10
            assert abs(got - want) <= 1e-3


class TestAgainstMpmath:
    """Both evaluation routes against 40-digit oracles, p across the set."""

    @pytest.mark.parametrize("p", [2.0, 2.5, 10.0])
    def test_functionals_across_routes(self, p):
        switch_x = series._Z_SWITCH ** (1.0 / p)
        xs = [0.3 * switch_x, 0.97 * switch_x, 1.03 * switch_x, 0.5, 0.9]
        for x in xs:
            o1, o2, o22, o23, o24 = mp_functionals(p, x)
            for fn, want in (
                (iq.thm1_f, o1),
                (iq.thm2_g, o2),
                (iq.lem22_f, o22),
                (iq.lem23_g, o23),
                (iq.lem24_gap, o24),
            ):
                got = fn(x, p)
                assert abs(got.value - want) <= max(1e-11, 20 * got.abs_err), (
                    f"{fn.__name__}({x}, {p}): got {got.value}, want {want}"
                )

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_error_bounds_honest(self, p):
        for x in (0.01, 0.2, 0.8):
            oracles = mp_functionals(p, x)
            fns = (iq.thm1_f, iq.thm2_g, iq.lem22_f, iq.lem23_g, iq.lem24_gap)
            for fn, want in zip(fns, oracles):
                got = fn(x, p)
                assert abs(got.value - want) <= got.abs_err + 1e-15


class TestLimits:
    @pytest.mark.parametrize("p", P_CERT)
    def test_thm1_f_limit_one(self, p):
        assert abs(iq.thm1_f(1e-3, p).value - 1.0) <= 2e-3

    @pytest.mark.parametrize("p", P_CERT)
    def test_thm2_g_limit_alpha(self, p):
        assert abs(iq.thm2_g(1e-3, p).value - 1.0 / (1.0 + p)) <= 2e-3

    @pytest.mark.parametrize("p", P_CERT)
    def test_lem22_lem23_limit_one(self, p):
        assert abs(iq.lem22_f(1e-3, p).value - 1.0) <= 5e-3
        assert abs(iq.lem23_g(1e-3, p).value - 1.0) <= 5e-3

    def test_lem24_vanishes(self):
        assert abs(iq.lem24_gap(1e-4, 2.0).value) <= 1e-7


class TestSharpConstants:
    def test_classical_values(self):
        sc = iq.sharp_constants(2.0)
        assert sc.alpha == pytest.approx(1.0 / 3.0, abs=0)
        assert abs(sc.beta - 0.4909) <= 5e-5
        want = math.log(math.pi / 2) / math.log(math.cosh(math.pi / 2))
        assert abs(sc.beta - want) <= 1e-12

    @pytest.mark.parametrize("p", P_CERT)
    def test_ordering(self, p):
        sc = iq.sharp_constants(p)
        assert sc.alpha == 1.0 / (1.0 + p)
        assert 0.0 < sc.alpha < sc.beta < 1.0

    def test_beta_against_closed_pi(self):
        # beta recomputed from the closed-form pi_p and an mp cosh_p oracle.
        for p in (2.0, 3.0):
            ph = classical_pi_p(p) / 2
            sh = mp_sinh_p(p, ph)
            with mp.workdps(40):
                ch = (1 + sh ** mp.mpf(p)) ** (1 / mp.mpf(p))
                want = float(mp.log(ph) / mp.log(ch))
            assert abs(iq.sharp_constants(p).beta - want) <= 1e-11

    def test_exploratory_p_computes(self):
        sc = iq.sharp_constants(1.5)
        assert sc.alpha == 0.4


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            iq.GridSpec(n=2)
        with pytest.raises(ValueError):
            iq.GridSpec(n=50.0)
        with pytest.raises(ValueError):
            iq.GridSpec(spacing="chebyshev")
        with pytest.raises(ValueError):
            iq.GridSpec(left_offset=1e-5)
        with pytest.raises(ValueError):
            iq.GridSpec(left_offset=0.6, right_offset=0.6)

    @pytest.mark.parametrize("spacing", ["uniform", "log", "cosine"])
    def test_points_interior_ordered(self, spacing):
        spec = iq.GridSpec(n=37, spacing=spacing)
        xs = iq.grid_points(spec, 0.0, 3.0)
        assert len(xs) == 37
        assert np.all(np.diff(xs) > 0)
        assert xs[0] >= 3.0 * 1e-4 and xs[-1] <= 3.0 * (1 - 1e-4)

    @pytest.mark.parametrize("spacing", ["uniform", "log", "cosine"])
    def test_points_match_numpy(self, spacing):
        # Python floats from numpy's formulas: uniform and cosine bit for
        # bit.  log may differ from geomspace where numpy's SIMD log10 and
        # power round differently from libm: up to 2 ulp from the power,
        # and a last-bit disagreement in log10 of an end, which the linspace
        # formula carries into y as a few ulp of the log range and 10^y
        # turns into ln(10) x dy.
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 500))
            lo = float(rng.uniform(0.0, 2.0))
            hi = lo + float(10.0 ** rng.uniform(-3.0, 2.0))
            left, right = (10.0 ** rng.uniform(-4.0, -0.5, 2)).tolist()
            spec = iq.GridSpec(n=n, spacing=spacing, left_offset=left, right_offset=right)
            xs = iq.grid_points(spec, lo, hi)
            assert type(xs) is list and all(type(x) is float for x in xs)
            a, b = lo + left * (hi - lo), hi - right * (hi - lo)
            if spacing == "uniform":
                assert xs == np.linspace(a, b, n).tolist()
            elif spacing == "cosine":
                t = 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
                assert xs == (a + (b - a) * t).tolist()
            else:
                ref = np.geomspace(a, b, n)
                la, lb = np.log10(a), np.log10(b)
                dy = 4.0 * np.spacing(max(abs(la), abs(lb), lb - la))
                tol = 2.0 * np.spacing(ref) + math.log(10.0) * ref * dy
                assert np.all(np.abs(np.array(xs) - ref) <= tol)

    def test_cosine_clusters_endpoints(self):
        xs = iq.grid_points(iq.GridSpec(n=101, spacing="cosine"), 0.0, 1.0)
        d = np.diff(xs)
        assert d[0] < d[50] / 10

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            iq.grid_points(iq.GridSpec(), 1.0, 1.0)


class TestChains:
    @pytest.mark.parametrize("p", P_CERT)
    @pytest.mark.parametrize(
        "tag",
        [F.THM1_CHAIN, F.THM2_CHAIN, F.LEM22_CHAIN, F.LEM23_CHAIN, F.COROLLARY_CHAIN],
    )
    def test_pass_certified(self, tag, p):
        rep = iq.verify_claim(tag, p, iq.GridSpec(n=50))
        assert rep.passed
        assert rep.min_margin > 0
        assert rep.monotone_verdict == "not_checked"
        assert len(rep.points) == 50

    def test_chain_terms_match_oracle(self):
        # Spot-check THM1 terms at x=1, p=3 against the mp oracle.
        rep = iq.verify_claim(F.THM1_CHAIN, 3.0, iq.GridSpec(n=5))
        x = rep.points[2].x
        s = float(mp_sin_p(3.0, x))
        sh = float(mp_sinh_p(3.0, x))
        want = ((x / sh) ** 3, s / x, x / sh)
        for got, ref in zip(rep.points[2].values, want):
            assert abs(got - ref) <= 1e-11

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 10.0])
    def test_series_and_direct_routes_agree_above_the_switch(self, p, monkeypatch):
        # Both routes derive from one declaration of each chain, so where the
        # series is still accurate their margins agree within the budgets.
        fam = ptrig.core._family(p)
        points = [
            (tag, z ** (1.0 / p))
            for tag in sorted(iq._CLAIMS, key=str)
            if iq._CLAIMS[tag].kind == "chain"
            for z in (4.5e-3, 6e-3, 1e-2)
        ]
        direct = [iq._chain_point(tag, fam, x) for tag, x in points]
        monkeypatch.setattr(series, "_Z_SWITCH", 1.0)
        for (tag, x), (_, d_margins, d_budgets) in zip(points, direct):
            _, s_margins, s_budgets = iq._chain_point(tag, fam, x)
            for k, (dm, sm) in enumerate(zip(d_margins, s_margins)):
                assert abs(dm - sm) <= d_budgets[k] + s_budgets[k], (tag, x, k)

    def test_ordering_of_terms(self):
        # Adjacent terms can tie at double resolution near 0; the certified
        # ordering lives in the margin, the values only have to not reverse.
        rep = iq.verify_claim(F.COROLLARY_CHAIN, 2.0, iq.GridSpec(n=20))
        for pt in rep.points:
            vals = pt.values
            assert len(vals) == 5
            assert all(vals[i] <= vals[i + 1] for i in range(4))
            assert vals[-1] == 1.0
            assert pt.margin > 0

    def test_thm1_fails_below_two(self):
        # The chain genuinely reverses for p < 2; an honest negative report.
        rep = iq.verify_claim(F.THM1_CHAIN, 1.5, iq.GridSpec(n=50))
        assert not rep.passed
        assert rep.min_margin < 0

    def test_thm2_equals_bounds_route(self):
        sc = iq.sharp_constants(3.0)
        rep = iq.verify_claim(F.THM2_CHAIN, 3.0, iq.GridSpec(n=50))
        for pt in rep.points:
            g = iq.thm2_g(pt.x, 3.0).value
            assert (pt.margin > 0) == (sc.alpha < g < sc.beta)


class TestMonotone:
    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize(
        "tag,direction",
        [(F.THM1_F, "increasing"), (F.THM2_G, "increasing"),
         (F.LEM22_F, "decreasing"), (F.LEM23_G, "increasing")],
        ids=["THM1_F", "THM2_G", "LEM22_F", "LEM23_G"],
    )
    def test_verdicts(self, tag, direction, p):
        rep = iq.verify_claim(tag, p, iq.GridSpec(n=200))
        assert rep.monotone_verdict == direction

    @pytest.mark.parametrize("tag", [F.THM1_F, F.THM2_G, F.LEM22_F, F.LEM23_G])
    def test_certified_pass_at_p3(self, tag):
        # At moderate p every consecutive difference clears its budget.
        rep = iq.verify_claim(tag, 3.0, iq.GridSpec(n=200))
        assert rep.passed

    def test_genuine_reversal_violates(self):
        # LEM22_F's decrease needs p >= 2; at p = 1.5 it genuinely increases.
        rep = iq.verify_claim("lem22_f", 1.5, iq.GridSpec(n=50))
        assert rep.monotone_verdict == "violated"
        assert not rep.passed

    def test_exploratory_lem22_flips(self):
        # Below p=2 the functional increases toward p log(pi_p/2) > 1.
        rep = iq.verify_claim(F.LEM22_F, 1.5, iq.GridSpec(n=100))
        values = [pt.values[0] for pt in rep.points]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert iq.is_exploratory(F.LEM22_F, 1.5)
        assert not iq.is_exploratory(F.LEM22_F, 2.0)
        assert not iq.is_exploratory(F.LEM24_GAP, 1.5)

    def test_point_count(self):
        rep = iq.verify_claim(F.THM2_G, 2.0, iq.GridSpec(n=40))
        assert len(rep.points) == 39


class TestPositivity:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    def test_lem24_gap_positive(self, p):
        rep = iq.verify_claim(F.LEM24_GAP, p, iq.GridSpec(n=200))
        assert rep.passed
        assert rep.min_margin > rep.error_budget > 0
        # Positivity has no direction to report.
        assert rep.monotone_verdict == "not_checked"


class TestBoundsSandwich:
    """The bounds 1 < thm1_f < p and alpha < thm2_g < beta, which after
    taking logs are THM1_CHAIN and THM2_CHAIN."""

    @pytest.mark.parametrize("p", P_CERT)
    def test_enclosure(self, p):
        grid = iq.GridSpec(n=100)
        sc = iq.sharp_constants(p)
        for tag, lo, hi in ((F.THM1_F, 1.0, p), (F.THM2_G, sc.alpha, sc.beta)):
            for pt in iq.verify_claim(tag, p, grid).points:
                assert lo <= pt.values[0] < hi

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0, 50.0])
    @pytest.mark.parametrize("grid", [iq.GridSpec(n=40), iq.GridSpec(n=31, spacing="log")])
    def test_is_the_thm1_and_thm2_chains(self, p, grid):
        # Wherever the functional lies inside or outside its bounds by more
        # than its error bound, the chain's margin there has the same sign.
        sc = iq.sharp_constants(p)
        for chain, fn, lo, hi in ((F.THM1_CHAIN, iq.thm1_f, 1.0, p),
                                  (F.THM2_CHAIN, iq.thm2_g, sc.alpha, sc.beta)):
            decided = 0
            for pt in iq.verify_claim(chain, p, grid).points:
                f = fn(pt.x, p)
                gap = min(f.value - lo, hi - f.value)
                if abs(gap) > f.abs_err:
                    decided += 1
                    assert (pt.margin > 0) == (gap > 0), (chain, pt.x)
            assert decided > 0

    def test_beta_out_of_range_fails_as_the_chain_does(self):
        # beta leaves double range below p = 1.00141.
        for tag in (F.THM2_CHAIN, F.COROLLARY_CHAIN):
            with pytest.raises(iq.EvaluationFailed) as exc:
                iq.verify_claim(tag, 1.0001)
            assert isinstance(exc.value.cause, ptrig.DomainError)

    def test_sharpness_evidence(self):
        # g at the extreme grid points hugs alpha and beta.
        for p in P_CERT:
            sc = iq.sharp_constants(p)
            xs = iq.grid_points(iq.GridSpec(n=200), *iq.thm2_g.domain.window(ptrig.core._family(p)))
            assert abs(iq.thm2_g(float(xs[0]), p).value - sc.alpha) <= 1e-2
            assert abs(iq.thm2_g(float(xs[-1]), p).value - sc.beta) <= 1e-2


class TestDispatchAndFailure:
    def test_string_claims(self):
        rep = iq.verify_claim("thm2_chain", 2.0, iq.GridSpec(n=10))
        assert rep.claim == "THM2_CHAIN"
        with pytest.raises(ValueError):
            iq.verify_claim("thm9_chain", 2.0)

    @pytest.mark.parametrize("claim", [3, None, b"thm1_f", "thm9_chain"])
    def test_unknown_claims_raise_value_error(self, claim):
        for entry in (iq.verify_claim, iq.is_exploratory):
            with pytest.raises(ValueError, match="unknown claim"):
                entry(claim, 2.0)

    def test_every_tag_dispatches(self):
        for tag in F:
            rep = iq.verify_claim(tag, 2.0, iq.GridSpec(n=10))
            assert rep.claim == tag.value
            assert len(rep.points) >= 9

    def test_evaluation_failed_wraps(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NonConvergence("stalled")

        # p = 2's family keeps _l2 and _l3 from earlier runs; a cold one calls boom.
        for results in [ptrig.core._FAMILIES, *ptrig.core._RESULTS.values()]:
            monkeypatch.delitem(results, 2.0, raising=False)
        monkeypatch.setattr(ptrig.core, "_sinh_raw", boom)
        with pytest.raises(iq.EvaluationFailed) as exc:
            iq.verify_claim(F.LEM23_CHAIN, 2.0, iq.GridSpec(n=5))
        assert exc.value.claim == "LEM23_CHAIN"
        assert exc.value.p == 2.0
        assert isinstance(exc.value.cause, NonConvergence)

    def test_end_values_and_domain_errors(self):
        # The functionals are served on the evaluators' closed domains: at
        # x = 0 each returns its limit, and at the float pi_p/2 thm2_g
        # returns beta, while lem22_f's pole is refused naming the call.
        def encloses(ev, want):
            return abs(ev.value - want) <= ev.abs_err

        for p in P_CERT:
            for fn in (iq.thm1_f, iq.lem22_f, iq.lem23_g):
                assert encloses(fn(0.0, p), 1.0), (fn.__name__, p)
            assert encloses(iq.thm2_g(0.0, p), 1.0 / (1.0 + p))
            gap = iq.lem24_gap(0.0, p).value
            assert gap == 0.0 and math.copysign(1.0, gap) == 1.0
            half = ptrig.pi_p(p).value / 2
            assert encloses(iq.thm2_g(half, p), iq.sharp_constants(p).beta)
            with pytest.raises(ptrig.PoleError) as exc:
                iq.lem22_f(half, p)
            assert str(exc.value).startswith("lem22_f(")
            with pytest.raises(ptrig.DomainError):
                iq.lem24_gap(-1.0, p)
            with pytest.raises(ptrig.DomainError):
                iq.thm1_f(2.0 * half, p)


class TestReports:
    def test_json_schema(self):
        rep = iq.verify_claim(F.THM1_CHAIN, 2.0, iq.GridSpec(n=5))
        d = rep.to_json_dict()
        assert list(d.keys()) == ["claim", "p", "passed", "min_margin", "monotone_verdict", "points"]
        assert list(d["points"][0].keys()) == ["x", "margin", "values"]
        # everything json-serializable without numpy leakage
        text = json.dumps(d)
        assert json.loads(text) == d

    def test_determinism(self):
        a = iq.verify_claim(F.COROLLARY_CHAIN, 3.0, iq.GridSpec(n=50)).to_json_dict()
        b = iq.verify_claim(F.COROLLARY_CHAIN, 3.0, iq.GridSpec(n=50)).to_json_dict()
        assert json.dumps(a) == json.dumps(b)

    @pytest.mark.parametrize("claim", [F.COROLLARY_CHAIN, F.THM2_G, F.LEM24_GAP])
    def test_min_margin_is_min(self, claim):
        # At p = 50 the first points, where z = x^p underflows, leave margins of 0.
        for p in (2.0, 50.0):
            rep = iq.verify_claim(claim, p, iq.GridSpec(n=50))
            assert rep.min_margin == min(pt.margin for pt in rep.points)
            if any(pt.margin <= 0 for pt in rep.points):
                assert not rep.passed


class TestCheckHooks:
    """bench/child.py's check mode wraps _chain_point and lem24_gap by
    replacing every module-level reference to them in ptrig, values of plain
    dicts included, and skips a name it cannot find.  verify_claim must run
    through the wrappers at every point."""

    @staticmethod
    def wrap_everywhere(monkeypatch, orig, replacement):
        for name, mod in list(sys.modules.items()):
            if name != "ptrig" and not name.startswith("ptrig."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, replacement)
                elif type(val) is dict:
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            monkeypatch.setitem(val, dkey, replacement)

    def test_verify_claim_runs_through_the_wrapped_checks(self, monkeypatch):
        seen = []
        chain_point, gap = iq._chain_point, iq.lem24_gap

        def checked_chain_point(*args, **kwargs):
            values, margins, budgets = chain_point(*args, **kwargs)
            seen.append(("chain", len(margins) == len(values) - 1 == len(budgets)))
            return values, margins, budgets

        def checked_gap(*args, **kwargs):
            ev = gap(*args, **kwargs)
            seen.append(("positive", ev.abs_err >= 0.0))
            return ev

        self.wrap_everywhere(monkeypatch, chain_point, checked_chain_point)
        self.wrap_everywhere(monkeypatch, gap, checked_gap)
        n = 12
        for tag, claim in iq._CLAIMS.items():
            seen.clear()
            rep = iq.verify_claim(tag, 3.0, iq.GridSpec(n=n))
            assert rep.passed, tag
            if claim.kind in ("chain", "positive"):
                assert seen == [(claim.kind, True)] * n, tag
            else:
                assert seen == [], tag
