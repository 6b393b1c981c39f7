"""Acceptance gate: every release criterion, one test (or test group) each.

Each criterion asserts exactly its stated tolerance.  Two sub-checks are
marked xfail(strict=True) because the stated target is unattainable, not
because the implementation falls short:

* hyperbolic identity at p=10: any double-returning cosh_p puts the residual
  1 + sinh_p^p - cosh_p^p on a lattice with spacing p * ch^(p-1) * ulp(ch),
  about 3.4e-7 near x=3, so no implementation can meet 1e-9 there;
* lem23_g(20) at p=2: the true value is 1.71696..., which sits 0.28304 from
  the limit 2, outside the requested 0.2 window (the approach to p is
  logarithmically slow in x).

The terminal summary hook in conftest.py prints one PASS/FAIL line per
criterion, counting these as expected-unattainable.
"""

import functools
import json
import math

import mpmath
import pytest

import ptrig
from ptrig import cli
from ptrig import inequalities as iq
from ptrig.inequalities import FunctionId as F
from tests.conftest import central_diff

P_CERT = [2.0, 2.5, 3.0, 5.0, 10.0]

CRITERIA = {
    "c01": "classical reduction at p=2, six functions, 100 points, 1e-10",
    "c02": "constants: beta(2)=0.4909±5e-5, alpha(2)=1/3, pi_p(2)=pi to 1e-12",
    "c03": "closed-form pi_p vs 40-digit mpmath quadrature of 2*int_0^1 (1-t^p)^(-1/p), within abs_err",
    "c04": "identity residuals <= 1e-9 on certified grids",
    "c05": "round-trip inversion to 1e-9",
    "c06": "derivative formulas vs central differences (h=1e-5) to 1e-6",
    "c07": "THM1_CHAIN passes, THM1_F increasing, 1 < f < p certified",
    "c08": "THM2_CHAIN passes, THM2_G increasing, alpha < g < beta, sharp ends",
    "c09": "LEM22_F decreasing, sandwich passes, f(1e-3) anchor",
    "c10": "LEM23_G increasing on (0,3), g(20) anchor at p=2, sandwich passes",
    "c11": "LEM24 gap exceeds error budget on (0,3), p in {1.5,2,3,10}",
    "c12": "COROLLARY_CHAIN passes for p in {2,3,5,10}",
    "c13": "verify --claim all --p 3 json output byte-identical across runs",
}

EXPECTED_FAIL_NOTES = {
    "c04": "p=10 residual floor ~3.4e-7 exceeds 1e-9 in double precision",
    "c10": "g(20, p=2) = 1.71696 sits 0.283 from the limit, outside 0.2",
}

GRID = iq.GridSpec(n=200)


@functools.lru_cache(maxsize=None)
def claim_report(tag: F, p: float) -> iq.VerificationReport:
    return iq.verify_claim(tag, p, GRID)


def circular_grid(p: float, n: int = 100, spacing: str = "uniform"):
    half_pi = ptrig.pi_p(p).value / 2.0
    spec = iq.GridSpec(n=n, spacing=spacing)
    return [float(x) for x in iq.grid_points(spec, 0.0, half_pi)]


def hyperbolic_grid(n: int = 100, spacing: str = "uniform"):
    spec = iq.GridSpec(n=n, spacing=spacing)
    return [float(x) for x in iq.grid_points(spec, 0.0, 3.0)]


def test_c01_classical_reduction():
    pairs_circ = [
        (ptrig.sin_p, math.sin),
        (ptrig.cos_p, math.cos),
        (ptrig.tan_p, math.tan),
    ]
    pairs_hyp = [
        (ptrig.sinh_p, math.sinh),
        (ptrig.cosh_p, math.cosh),
        (ptrig.tanh_p, math.tanh),
    ]
    for ours, classical in pairs_circ:
        for x in circular_grid(2.0, n=100):
            got = ours(x, 2.0).value
            assert math.isclose(got, classical(x), rel_tol=1e-10, abs_tol=1e-10), (
                f"{ours.__name__}({x}) = {got}, classical {classical(x)}"
            )
    for ours, classical in pairs_hyp:
        for x in hyperbolic_grid(n=100):
            got = ours(x, 2.0).value
            assert math.isclose(got, classical(x), rel_tol=1e-10, abs_tol=1e-10)


def test_c02_constant_reproduction():
    sc = iq.sharp_constants(2.0)
    assert abs(sc.beta - 0.4909) <= 5e-5
    assert sc.alpha == 1.0 / 3.0
    assert abs(ptrig.pi_p(2.0).value - math.pi) <= 1e-12


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 10.0])
def test_c03_pi_p_closed_form(p):
    # pi_p is the closed form 2 pi / (p sin(pi/p)); the independent reference
    # is the defining integral itself, whose 40-digit quadrature is good to
    # about 1e-22 here (p = 2 is the slowest to converge).
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        ref = 2 * mpmath.quad(lambda t: (1 - t ** P) ** (-1 / P), [0, 1])
        got = ptrig.pi_p(p)
        assert abs(mpmath.mpf(got.value) - ref) <= got.abs_err


@pytest.mark.parametrize("p", P_CERT)
def test_c04_circular_identity(p):
    for x in circular_grid(p, n=200, spacing="cosine"):
        s = ptrig.sin_p(x, p).value
        c = ptrig.cos_p(x, p).value
        assert abs(c ** p + s ** p - 1.0) <= 1e-9


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 5.0])
def test_c04_hyperbolic_identity(p):
    for x in hyperbolic_grid(n=200, spacing="cosine"):
        sh = ptrig.sinh_p(x, p).value
        ch = ptrig.cosh_p(x, p).value
        assert abs(ch ** p - sh ** p - 1.0) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="residual lattice spacing p*ch^(p-1)*ulp(ch) reaches ~3.4e-7 near x=3",
)
def test_c04_hyperbolic_identity_p10():
    for x in hyperbolic_grid(n=200, spacing="cosine"):
        sh = ptrig.sinh_p(x, 10.0).value
        ch = ptrig.cosh_p(x, 10.0).value
        assert abs(ch ** 10 - sh ** 10 - 1.0) <= 1e-9


@pytest.mark.parametrize("p", P_CERT)
def test_c05_round_trip_inversion(p):
    for x in circular_grid(p, n=100, spacing="cosine"):
        s = ptrig.sin_p(x, p).value
        assert abs(ptrig.arcsin_p(s, p).value - x) <= 1e-9
    for x in hyperbolic_grid(n=100, spacing="cosine"):
        sh = ptrig.sinh_p(x, p).value
        assert abs(ptrig.arsinh_p(sh, p).value - x) <= 1e-9


@pytest.mark.parametrize("p", P_CERT)
def test_c06_derivatives_vs_central_difference(p):
    # 20 interior points per function; 1% end offsets keep x±h in-domain and
    # the finite-difference truncation h^2 f'''/6 itself under the tolerance.
    derivs = [
        (ptrig.d_sin_p, ptrig.sin_p, "circ"),
        (ptrig.d_cos_p, ptrig.cos_p, "circ"),
        (ptrig.d_sinh_p, ptrig.sinh_p, "hyp"),
        (ptrig.d_cosh_p, ptrig.cosh_p, "hyp"),
        (ptrig.d_tanh_p, ptrig.tanh_p, "hyp"),
    ]
    half_pi = ptrig.pi_p(p).value / 2.0
    spec = iq.GridSpec(n=20, spacing="uniform", left_offset=0.01, right_offset=0.01)
    for deriv, base, kind in derivs:
        hi = half_pi if kind == "circ" else 3.0
        for x in iq.grid_points(spec, 0.0, hi):
            x = float(x)
            want = central_diff(lambda u: base(u, p).value, x, 1e-5)
            got = deriv(x, p).value
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6), (
                f"{deriv.__name__}({x}, {p}) = {got}, central diff {want}"
            )


@pytest.mark.parametrize("p", P_CERT)
def test_c07_thm1(p):
    # After taking logs, 1 < f < p is THM1_CHAIN, (x/sinh_p)^p < sin_p/x <
    # x/sinh_p, so its pass certifies the bounds at every grid point (near
    # zero f rounds to 1.0 while f - 1 is still provably positive).
    chain = claim_report(F.THM1_CHAIN, p)
    assert chain.passed
    assert chain.min_margin > 0
    assert len(chain.points) == 200
    assert claim_report(F.THM1_F, p).monotone_verdict == "increasing"


@pytest.mark.parametrize("p", P_CERT)
def test_c08_thm2(p):
    # alpha < g < beta is THM2_CHAIN, cosh_p^-beta < sin_p/x < cosh_p^-alpha,
    # whose pass also cross-checks g against alpha and beta at every point.
    chain = claim_report(F.THM2_CHAIN, p)
    assert chain.passed
    assert claim_report(F.THM2_G, p).monotone_verdict == "increasing"
    sc = iq.sharp_constants(p)
    lo, hi = iq.thm2_g.domain.window(ptrig.core._family(p))
    xs = iq.grid_points(GRID, lo, hi)
    assert abs(iq.thm2_g(float(xs[0]), p).value - sc.alpha) <= 1e-2
    assert abs(iq.thm2_g(float(xs[-1]), p).value - sc.beta) <= 1e-2


@pytest.mark.parametrize("p", P_CERT)
def test_c09_lem22(p):
    assert claim_report(F.LEM22_F, p).monotone_verdict == "decreasing"
    assert claim_report(F.LEM22_CHAIN, p).passed
    assert abs(iq.lem22_f(1e-3, p).value - 1.0) <= 5e-3


@pytest.mark.parametrize("p", P_CERT)
def test_c10_lem23(p):
    assert claim_report(F.LEM23_G, p).monotone_verdict == "increasing"
    assert claim_report(F.LEM23_CHAIN, p).passed


@pytest.mark.xfail(
    strict=True,
    reason="g(20, p=2) = 1.71696, 0.28304 below the limit; 0.2 is out of reach",
)
def test_c10_g20_anchor():
    assert abs(iq.lem23_g(20.0, 2.0).value - 2.0) <= 0.2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
def test_c11_lem24_gap(p):
    rep = iq.verify_claim(F.LEM24_GAP, p, GRID)
    assert rep.passed
    assert rep.min_margin > rep.error_budget


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 10.0])
def test_c12_corollary_chain(p):
    rep = claim_report(F.COROLLARY_CHAIN, p)
    assert rep.passed
    assert rep.min_margin > 0


def test_c13_verify_all_deterministic(capsys):
    argv = ["verify", "--claim", "all", "--p", "3", "--format", "json"]
    assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    reports = json.loads(first)
    assert len(reports) == 10
    assert all(r["passed"] for r in reports)
