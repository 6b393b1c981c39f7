"""Shared high-precision oracles (mpmath) for series and functional tests."""

import math

import mpmath as mp


def _mp_newton(F, dF, lo, hi, s0, tol):
    """Bracket-clamped Newton in mpmath; F increasing with F(lo)<=0<=F(hi).

    Stops on a small residual or once the bracket pins the root to ~35
    significant digits (quadrature noise can keep the residual above tol
    when the root sits against an integrable singularity).
    """
    s = s0
    for _ in range(200):
        f = F(s)
        if abs(f) <= tol:
            return s
        if f < 0:
            lo = s
        else:
            hi = s
        if hi - lo <= mp.mpf("1e-35") * hi:
            return (lo + hi) / 2
        d = dF(s)
        cand = s - f / d if d > 0 and mp.isfinite(d) else None
        s = cand if cand is not None and lo < cand < hi else (lo + hi) / 2
    raise RuntimeError("mp oracle did not converge")


def mp_sin_p(p, x, dps=40):
    """sin_p(x) by bracketed Newton on the defining integral.

    The bracket [0, min(1, x)] always encloses the root because
    arcsin_p(s) >= s, so the iteration never leaves the domain.
    """
    with mp.workdps(dps + 10):
        p = mp.mpf(p)
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(0)
        half_period = mp.pi / (p * mp.sin(mp.pi / p))
        if x >= half_period:
            return mp.mpf(1)

        def F(s):
            return mp.quad(lambda t: (1 - t ** p) ** (-1 / p), [0, s]) - x

        def dF(s):
            return (1 - s ** p) ** (-1 / p)

        hi = min(mp.mpf(1), x)
        s0 = hi * (1 - mp.mpf("1e-20"))
        return _mp_newton(F, dF, mp.mpf(0), hi, s0, mp.mpf(10) ** (-dps - 5) * x)


def mp_sinh_p(p, x, dps=40):
    """sinh_p(x) by bracketed Newton; arsinh_p(s) <= s gives the bracket [x, hi].

    For s > 1 the defining integral is split at 1 and the tail taken in
    log space, otherwise mp.quad loses relative accuracy on the huge
    near-hyperbolic ranges that large x produces.
    """
    with mp.workdps(dps + 10):
        p = mp.mpf(p)
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(0)

        def F(s):
            if s <= 1:
                return mp.quad(lambda t: (1 + t ** p) ** (-1 / p), [0, s]) - x
            head = mp.quad(lambda t: (1 + t ** p) ** (-1 / p), [0, 1])
            tail = mp.quad(lambda u: (1 + mp.e ** (-p * u)) ** (-1 / p), [0, mp.log(s)])
            return head + tail - x

        def dF(s):
            return (1 + s ** p) ** (-1 / p)

        hi = 2 * x
        while F(hi) < 0:
            hi *= 4
        return _mp_newton(F, dF, x, hi, x * (1 + mp.mpf("1e-20")), mp.mpf(10) ** (-dps - 5) * x)


def mp_primitives(p, x, dps=40):
    """High-precision log-ratio primitives at (p, x), as mpmath numbers.

    Keys mirror ptrig.series.SmallZSeries: l1, l2, l3, l4, d, e, lem24.
    """
    with mp.workdps(dps):
        pm = mp.mpf(p)
        xm = mp.mpf(x)
        s = mp_sin_p(p, x, dps)
        sh = mp_sinh_p(p, x, dps)
        cos = (1 - s ** pm) ** (1 / pm)
        ch = (1 + sh ** pm) ** (1 / pm)
        l1 = mp.log(xm / s)
        l2 = mp.log(sh / xm)
        l3 = mp.log(ch)
        l4 = -mp.log(cos)
        d = (s - xm * cos) / s
        e = (xm * ch - sh) / sh
        lem24 = l3 - (xm / pm) * (sh / ch) ** (pm - 1)
        return {"l1": l1, "l2": l2, "l3": l3, "l4": l4, "d": d, "e": e, "lem24": lem24}


def classical_pi_p(p):
    """Closed form 2*pi / (p * sin(pi/p)), the independent half-period oracle."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def central_diff(f, x, h):
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h); O(h^2) error.

    The derivative oracle of C06 and TestDerivatives."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    import re
    from collections import Counter

    buckets = {}
    for key in ("passed", "failed", "error", "xfailed", "xpassed"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and key != "error":
                continue
            m = re.search(r"::test_(c\d\d)", nodeid)
            if m:
                buckets.setdefault(m.group(1), Counter())[key] += 1
    if not buckets:
        return

    try:
        from test_acceptance import CRITERIA, EXPECTED_FAIL_NOTES
    except ImportError:
        CRITERIA, EXPECTED_FAIL_NOTES = {}, {}

    terminalreporter.section("acceptance criteria")
    for cid in sorted(buckets):
        counts = buckets[cid]
        title = CRITERIA.get(cid, "")
        n_pass = counts.get("passed", 0)
        hard = counts.get("failed", 0) + counts.get("error", 0) + counts.get("xpassed", 0)
        expected = counts.get("xfailed", 0)
        if hard:
            status = f"FAIL ({n_pass} passed, {hard} failed)"
        elif expected:
            note = EXPECTED_FAIL_NOTES.get(cid, "documented as unattainable")
            status = f"FAIL ({n_pass} passed, {expected} expected-unattainable: {note})"
        else:
            status = f"PASS ({n_pass}/{n_pass})"
        terminalreporter.write_line(f"{cid.upper()}  {title}: {status}")
