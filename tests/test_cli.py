"""End-to-end CLI behavior: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from ptrig import cli, core, series


def run(*argv):
    """Invoke the CLI in-process, capturing both streams."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cold_verify_counts(p, exit_code):
    """(quadratures, nodes, series sums, sinh_p routes) of ``verify --claim
    all --p p`` from a cold start at p: the calls of core._arsinh_quad, the
    integrand nodes they evaluate, the calls of core._arcsin_series, and for
    each route of a sinh_p state (the z-series, a solve up to the top of
    arsinh_p(1)'s enclosure, one above it) its states computed and the
    quadratures they took, arsinh_p(1) with the first that needs it.  The
    family and every kept result at p are dropped first, and the run must
    exit with exit_code."""
    core._FAMILIES.pop(p, None)
    for results in core._RESULTS.values():
        results.pop(p, None)
    counts = {"_arsinh_quad": 0, "integrate": 0, "_arcsin_series": 0}
    saved = {name: getattr(core, name) for name in (*counts, "_sinh_raw")}
    routes = {"series": [0, 0], "below": [0, 0], "above": [0, 0]}

    def counting(name):
        def counted(*args):
            counts[name] += 1
            return saved[name](*args)

        return counted

    def integrate(f, b, *targets):
        def counted(t):
            counts["integrate"] += t.size
            return f(t)

        return saved["integrate"](counted, b, *targets)

    def sinh_raw(fam, x):
        # A state the family keeps, or sinh_p(0), takes no route.
        kept = saved["_sinh_raw"]
        if x == 0.0 or (kept.__wrapped__, x) in fam.memo:
            return kept(fam, x)
        before = counts["_arsinh_quad"]
        got = kept(fam, x)
        if series.small_z(fam.pf, x) is not None:
            route = routes["series"]
        else:
            route = routes["below" if x <= core._arsinh_bounds(fam, 1.0)[1] else "above"]
        route[0] += 1
        route[1] += counts["_arsinh_quad"] - before
        return got

    try:
        core._arsinh_quad = counting("_arsinh_quad")
        core._arcsin_series = counting("_arcsin_series")
        core.integrate = integrate
        core._sinh_raw = sinh_raw
        code, _, _ = run("verify", "--claim", "all", "--p", str(p), "--format", "json")
    finally:
        for name, fn in saved.items():
            setattr(core, name, fn)
    assert code == exit_code
    return counts["_arsinh_quad"], counts["integrate"], counts["_arcsin_series"], routes


class TestEval:
    def test_classical_point(self):
        code, out, _ = run("eval", "--p", "2", "--fn", "sin_p", "--x", "0.7853981633974483")
        assert code == 0
        value = float(out.split("±")[0])
        assert abs(value - math.sqrt(0.5)) <= 1e-9

    def test_pi_p_needs_no_x(self):
        code, out, _ = run("eval", "--p", "2", "--fn", "pi_p")
        assert code == 0
        assert abs(float(out.split("±")[0]) - math.pi) <= 1e-10

    def test_json_format(self):
        code, out, _ = run("eval", "--p", "3", "--fn", "cosh_p", "--x", "1.0", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"fn", "p", "x", "value", "abs_err"}
        assert d["fn"] == "cosh_p" and d["x"] == 1.0
        assert d["value"] > 1.0 and d["abs_err"] >= 0.0

    def test_csv_format(self):
        code, out, _ = run("eval", "--p", "2", "--fn", "tan_p", "--x", "0.5", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,value,abs_err"
        x, v, e = (float(t) for t in lines[1].split(","))
        assert abs(v - math.tan(0.5)) <= max(1e-10, e)


class TestTable:
    def test_row_count_and_order(self):
        code, out, _ = run("table", "--p", "2.5", "--fn", "sinh_p", "--n", "17", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,abs_err"
        assert len(lines) == 18
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_csv_seventeen_digit_round_trip(self):
        _, out, _ = run("table", "--p", "3", "--fn", "cos_p", "--n", "9", "--format", "csv")
        for line in out.strip().splitlines()[1:]:
            for tok in line.split(","):
                v = float(tok)
                assert f"{v:.17g}" == tok

    def test_json_rows(self):
        code, out, _ = run(
            "table", "--p", "2", "--fn", "arcsin_p", "--n", "11",
            "--spacing", "uniform", "--format", "json",
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["points"]) == 11
        mid = d["points"][5]
        assert abs(mid["value"] - math.asin(mid["x"])) <= max(1e-10, mid["abs_err"])

    def test_determinism(self):
        a = run("table", "--p", "3", "--fn", "tanh_p", "--n", "25", "--format", "csv")
        b = run("table", "--p", "3", "--fn", "tanh_p", "--n", "25", "--format", "csv")
        assert a == b


class TestConstants:
    def test_classical_line(self):
        code, out, _ = run("constants", "--p", "2")
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split(", "))
        assert float(fields["pi_p"]) == pytest.approx(math.pi, abs=1e-12)
        assert float(fields["alpha"]) == 1.0 / 3.0
        assert abs(float(fields["beta"]) - 0.4909) <= 5e-5

    def test_json(self):
        code, out, _ = run("constants", "--p", "4", "--format", "json")
        d = json.loads(out)
        assert code == 0
        assert 0.0 < d["alpha"] < d["beta"] < 1.0
        assert d["alpha"] == 0.2


class TestVerify:
    def test_single_claim_json_schema(self):
        code, out, err = run(
            "verify", "--claim", "thm2_chain", "--p", "3", "--n", "200", "--format", "json"
        )
        assert code == 0
        d = json.loads(out)
        assert list(d.keys()) == ["claim", "p", "passed", "min_margin", "monotone_verdict", "points"]
        assert d["passed"] is True
        assert d["min_margin"] > 0
        assert len(d["points"]) == 200
        assert "summary: 1/1 passed" in err

    def test_json_round_trips_byte_identically(self):
        _, out, _ = run("verify", "--claim", "lem24_gap", "--p", "2", "--n", "40", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_all_claims_deterministic(self):
        a = run("verify", "--claim", "all", "--p", "3", "--n", "20", "--format", "json")
        b = run("verify", "--claim", "all", "--p", "3", "--n", "20", "--format", "json")
        assert a == (0, a[1], a[2])
        assert a == b
        reports = json.loads(a[1])
        assert len(reports) == 10
        assert a[2].strip().endswith("summary: 10/10 passed")

    # Quadratures of arsinh_p, their integrand nodes and series sums of
    # arcsin_p in a cold verify --claim all, at most these inversions'
    # counts; a solve that needs more steps, or a quadrature that evaluates
    # more nodes, fails here.  Counted from p = 2 to 24, as the verify pin of
    # tests/test_pins.py, each run with its exit code: from p = 5 on the
    # monotone claims FAIL, their steps inside their budgets near the ends.
    QUADRATURES = {2.0: 1512, 3.0: 1475, 5.0: 1363, 10.0: 1073, 24.0: 870}
    NODES = {2.0: 290952, 3.0: 282083, 5.0: 263059, 10.0: 241937, 24.0: 230886}
    SERIES_SUMS = {2.0: 737, 3.0: 688, 5.0: 584, 10.0: 436, 24.0: 287}
    EXIT = {2.0: 0, 3.0: 0, 5.0: 1, 10.0: 1, 24.0: 1}

    @pytest.mark.parametrize("p", sorted(QUADRATURES))
    def test_cold_verify_quadrature_count(self, p, monkeypatch):
        for results in [core._FAMILIES, *core._RESULTS.values()]:
            monkeypatch.delitem(results, p, raising=False)
        quadratures, nodes, sums, _ = cold_verify_counts(p, self.EXIT[p])
        assert quadratures <= self.QUADRATURES[p]
        assert nodes <= self.NODES[p]
        assert sums <= self.SERIES_SUMS[p]

    @pytest.mark.parametrize("p", [2.0, 10.0])
    def test_cold_verify_takes_no_state_below_the_switch(self, p, monkeypatch):
        # The functionals and chains take the series wherever the states
        # would, so the states' series route never changes a verify's work.
        for results in [core._FAMILIES, *core._RESULTS.values()]:
            monkeypatch.delitem(results, p, raising=False)
        calls, below = [], []
        for name in ("_sin_state", "_sinh_raw"):
            def watched(fam, x, state=getattr(core, name), name=name):
                calls.append(name)
                if series.small_z(fam.pf, x) is not None:
                    below.append((name, x))
                return state(fam, x)

            monkeypatch.setattr(core, name, watched)
        run("verify", "--claim", "all", "--p", repr(p), "--format", "json")
        assert set(calls) == {"_sin_state", "_sinh_raw"}
        assert not below, below[:5]

    def test_human_summary_last(self):
        code, out, _ = run("verify", "--claim", "all", "--p", "2", "--n", "20")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 11
        assert lines[-1] == "summary: 10/10 passed"

    def test_exploratory_marked_and_fails_honestly(self):
        code, out, _ = run("verify", "--claim", "thm1_chain", "--p", "1.5", "--n", "20")
        assert code == 1
        assert "FAIL" in out
        assert "exploratory" in out

    def test_csv_summary_table(self):
        code, out, _ = run("verify", "--claim", "lem22_chain", "--p", "2", "--n", "30", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "claim,p,passed,min_margin,monotone_verdict"
        claim, p, passed, margin, verdict = lines[1].split(",")
        assert claim == "LEM22_CHAIN" and passed == "true"
        assert float(margin) > 0


class TestExitCodes:
    def test_unknown_verb(self):
        code, _, _ = run("frobnicate", "--p", "2")
        assert code == 2

    def test_missing_required(self):
        assert run("eval", "--p", "2", "--fn", "sin_p")[0] == 2
        assert run("verify", "--p", "2")[0] == 2
        assert run("table", "--fn", "sin_p")[0] == 2

    def test_domain_error(self):
        code, _, err = run("eval", "--p", "2", "--fn", "sin_p", "--x", "99")
        assert code == 2
        assert "error:" in err

    def test_bad_p(self):
        assert run("constants", "--p", "0.5")[0] == 2

    def test_pole(self):
        code, _, _ = run("eval", "--p", "2", "--fn", "tan_p", "--x", "1.5707963267948966")
        assert code == 2

    def test_nonconvergence(self, monkeypatch):
        # A Newton loop that runs out of steps; the point is new to the process.
        monkeypatch.setattr(core, "_NEWTON_STEPS", 1)
        code, _, err = run("eval", "--p", "2", "--fn", "sin_p", "--x", "0.5000000001234567")
        assert code == 3
        assert "error:" in err

    # There is one precision, so no verb takes --tol: any value is a usage error.
    def test_unreachable_tolerance(self):
        code, out, err = run("eval", "--p", "2", "--fn", "arcsin_p", "--x", "0.5", "--tol", "1e-30")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol" in err

    def test_bad_tolerance_value(self):
        assert run("eval", "--p", "2", "--fn", "sin_p", "--x", "0.5", "--tol", "2.0")[0] == 2

    def test_table_takes_no_tolerance(self):
        code, out, err = run("table", "--p", "2", "--fn", "sinh_p", "--n", "5", "--tol", "1e-10")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol" in err

    def test_constants_takes_no_tolerance(self):
        assert run("constants", "--p", "2", "--tol", "1e-8")[0] == 2

    def test_unknown_claim(self):
        assert run("verify", "--p", "2", "--claim", "thm9_chain")[0] == 2

    def test_bad_grid(self):
        assert run("table", "--p", "2", "--fn", "sin_p", "--n", "1")[0] == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ptrig.cli", "constants", "--p", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pi_p=3.141592653589793" in proc.stdout

    def test_numpy_loads_only_for_the_hyperbolic_quadrature(self):
        # A fresh interpreter: the CLI front end runs without numpy or
        # fractions, and sin_p above the series switch without either; the
        # first z-series loads fractions, the circular side never numpy; the
        # first sinh_p call integrates and loads numpy.
        script = """
import sys
import ptrig.cli
from ptrig import core
def clean(what):
    assert "numpy" not in sys.modules, what
    assert "fractions" not in sys.modules, what
clean("import ptrig.cli")
assert ptrig.cli.main(["eval", "--fn", "sin_p", "--p", "3", "--x", "0.5"]) == 0
clean("ptrig eval --fn sin_p")
for p in (1.5, 2.0, 3.7, 12.0):
    core.pi_p(p)
    half = core.pi_p(p).value / 2.0
    for x in (1e-3, 0.4, 0.97 * half, half - 1e-9):
        for fn in (core.sin_p, core.cos_p, core.tan_p, core.d_sin_p, core.d_cos_p):
            fn(x, p)
    for s in (1e-3, 0.5, 0.999):
        core.arcsin_p(s, p)
assert "numpy" not in sys.modules, "circular evaluators"
assert "fractions" in sys.modules, "the first z-series should load fractions"
core.sinh_p(0.5, 3.0)
assert "numpy" in sys.modules, "sinh_p should integrate with numpy"
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py prints the counts the work
    # gates of TestVerify hold, for a change to show them equal, and the
    # sinh_p states on each route with their quadratures per state.
    for p in sorted(TestVerify.QUADRATURES):
        quadratures, nodes, sums, routes = cold_verify_counts(p, TestVerify.EXIT[p])
        print(f"p = {p}: {quadratures} arsinh_p quadratures, {nodes} integrand nodes, "
              f"{sums} arcsin_p series sums")
        for route, (states, quads) in routes.items():
            per = f"{quads / states:.2f}" if states else "-"
            print(f"  sinh_p {route}: {states} states, {quads} quadratures, {per} per state")
