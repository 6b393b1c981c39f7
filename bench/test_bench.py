"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

The tracer tests start child interpreters and pin the seed program's
quadrature counts; they take a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# workload generation


def test_cycles_are_pure_functions_of_the_seed():
    assert workloads.verify_cycle(7, 3) == workloads.verify_cycle(7, 3)
    assert workloads.table_cycle(7, 3) == workloads.table_cycle(7, 3)
    assert workloads.verify_cycle(7, 3) != workloads.verify_cycle(8, 3)
    assert workloads.verify_cycle(7, 3) != workloads.verify_cycle(7, 4)
    a = list(workloads.pointwise_session(7, 0))
    assert a == list(workloads.pointwise_session(7, 0))
    assert a != list(workloads.pointwise_session(8, 0))


def test_verify_cycle_covers_every_log_p_stratum():
    lo, hi = workloads.VERIFY_P
    k = workloads.VERIFY_CYCLE
    for cycle in range(5):
        ps = [float(a[a.index("--p") + 1]) for a in workloads.verify_cycle(1, cycle)]
        slots = sorted(int(k * math.log(p / lo) / math.log(hi / lo)) for p in ps)
        assert slots == list(range(k))


def test_table_cycle_runs_each_function_once_in_range():
    argvs = workloads.table_cycle(3, 0)
    assert [a[a.index("--fn") + 1] for a in argvs] == list(workloads.TABLE_FNS)
    lo, hi = workloads.TABLE_P
    assert all(lo <= float(a[a.index("--p") + 1]) <= hi for a in argvs)


def test_pointwise_session_repeats_and_domains():
    calls = list(workloads.pointwise_session(11, 2))
    assert len(calls) == workloads.POINT_SESSION_CALLS
    distinct = set(calls)
    repeat_share = 1 - len(distinct) / len(calls)
    assert abs(repeat_share - workloads.POINT_REPEAT) < 0.02
    assert len({p for _, p, _ in calls}) == workloads.POINT_P_COUNT
    for fn, p, x in distinct:
        top = {"sin_p": workloads.half_period(p), "cos_p": workloads.half_period(p),
               "arcsin_p": 1.0}.get(fn, workloads.POINT_HYP_WINDOW)
        assert 0 < x < top


# ---------------------------------------------------------------------------
# statistics


@pytest.mark.parametrize("n, q", [(5, 50), (20, 50), (99, 50), (100, 90), (999, 90),
                                  (1000, 99), (30_000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    got_q, value = measure.tail_percentile(list(range(n)))
    assert got_q == q
    assert sum(1 for v in range(n) if v > value) >= min(measure.TAIL_MIN_BEYOND, n // 2)


def test_percentile_interpolates_and_median_agrees():
    assert measure.percentile([1, 2, 3, 4], 50) == 2.5
    assert measure.median([4, 1, 3, 2]) == 2.5
    assert measure.median([3, 1, 2]) == 2
    assert measure.percentile(list(range(101)), 99) == 99


def test_self_time_of_nested_spans():
    # root [0, 100] > child [10, 60] > grandchild [20, 30]
    starts, ends, parents = [0, 10, 20], [100, 60, 30], [-1, 0, 1]
    assert measure.self_times(starts, ends, parents) == [50, 40, 10]


def test_self_time_of_sibling_spans():
    # root [0, 100] with siblings [10, 20], [30, 50], [50, 55]
    starts, ends, parents = [0, 10, 30, 50], [100, 20, 50, 55], [-1, 0, 0, 0]
    assert measure.self_times(starts, ends, parents) == [65, 10, 20, 5]


def test_self_time_merges_overlapping_and_clips_children():
    # Overlapping children cover [10, 40] once; a child leaking past the
    # parent's end is clipped to it.
    starts, ends, parents = [0, 10, 20, 90], [100, 30, 40, 120], [-1, 0, 0, 0]
    assert measure.self_times(starts, ends, parents)[0] == 100 - 30 - 10


def test_local_speed_uses_the_reference_probes_around_a_request():
    import run

    b = run.Bench(1, 1.0)
    # three probes before request 0, one after it, one after request 1
    b.ref_walls = [0.2, 0.2, 0.2, 0.4, 0.3]
    b.ref_pos = [0, 0, 0, 1, 2]
    nominal = run.REF_NOMINAL_S
    assert b.local_speed(0, 1) == pytest.approx(0.2 / nominal)
    assert b.local_speed(1, 2) == pytest.approx(0.35 / nominal)
    assert b.local_speed(2, 2) == pytest.approx(0.3 / nominal)


def test_bisection_steps_counts_midpoint_iterates_after_the_first():
    # f(x) = x, target 0.3 on [0, 1]: 0.5, 0.25 and 0.375 are midpoints;
    # the Newton-like jump to 0.3 is not.
    points = [0.0, 1.0, 0.5, 0.25, 0.375, 0.3]
    assert measure.bisection_steps(points, points, 0.3) == 2
    assert measure.bisection_steps([0.0, 1.0], [0.0, 1.0], 1.0) == 0


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      1775 |      82418 |       numpy",
        "import time:     11813 |     117631 |     ptrig.core",
        "import time:       911 |     131843 |   ptrig",
        "import time:      3279 |     139848 | ptrig.cli",
    ])
    numpy_s, ptrig_s = measure.importtime_split(text)
    assert numpy_s == pytest.approx(0.082418)
    assert ptrig_s == pytest.approx(0.139848 - 0.082418)


# ---------------------------------------------------------------------------
# oracle


P2 = {
    "sin_p": math.sin, "cos_p": math.cos, "tan_p": math.tan,
    "sinh_p": math.sinh, "cosh_p": math.cosh, "tanh_p": math.tanh,
    "arcsin_p": math.asin,
}


@pytest.mark.parametrize("fn", sorted(P2))
def test_oracle_brackets_closed_forms_at_p2(fn):
    x = 0.7
    v = P2[fn](x)
    err = 1e-14 * max(1.0, abs(v))
    assert oracle.encloses(fn, 2.0, x, v, err)
    assert not oracle.encloses(fn, 2.0, x, v + 1e3 * err, err)


def test_oracle_clamps_at_range_ends():
    half = math.pi / 2
    assert oracle.encloses("sin_p", 2.0, half, 1.0, 1e-15)
    assert oracle.encloses("cos_p", 2.0, half, 0.0, 1e-12)
    assert oracle.encloses("tanh_p", 2.0, 30.0, 1.0, 1e-12)


# ---------------------------------------------------------------------------
# tracer and the run command (child interpreters)


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _trace(*argv) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", *argv],
        capture_output=True, check=True, env=_env(), cwd=ROOT,
    ).stdout
    summary = json.loads(out)
    names = summary["names"]
    summary["calls"] = {}
    for i in summary["span_name"]:
        summary["calls"][names[i]] = summary["calls"].get(names[i], 0) + 1
    return summary


def test_traced_counts_reproduce_seed_quadrature_figures():
    """The seed program's integrate calls for verify-all (2,952 at p = 3.7,
    3,116 at p = 3); a change to quadrature moves these on purpose."""
    a = _trace("verify", "--claim", "all", "--p", "3.7", "--format", "json")
    assert a["calls"]["numerics.integrate"] == 2952
    b = _trace("verify", "--claim", "all", "--p", "3.7", "--format", "json")
    assert (a["counters"], a["caches"], a["calls"], a["digest"]) == (
        b["counters"], b["caches"], b["calls"], b["digest"])
    c = _trace("verify", "--claim", "all", "--p", "3", "--format", "json")
    assert c["calls"]["numerics.integrate"] == 3116


def test_tracer_patches_names_bound_by_from_import():
    t = _trace("table", "--fn", "cosh_p", "--p", "3", "--n", "5", "--format", "csv")
    assert t["rc"] == 0
    # cli._POINT_FNS holds core.cosh_p; core calls _sinh_raw by its global.
    assert t["calls"]["core.cosh_p"] == 5
    assert t["calls"]["core.sinh_raw"] == 5
    roots = [i for i, par in enumerate(t["span_parent"]) if par == -1]
    assert [t["names"][t["span_name"][i]] for i in roots] == ["cli.main"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, env=env, timeout=180,
    )
    assert p.returncode != 0
    assert p.stdout == b""


def test_inconclusive_claims_are_reported_but_not_failed_operations():
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_sweep", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=ROOT, timeout=180, check=True,
    )
    lines = p.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 10 * workloads.VERIFY_CYCLE
    (ratio,) = [ln for ln in lines if ln.startswith("fail_ratio = ")]
    assert " inconclusive / " in ratio
