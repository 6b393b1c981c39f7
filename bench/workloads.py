"""Seeded inputs for the three workloads; every function is pure in its seed.

Parameters are stratified: each cycle of requests draws one p from each of
k equal slices of the log-p range.  A run that completes whole cycles
therefore covers the range evenly whatever the seed, which keeps the
run-to-run spread of the medians small without narrowing the range.
"""

from __future__ import annotations

import math
import random

VERIFY_P = (2.0, 24.0)  # the certified range of every claim
VERIFY_CYCLE = 8

TABLE_P = (1.1, 24.0)
TABLE_FNS = ("sin_p", "cos_p", "tan_p", "sinh_p", "cosh_p", "tanh_p")
TABLE_N = 1000

POINT_P = (1.1, 24.0)
POINT_P_COUNT = 4
POINT_FNS = ("sin_p", "cos_p", "sinh_p", "cosh_p", "tanh_p", "arcsin_p")
POINT_SESSION_CALLS = 30_000
POINT_REPEAT = 0.8
POINT_HYP_WINDOW = 3.0
_CIRCULAR = frozenset({"sin_p", "cos_p"})


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """k log-uniform draws from [lo, hi], one per equal slice of log p, shuffled."""
    a, b = math.log(lo), math.log(hi)
    ps = [math.exp(a + (b - a) * (i + rng.random()) / k) for i in range(k)]
    rng.shuffle(ps)
    return ps


def verify_cycle(seed: int, cycle: int) -> list:
    """argv lists of one cycle of ``verify --claim all`` commands."""
    rng = random.Random(f"verify_sweep/{seed}/{cycle}")
    return [
        ["verify", "--claim", "all", "--p", repr(p), "--format", "json"]
        for p in _strata(rng, VERIFY_CYCLE, *VERIFY_P)
    ]


def table_cycle(seed: int, cycle: int) -> list:
    """argv lists of one cycle of ``table`` commands, one per function.

    Functions take the slices of log p in a Latin-square rotation (function j
    gets slice j + cycle), so any run of whole cycles pairs the same
    functions with the same slices; the seed jitters p inside each slice.
    """
    rng = random.Random(f"table_scan/{seed}/{cycle}")
    k = len(TABLE_FNS)
    a, b = math.log(TABLE_P[0]), math.log(TABLE_P[1])
    argvs = []
    for j, fn in enumerate(TABLE_FNS):
        p = math.exp(a + (b - a) * ((j + cycle) % k + rng.random()) / k)
        argvs.append(["table", "--fn", fn, "--p", repr(p), "--n", str(TABLE_N), "--format", "csv"])
    return argvs


def half_period(p: float) -> float:
    """pi_p / 2 from its closed form pi / (p sin(pi/p))."""
    return math.pi / (p * math.sin(math.pi / p))


def _new_point(rng: random.Random, ps: list) -> tuple:
    fn = rng.choice(POINT_FNS)
    p = rng.choice(ps)
    u = rng.uniform(0.001, 0.999)
    if fn in _CIRCULAR:
        x = u * half_period(p)
    elif fn == "arcsin_p":
        x = u
    else:
        x = u * POINT_HYP_WINDOW
    return fn, p, x


def pointwise_session(seed: int, session: int):
    """Yield the (fn, p, x) calls of one library session.

    A handful of p values per session; each call repeats an earlier distinct
    triple with probability POINT_REPEAT (a solver re-evaluating its fixed
    nodes), otherwise asks for a new point.
    """
    rng = random.Random(f"pointwise_mix/{seed}/{session}")
    ps = sorted(_strata(rng, POINT_P_COUNT, *POINT_P))
    seen: list = []
    for _ in range(POINT_SESSION_CALLS):
        if seen and rng.random() < POINT_REPEAT:
            yield seen[rng.randrange(len(seen))]
        else:
            call = _new_point(rng, ps)
            seen.append(call)
            yield call
