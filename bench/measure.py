"""Pure arithmetic shared by the benchmark: medians, the tail-percentile rule,
span self time, and parsing of ``python -X importtime`` output."""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  The rule reports the highest one
# that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: list, q: float) -> float:
    """q-th percentile of an ascending, non-empty list, interpolated linearly
    between the closest ranks (so the 50th is the median)."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def median(values) -> float:
    return percentile(sorted(values), 50.0)


def tail_percentile(values) -> tuple:
    """(q, value) for the highest q in TAIL_LADDER with at least
    TAIL_MIN_BEYOND of the samples above it; the median when none qualifies."""
    v = sorted(values)
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if len(v) * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            best = q
    return best, percentile(v, best)


def self_times(starts: list, ends: list, parents: list) -> list:
    """Per-span self time: duration minus the part of it its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Child
    intervals are merged before subtraction, so overlapping children are not
    subtracted twice, and each child is clipped to its parent's interval.
    """
    children: dict = {}
    for i, par in enumerate(parents):
        if par >= 0:
            children.setdefault(par, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda k: starts[k]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def bisection_steps(points: list, values: list, target: float) -> int:
    """Bisection fallbacks of one invert_monotone call, from the points its f saw.

    invert_monotone evaluates f at lo, at hi, at their midpoint, and then at
    either a Newton candidate or the midpoint of the shrunken bracket.  An
    iterate after the first that sits exactly on the current midpoint is
    counted as a bisection.
    """
    if len(points) < 4:
        return 0
    lo, hi = points[0], points[1]
    increasing = values[1] > values[0]
    steps = 0
    for k in range(2, len(points)):
        x = points[k]
        if k >= 3 and x == 0.5 * (lo + hi):
            steps += 1
        if (values[k] - target < 0.0) == increasing:
            lo = x
        else:
            hi = x
    return steps


def importtime_split(stderr_text: str) -> tuple:
    """(numpy_s, ptrig_s) from ``-X importtime`` output of ``import ptrig.cli``.

    numpy_s is numpy's cumulative import time.  ptrig_s is the cumulative time
    of the top-level ``ptrig.cli`` import minus the numpy share nested in it.
    """
    cumulative = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:].rstrip()  # one separator space, then two per nesting level
        depth = (len(name) - len(name.lstrip())) // 2
        key = (name.strip(), depth)
        cumulative[key] = int(parts[1])
    numpy_us = max((us for (name, _), us in cumulative.items() if name == "numpy"), default=0)
    cli_us = cumulative.get(("ptrig.cli", 0))
    if cli_us is None:
        raise ValueError("no top-level ptrig.cli entry in importtime output")
    return numpy_us / 1e6, (cli_us - numpy_us) / 1e6
