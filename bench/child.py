"""Child-process side of the benchmark; each mode runs in a fresh interpreter.

    python3 bench/child.py check ARGV...          ptrig.cli.main(ARGV) with output-check hooks
    python3 bench/child.py trace ARGV...          ptrig.cli.main(ARGV) with layer tracing
    python3 bench/child.py calls SEED SESSION     one pointwise_mix library session
    python3 bench/child.py calls SEED SESSION trace   the same session, traced

The repository's ``src`` must be on PYTHONPATH.  In the CLI modes the
command's stdout goes to a hashing sink; every mode prints one JSON summary
line on its real stdout when it ends.

Tracing wraps functions at the module boundaries from outside: each wrapped
call records one span (name, parent, request, start, end) in memory, and the
spans are written out with the summary.  A name that another module bound
with ``from ... import`` is replaced in every ptrig module that holds it, and
in module-level dicts such as ``cli._POINT_FNS``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
from array import array

import numpy as np

from measure import bisection_steps

# A session times reference() before every REF_EVERY_CALLS calls and once at
# the end, so each block of calls is bracketed by two measures of machine speed.
REF_EVERY_CALLS = 1000

# (layer, module, functions).  Argument normalisers (_pval, _tols) and
# one-line math helpers (_log_cosh) are left unwrapped; their cost is
# attributed to the caller.
BOUNDARIES = (
    ("cli", "ptrig.cli", ("main",)),
    ("inequalities", "ptrig.inequalities", (
        "verify_claim", "verify_chain", "verify_monotone", "_verify_positive",
        "bounds_sandwich", "sharp_constants", "is_exploratory", "grid_points",
        "thm1_f", "thm2_g", "lem22_f", "lem23_g", "lem24_gap", "_chain_point",
    )),
    ("series", "ptrig.series", (
        "primitives", "zp", "zp_eval", "zp_trunc_err", "zero_coeff",
        "inverse_coeffs", "hyper_inverse_coeffs",
    )),
    ("core", "ptrig.core", (
        "pi_p", "arcsin_p", "arsinh_p", "sin_p", "cos_p", "tan_p", "sinh_p",
        "cosh_p", "tanh_p", "d_sin_p", "d_cos_p", "d_sinh_p", "d_cosh_p",
        "d_tanh_p", "_domain_upper", "_sin_state", "_sinh_raw",
        "_endpoint_state", "_arcsin_quad", "_arsinh_quad",
    )),
    ("numerics", "ptrig.numerics", ("integrate", "invert_monotone")),
)

# lru caches whose hit and miss counts are reported, by group.
CACHES = (
    ("state_cache", "ptrig.core", ("_sin_state", "_sinh_raw")),
    ("quad_cache", "ptrig.core", ("_arcsin_quad", "_arsinh_quad")),
)

COUNTERS = (
    "numerics.integrate.nodes",
    "numerics.invert_monotone.f_evals",
    "numerics.invert_monotone.newton_steps",
    "numerics.invert_monotone.bisections",
)


def patch_everywhere(orig, replacement) -> None:
    """Replace every reference to ``orig`` held by a ptrig module."""
    for name, mod in list(sys.modules.items()):
        if name != "ptrig" and not name.startswith("ptrig."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
            elif type(val) is dict:
                for dkey, dval in list(val.items()):
                    if dval is orig:
                        val[dkey] = replacement


class Tracer:
    """Span recorder and work counters for one child process."""

    def __init__(self) -> None:
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list = []
        self.request = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.caches: dict = {}

    def span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _integrate(self, orig):
        counters = self.counters

        def integrate(f, *args, **kwargs):
            @functools.wraps(f)  # keeps f's signature, which integrate inspects
            def counted(*fargs):
                counters["numerics.integrate.nodes"] += getattr(fargs[0], "size", 1)
                return f(*fargs)

            return orig(counted, *args, **kwargs)

        return integrate

    def _invert(self, orig):
        counters = self.counters

        def invert_monotone(f, target, lo, hi, *args, **kwargs):
            points, values = [], []

            def f_counted(x):
                v = f(x)
                points.append(x)
                values.append(float(v))
                return v

            deriv = kwargs.get("deriv", args[0] if args else None)
            if deriv is not None:
                def d_counted(x):
                    counters["numerics.invert_monotone.newton_steps"] += 1
                    return deriv(x)

                if "deriv" in kwargs:
                    kwargs["deriv"] = d_counted
                else:
                    args = (d_counted,) + args[1:]
            try:
                return orig(f_counted, target, lo, hi, *args, **kwargs)
            finally:
                counters["numerics.invert_monotone.f_evals"] += len(points)
                counters["numerics.invert_monotone.bisections"] += bisection_steps(
                    points, values, target
                )

        return invert_monotone

    def install(self) -> None:
        import ptrig.cli  # noqa: F401  -- every ptrig module is loaded before patching

        for group, modname, funcs in CACHES:
            mod = sys.modules[modname]
            self.caches[group] = [getattr(mod, f) for f in funcs if hasattr(mod, f)]
        hooks = {"integrate": self._integrate, "invert_monotone": self._invert}
        for layer, modname, funcs in BOUNDARIES:
            mod = sys.modules[modname]
            for func in funcs:
                orig = getattr(mod, func, None)
                if orig is None:
                    continue
                inner = hooks[func](orig) if func in hooks else orig
                patch_everywhere(orig, self.span(f"{layer}.{func.lstrip('_')}", inner))

    def summary(self) -> dict:
        caches = {}
        for group, fns in self.caches.items():
            infos = [fn.cache_info() for fn in fns if hasattr(fn, "cache_info")]
            caches[group] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        return {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_request": self.span_request.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
            "counters": self.counters,
            "caches": caches,
        }


def install_checks() -> list:
    """Hooks that count points whose margin lies below minus its budget.

    Monotone claims report such points as verdict "violated"; chain points
    and the positivity functional carry their budgets only in memory.
    """
    import ptrig.cli  # noqa: F401

    ineq = sys.modules["ptrig.inequalities"]
    violations = [0]
    chain_point = getattr(ineq, "_chain_point", None)
    gap = getattr(ineq, "lem24_gap", None)

    if chain_point is not None:
        def checked_chain_point(*args, **kwargs):
            values, margins, budgets = chain_point(*args, **kwargs)
            violations[0] += sum(1 for m, b in zip(margins, budgets) if m < -b)
            return values, margins, budgets

        patch_everywhere(chain_point, checked_chain_point)
    if gap is not None:
        def checked_gap(*args, **kwargs):
            ev = gap(*args, **kwargs)
            violations[0] += ev.value < -ev.abs_err
            return ev

        patch_everywhere(gap, checked_gap)
    return violations


class _HashSink(io.RawIOBase):
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.nbytes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.nbytes += len(b)
        return len(b)


def run_cli(argv: list) -> dict:
    import ptrig.cli

    sink = _HashSink()
    real = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    error = None
    try:
        rc = ptrig.cli.main(argv)
    except Exception as exc:  # reported to the parent as a failed command
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout.flush()
        sys.stdout = real
    return {"rc": rc, "error": error, "digest": sink.sha.hexdigest(), "stdout_bytes": sink.nbytes}


# The reference's lookup half: a table keyed like the program's own caches,
# (name, p, x), and too large for a core's private caches, so that the
# reference slows down under memory contention from other tenants as the
# program's cache lookups do, and not only under contention for the core.
REF_TABLE_KEYS = 40_000
REF_LOOKUPS = 5_000


@functools.cache
def _ref_table() -> tuple:
    import random

    keys = [("ref", i * 7919 % 40009, float(i)) for i in range(REF_TABLE_KEYS)]
    table = dict.fromkeys(keys, (0.0, 0.0))
    random.Random(0).shuffle(keys)
    return table, keys, [0]


def _ref_lookup(table: dict, name: str, p: float, x: float, *, tol=None):
    if p <= 1.0:
        raise ValueError(p)
    return table.get((name, p, x))


def reference() -> int:
    """Nanoseconds for a fixed task that does not touch the program (a few
    milliseconds): a Python loop and numpy arithmetic, then REF_LOOKUPS
    keyword calls that each look up a tuple key at a random place in a
    table."""
    table, keys, pos = _ref_table()
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(45000):
        s += i * i % 7
    a = np.arange(20000.0)
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    for name, k, x in keys[pos[0]:pos[0] + REF_LOOKUPS]:
        _ref_lookup(table, name, 2.0 + k, x, tol=1e-10)
    pos[0] = (pos[0] + REF_LOOKUPS) % (REF_TABLE_KEYS - REF_LOOKUPS)
    return time.perf_counter_ns() - t0


def run_session(seed: int, session: int, tracer=None) -> dict:
    import ptrig
    from workloads import POINT_FNS, pointwise_session

    fns = {name: getattr(ptrig, name) for name in POINT_FNS}
    latencies = array("q")
    refs = array("q")
    first: dict = {}
    errors: list = []
    mismatches = 0
    clock = time.perf_counter_ns
    for i, (fn, p, x) in enumerate(pointwise_session(seed, session)):
        if i % REF_EVERY_CALLS == 0:
            refs.append(reference())
        f = fns[fn]
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            ev = f(x, p)
        except Exception as exc:  # a call that raises is a failed operation
            latencies.append(clock() - t0)
            errors.append(f"{fn}({x!r}, {p!r}): {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        got = (ev.value, ev.abs_err)
        if first.setdefault((fn, p, x), got) != got:
            mismatches += 1
    refs.append(reference())
    return {
        "latency_ns": latencies.tolist(),
        "ref_ns": refs.tolist(),
        "ref_every": REF_EVERY_CALLS,
        "distinct": [[fn, p, x, v, e] for (fn, p, x), (v, e) in first.items()],
        "errors": errors,
        "mismatches": mismatches,
    }


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    tracer = None
    if mode == "trace" or (mode == "calls" and rest[2:] == ["trace"]):
        tracer = Tracer()
        tracer.install()
    if mode == "calls":
        out = run_session(int(rest[0]), int(rest[1]), tracer)
    elif mode == "check":
        violations = install_checks()
        out = run_cli(rest)
        out["violations"] = violations[0]
    elif mode == "trace":
        out = run_cli(rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if tracer is not None:
        out.update(tracer.summary())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
