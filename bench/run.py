"""The ptrig benchmark.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 28 --trace 0

Run from the repository root; the program is imported from ``src``.  Load
comes from one closed-loop client: each request (a fresh ``ptrig`` CLI
process, or one library session of calls) starts after the previous one
ends.  Requests come in seeded cycles (see workloads.py); a cycle that starts
before ``--seconds`` of request time have passed is completed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed,
seed-determined share of the workload under the tracer in child.py and
prints the per-layer metrics.  Output checks run outside the timed region
in both modes.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  Exit
status: 0 when every check passed, 1 when an output was wrong (the JSON is
still printed), 2 when the program could not be set up (nothing printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import measure
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

CONSOLE = "import sys; from ptrig.cli import main; sys.exit(main())"  # the ptrig entry point
# Machine-speed reference: a fixed task in a fresh interpreter that does not
# see the program (no src on its path).  On a shared machine the speed of all
# CPU-bound work drifts by 10-50%, in phases of about ten seconds.  A
# reference probe runs before the first request and after every request, and
# each request's time is divided by the speed measured just around it:
# speed = median(the walls of the probes before and after) / REF_NOMINAL_S.
# REF_NOMINAL_S is about the reference's wall time on the unloaded machine, so
# scaled and raw figures are close.
REF_CODE = (
    "import numpy as np\n"
    "s = 0\n"
    "for i in range(300000): s += i * i % 7\n"
    "a = np.arange(20000.0)\n"
    "for k in range(200): a = np.sqrt(a + 1.0)\n"
)
REF_NOMINAL_S = 0.2
REF_FIRST = 3        # reference probes before the first request
SETUP_EVERY_S = 1.5  # one fresh-import probe per 1.5 s of request time
# A library session runs for seconds, so it times child.reference() in
# process every child.REF_EVERY_CALLS calls instead; this is that task's
# duration on the unloaded machine.
SESSION_REF_NOMINAL_S = 0.008
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
CLAIMS_PER_VERIFY = 10
TABLE_ORACLE_ROWS = 8
SESSION_ORACLE_CALLS = 100
FUNCTIONALS = ("thm1_f", "thm2_g", "lem22_f", "lem23_g", "lem24_gap")


class SetupError(RuntimeError):
    """The program under test cannot be imported or run from this directory."""


class Child(NamedTuple):
    wall_s: float
    rc: int
    out: bytes
    err: bytes
    maxrss_kb: int


def _drain(proc: subprocess.Popen, timeout: float) -> tuple:
    """Read stdout and stderr to EOF without threads."""
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child {proc.args[:4]} ran past {timeout} s")
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(argv: list, env: dict) -> Child:
    """Run one child to completion; wall time and max RSS come from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = _drain(proc, CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, out, err, usage.ru_maxrss)


class Bench:
    """One benchmark run: seed, time budget, child environment, verdicts."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.wrong: list = []  # wrong answers: any entry makes the run incorrect
        self.setup_walls: list = []   # raw
        self.setup_scaled: list = []  # each divided by the speed around it
        self.ref_walls: list = []
        self.ref_pos: list = []  # requests completed when each reference probe ran
        self.ref_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.n_done = 0
        self._setup_due = 1.0  # a set-up probe before the first request

    def cli(self, argv: list) -> Child:
        return run_child([sys.executable, "-c", CONSOLE, *argv], self.env)

    def child(self, *args) -> tuple:
        c = run_child([sys.executable, str(BENCH / "child.py"), *map(str, args)], self.env)
        if c.rc != 0:
            raise RuntimeError(f"child.py {args[:2]} exited {c.rc}: {c.err.decode()[-2000:]}")
        return c, json.loads(c.out)

    def session(self, session: int) -> Child:
        return self.child("calls", self.seed, session)[0]

    def probe(self, request_s: float, refs: int = 1) -> None:
        """Reference probes after a request, so that every request has one
        just before and one just after it; set-up probes in proportion to
        request time, so they sample the same machine phases as requests."""
        for _ in range(refs):
            self.ref_walls.append(run_child([sys.executable, "-c", REF_CODE], self.ref_env).wall_s)
            self.ref_pos.append(self.n_done)
        self._setup_due += request_s / SETUP_EVERY_S
        while self._setup_due >= 1.0:
            wall = run_child([sys.executable, "-c", "import ptrig.cli"], self.env).wall_s
            self.setup_walls.append(wall)
            self.setup_scaled.append(wall / self.local_speed(self.n_done, self.n_done))
            self._setup_due -= 1.0

    def local_speed(self, first: int, last: int) -> float:
        """Machine slowdown from the reference probes run when between
        ``first`` and ``last`` requests had completed."""
        walls = [w for w, pos in zip(self.ref_walls, self.ref_pos) if first <= pos <= last]
        return measure.median(walls) / REF_NOMINAL_S

    def speed(self) -> float:
        """Machine slowdown over the whole run, for the human lines."""
        return measure.median(self.ref_walls) / REF_NOMINAL_S

    def closed_loop(self, cycle_fn, run_one) -> tuple:
        """Run whole cycles of requests until the time budget is spent.

        Returns (requests, runs, speeds): speeds[j] is the machine slowdown
        measured by the probes just before and after request j.  The budget
        counts raw request time, so a slow phase of the machine runs fewer
        cycles rather than a longer run.
        """
        requests, runs, speeds = [], [], []
        self.probe(0.0, REF_FIRST)
        busy = 0.0
        cycle = 0
        while busy < self.seconds:
            for req in cycle_fn(self.seed, cycle):
                requests.append(req)
                runs.append(run_one(req))
                self.n_done += 1
                self.probe(runs[-1].wall_s)
                speeds.append(self.local_speed(self.n_done - 1, self.n_done))
                busy += runs[-1].wall_s
            cycle += 1
        return requests, runs, speeds

    def traced_cycle(self, argvs: list) -> tuple:
        """Each command traced, then untraced, interleaved so both see the
        same machine phases.  Returns (traced, runs)."""
        traced, runs = [], []
        for argv in argvs:
            traced.append(self.child("trace", *argv))
            runs.append(self.cli(argv))
        return traced, runs

    def build(self) -> None:
        """Import the program once, untimed, so bytecode is compiled."""
        if not (ROOT / "src" / "ptrig" / "cli.py").is_file():
            raise SetupError(f"no program source under {ROOT / 'src'}")
        c = run_child([sys.executable, "-c", "import ptrig.cli"], self.env)
        if c.rc != 0:
            raise SetupError(f"import ptrig.cli failed: {c.err.decode()[-2000:]}")

    def import_split(self) -> tuple:
        numpy_s, ptrig_s = [], []
        for _ in range(IMPORTTIME_REPEATS):
            c = run_child([sys.executable, "-X", "importtime", "-c", "import ptrig.cli"], self.env)
            n, p = measure.importtime_split(c.err.decode())
            numpy_s.append(n)
            ptrig_s.append(p)
        return measure.median(numpy_s), measure.median(ptrig_s)


def _argv_value(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _time_metrics(label: str, unit: str, items: int, item_name: str,
                  raw_s: list, scaled_s: list, lines: list) -> dict:
    """Throughput, median and tail of one workload's speed-scaled request
    times (seconds); the human lines also give the raw median."""
    scale = {"s": 1.0, "us": 1e6}[unit]
    q, tail = measure.tail_percentile(scaled_s)
    p50 = measure.median(scaled_s)
    rate = items / sum(scaled_s)
    lines += [
        f"{item_name}_per_s = {rate:.6g} 1/s",
        f"{label}_p50_{unit} = {p50 * scale:.6g} {unit}  (median of {len(scaled_s)};"
        f" raw {measure.median(raw_s) * scale:.6g} {unit})",
        f"{label}_p{q:g}_{unit} = {tail * scale:.6g} {unit}  (highest of"
        f" p{'/p'.join(f'{v:g}' for v in measure.TAIL_LADDER)} with"
        f" >= {measure.TAIL_MIN_BEYOND} of {len(scaled_s)} samples beyond)",
    ]
    return {"items_per_s": rate, "request_p50_ms": p50 * 1e3, "request_tail_ms": tail * 1e3}


def _digest(c: Child) -> str:
    return hashlib.sha256(c.out).hexdigest()


def _cli_runs(b: Bench, cycle_fn, trace: bool) -> tuple:
    """(argvs, runs, speeds, traced) for a CLI workload; a traced command
    must print the same bytes and exit with the same status as its untraced
    run.  Traced runs are not scaled."""
    if trace:
        argvs = cycle_fn(b.seed, 0)
        traced, runs = b.traced_cycle(argvs)
        for argv, r, (_, t) in zip(argvs, runs, traced):
            if (t["digest"], t["rc"]) != (_digest(r), r.rc):
                b.wrong.append(f"traced and untraced runs differ for {argv}")
        return argvs, runs, [1.0] * len(runs), traced
    argvs, runs, speeds = b.closed_loop(cycle_fn, b.cli)
    return argvs, runs, speeds, []


def verify_sweep(b: Bench, trace: bool) -> dict:
    lines = []
    argvs, runs, speeds, traced = _cli_runs(b, workloads.verify_cycle, trace)

    # An inconclusive claim (a report with passed: false, the known z-floor
    # defect at p >= 4) is a completed command with an honest answer, not a
    # failed operation.  It is counted apart, printed in fail_ratio on the
    # human lines and reported as inequalities.inconclusive_claims by a
    # traced run.  failed counts only commands that errored or printed
    # output that could not be read.
    attempted = failed = inconclusive = claims = 0
    for argv, r in zip(argvs, runs):
        attempted += CLAIMS_PER_VERIFY
        if r.rc not in (0, 1):
            failed += CLAIMS_PER_VERIFY
            lines.append(f"  exit {r.rc}: {argv}: {r.err.decode().strip()[-200:]}")
            continue
        try:
            reports = json.loads(r.out)
        except ValueError:
            b.wrong.append(f"stdout is not JSON for {argv}")
            failed += CLAIMS_PER_VERIFY
            continue
        if not isinstance(reports, list) or len(reports) != CLAIMS_PER_VERIFY:
            b.wrong.append(f"expected {CLAIMS_PER_VERIFY} reports for {argv}")
            continue
        for rep in reports:
            claims += 1
            if rep["monotone_verdict"] == "violated":
                b.wrong.append(f"{rep['claim']} violated at p={rep['p']}")
            inconclusive += not rep["passed"]
        if (r.rc == 0) != all(rep["passed"] for rep in reports):
            b.wrong.append(f"exit status {r.rc} disagrees with the reports for {argv}")

    # Re-run one seeded command under the check hooks: its stdout must be
    # byte-identical (C13), and chain and positivity budgets, which exist
    # only in memory, must not be exceeded by a negative margin.
    pick = random.Random(f"check/{b.seed}").randrange(len(argvs))
    _, chk = b.child("check", *argvs[pick])
    if (chk["digest"], chk["rc"]) != (_digest(runs[pick]), runs[pick].rc):
        b.wrong.append(f"stdout or exit status not reproducible for {argvs[pick]}")
    if chk.get("violations"):
        b.wrong.append(f"{chk['violations']} margins below minus their budget for {argvs[pick]}")

    walls = [r.wall_s for r in runs]
    ps = [float(_argv_value(a, "--p")) for a in argvs]
    lines.insert(0, (
        f"verify_sweep seed={b.seed}: {len(argvs)} commands, p in [{min(ps):.3g}, {max(ps):.3g}],"
        f" {claims} claims in {sum(walls):.2f} s"
    ))
    metrics = _time_metrics("verify", "s", claims, "claims", walls,
                            [w / s for w, s in zip(walls, speeds)], lines)
    return {"lines": lines, "runs": runs, "traced": traced, "attempted": attempted,
            "failed": failed, "inconclusive": inconclusive, "metrics": metrics}


def table_scan(b: Bench, trace: bool) -> dict:
    import oracle

    lines = []
    argvs, runs, speeds, traced = _cli_runs(b, workloads.table_cycle, trace)

    attempted = failed = rows_out = oracle_checked = 0
    for i, (argv, r) in enumerate(zip(argvs, runs)):
        n = int(_argv_value(argv, "--n"))
        attempted += n
        if r.rc != 0:
            failed += n
            lines.append(f"  exit {r.rc}: {argv}: {r.err.decode().strip()[-200:]}")
            continue
        text = r.out.decode().splitlines()
        if not text or text[0] != "x,value,abs_err" or len(text) - 1 > n:
            b.wrong.append(f"malformed table for {argv}")
            continue
        rows = []
        for row in text[1:]:
            try:
                rows.append(tuple(float(v) for v in row.split(",")))
            except ValueError:
                failed += 1
        failed += n - (len(text) - 1)
        rows_out += len(text) - 1
        fn, p = _argv_value(argv, "--fn"), float(_argv_value(argv, "--p"))
        rng = random.Random(f"table_oracle/{b.seed}/{i}")
        for x, v, e in rng.sample(rows, min(TABLE_ORACLE_ROWS, len(rows))):
            oracle_checked += 1
            failed += not oracle.encloses(fn, p, x, v, e)

    walls = [r.wall_s for r in runs]
    lines.insert(0, (
        f"table_scan seed={b.seed}: {len(argvs)} commands over "
        f"{len(set(_argv_value(a, '--fn') for a in argvs))} functions,"
        f" {rows_out} rows in {sum(walls):.2f} s, {oracle_checked} rows checked against mpmath"
    ))
    metrics = _time_metrics("table", "s", rows_out, "rows", walls,
                            [w / s for w, s in zip(walls, speeds)], lines)
    return {"lines": lines, "runs": runs, "traced": traced, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _session_cycle(seed: int, cycle: int) -> list:
    return [cycle]


def pointwise_mix(b: Bench, trace: bool) -> dict:
    import oracle

    lines = []
    traced = []
    if trace:
        traced = [b.child("calls", b.seed, 0, "trace")]
        runs = [b.session(0)]
    else:
        _, runs, _ = b.closed_loop(_session_cycle, b.session)

    attempted = failed = repeats = 0
    latencies, scaled = [], []
    for k, c in enumerate(runs):
        s = json.loads(c.out)
        if traced and traced[0][1]["distinct"] != s["distinct"]:
            b.wrong.append("traced and untraced session results differ")
        attempted += len(s["latency_ns"])
        latencies += [t / 1e9 for t in s["latency_ns"]]
        if trace:
            scaled += [t / 1e9 for t in s["latency_ns"]]
        else:
            # Each block of calls is divided by the speed of the in-process
            # reference runs just before and after it.
            ref, every = s["ref_ns"], s["ref_every"]
            block = [measure.median(ref[i:i + 2]) / 1e9 / SESSION_REF_NOMINAL_S
                     for i in range(len(ref) - 1)]
            scaled += [t / 1e9 / block[i // every] for i, t in enumerate(s["latency_ns"])]
        repeats += len(s["latency_ns"]) - len(s["distinct"])
        failed += len(s["errors"])
        lines.extend(f"  error: {e}" for e in s["errors"][:5])
        if s["mismatches"]:
            b.wrong.append(f"{s['mismatches']} repeated calls returned a different result")
        rng = random.Random(f"pointwise_oracle/{b.seed}/{k}")
        for fn, p, x, v, e in rng.sample(s["distinct"], min(SESSION_ORACLE_CALLS, len(s["distinct"]))):
            failed += not oracle.encloses(fn, p, x, v, e)

    lines.insert(0, (
        f"pointwise_mix seed={b.seed}: {len(runs)} sessions, {attempted} calls"
        f" ({repeats / attempted:.1%} repeats), {sum(latencies):.2f} s inside calls,"
        f" {len(runs) * SESSION_ORACLE_CALLS} results checked against mpmath"
    ))
    metrics = _time_metrics("call", "us", attempted, "calls", latencies, scaled, lines)
    return {"lines": lines, "runs": runs, "traced": traced, "attempted": attempted,
            "failed": failed, "metrics": metrics}


WORKLOADS = {"verify_sweep": verify_sweep, "table_scan": table_scan, "pointwise_mix": pointwise_mix}


def layer_metrics(traced: list, untraced_s: float, inconclusive: int) -> dict:
    """Per-layer metrics from the spans and counters of traced children, and
    the inconclusive claims of the untraced runs."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    counters: Counter = Counter()
    caches: dict = {"state_cache": [0, 0], "quad_cache": [0, 0]}
    stdout_bytes = 0
    traced_s = 0.0
    for child, t in traced:
        traced_s += child.wall_s
        stdout_bytes += t.get("stdout_bytes", 0)
        counters.update(t["counters"])
        for group, (hits, misses) in t["caches"].items():
            caches[group][0] += hits
            caches[group][1] += misses
        names = t["names"]
        selfs = measure.self_times(t["span_start"], t["span_end"], t["span_parent"])
        for ni, st in zip(t["span_name"], selfs):
            name = names[ni]
            calls[name] += 1
            self_ns[name] += st
            self_ns[name.split(".")[0]] += st

    m = {
        "numerics.integrate.calls": calls["numerics.integrate"],
        "numerics.integrate.nodes": counters["numerics.integrate.nodes"],
        "numerics.integrate.self_s": self_ns["numerics.integrate"] / 1e9,
        "numerics.invert_monotone.calls": calls["numerics.invert_monotone"],
        "numerics.invert_monotone.f_evals": counters["numerics.invert_monotone.f_evals"],
        "numerics.invert_monotone.newton_steps": counters["numerics.invert_monotone.newton_steps"],
        "numerics.invert_monotone.bisections": counters["numerics.invert_monotone.bisections"],
        "numerics.invert_monotone.self_s": self_ns["numerics.invert_monotone"] / 1e9,
        "core.sin_state.calls": calls["core.sin_state"],
        "core.sinh_raw.calls": calls["core.sinh_raw"],
        "core.endpoint_state.calls": calls["core.endpoint_state"],
        "core.self_s": self_ns["core"] / 1e9,
    }
    for group, (hits, misses) in caches.items():
        m[f"core.{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m[f"core.{group}.hits"] = hits
        m[f"core.{group}.misses"] = misses
    m.update({
        "series.primitives.calls": calls["series.primitives"],
        "series.zp_eval.calls": calls["series.zp_eval"],
        "series.self_s": self_ns["series"] / 1e9,
        "inequalities.verify_claim.calls": calls["inequalities.verify_claim"],
        "inequalities.functional.calls": sum(calls[f"inequalities.{f}"] for f in FUNCTIONALS),
        "inequalities.chain_point.calls": calls["inequalities.chain_point"],
        "inequalities.self_s": self_ns["inequalities"] / 1e9,
        "inequalities.inconclusive_claims": inconclusive,
        "cli.self_s": self_ns["cli"] / 1e9,
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # A stop signal unwinds like an exception, so run_child kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    b = Bench(args.seed, args.seconds)
    try:
        b.build()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    res = WORKLOADS[args.workload](b, bool(args.trace))
    lines = res["lines"]
    if args.trace:
        metrics = layer_metrics(res["traced"], sum(c.wall_s for c in res["runs"]),
                                res.get("inconclusive", 0))
        metrics["setup.numpy_import_s"], metrics["setup.ptrig_import_s"] = b.import_split()
        units = {name: _layer_unit(name) for name in metrics}
        lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    else:
        speed = b.speed()
        metrics = dict(res["metrics"])
        metrics["peak_rss_mb"] = max(c.maxrss_kb for c in res["runs"]) / 1024.0
        metrics["setup_s"] = measure.median(b.setup_scaled)
        units = {"items_per_s": "1/s", "request_p50_ms": "ms", "request_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        lines += [
            f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(b.setup_walls)} fresh"
            f" 'import ptrig.cli'; raw {measure.median(b.setup_walls):.6g} s)",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB"
            f"  (highest max RSS of {len(res['runs'])} children)",
            f"machine speed = {speed:.4g}  (median of {len(b.ref_walls)} reference runs"
            f" / {REF_NOMINAL_S} s); each timing above is divided by the speed"
            f" measured just around it",
        ]
    inconclusive = res.get("inconclusive", 0)
    lines.append(
        f"fail_ratio = {(res['failed'] + inconclusive) / res['attempted']:.6g}"
        f"  ({res['failed']} failed + {inconclusive} inconclusive / {res['attempted']} attempted)"
    )
    for w in b.wrong:
        lines.append(f"WRONG: {w}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not b.wrong,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not b.wrong else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
