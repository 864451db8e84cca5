"""Benchmark for preab: audit, decomposition and shrink workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload audit-rational --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times the workload's closed loop untraced,
scales each time to a nominal machine speed (see ``Pace``) and reports
the end-to-end metrics; with ``--trace 1`` it runs a fixed list
of ops once traced and once untraced and reports the per-layer metrics
(call counts from the traced pass repeat exactly at a given seed).
Every op's output is checked outside its timed interval.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
run's details.  The program is imported from ``src/`` of the checkout;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
ORACLE = os.path.join(BENCH_DIR, "oracle.json")
WORKLOAD_NAMES = ("audit-rational", "audit-latz", "decompose-wide", "shrink-strict")

# what every CLI call pays before doing any work
SETUP_CODE = ("import preab.cli\n"
              "from preab.backends import BACKENDS, get_backend\n"
              "for name in sorted(BACKENDS):\n"
              "    get_backend(name).opposite()\n")
SETUP_RUNS = 9
# every op must end this long after the run starts, so a run that meets a
# pathologically slow input still ends (with that op failed) well inside
# the three minutes a run may take
RUN_LIMIT_S = 150.0


# The host's speed drifts by tens of percent within a second, so every
# timed interval is scaled to a nominal speed: it is multiplied by REF_S
# over the time the reference unit took in samples during it (see
# Pace.scale).  REF_S is about what a unit takes on the machine in
# README.md, so scaled times read as seconds there.
REF_S = 2.0e-4
SAMPLE_EVERY_S = 0.02  # of process CPU time, between samples taken during ops
MIN_SAMPLES = 10  # an interval with fewer samples is scaled by its nearest ones
CLIP = 2.0  # a sample is counted as at most CLIP times the median of its set
PROBE_UNITS = 20  # samples taken before and after each set-up interpreter


def reference_unit():
    """A fixed piece of pure-Python work that uses none of the program.

    Its mix (Fraction arithmetic, small tuples, lists and dicts) is the
    mix the program spends its time in, so it slows down with the host
    as the program does.
    """
    acc = Fraction(0)
    table = {}
    for i in range(1, 13):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc = (acc + q) * Fraction(2, 3)
        table[i % 9] = (acc.numerator % 97, tuple(q * j for j in range(4)))
    return len(table)


class Pace:
    """Samples of the reference unit, to scale timed intervals to REF_S.

    While ``sampling``, a profiling timer interrupts the process every
    SAMPLE_EVERY_S of CPU time to take a sample, so a long op is sampled
    all through; ``own_time`` gives what those samples added to it.
    """

    def __init__(self):
        self.starts = array("d")  # perf_counter() at the start of each sample
        self.units = array("d")  # how long each took

    def sample(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()  # so that the program's heap does not slow the unit
        try:
            start = perf_counter()
            reference_unit()
            self.units.append(perf_counter() - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()

    def probe(self):
        for _ in range(PROBE_UNITS):
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def own_time(self, start, end):
        """Time spent in samples that started between start and end."""
        return sum(self.units[bisect.bisect_left(self.starts, start):
                              bisect.bisect_left(self.starts, end)])

    def scale(self, elapsed, start, end):
        """``elapsed``, measured between start and end, at the nominal speed.

        The host switches between fast and slow spells that last tens of
        milliseconds, so the interval is divided by the mean unit time of
        the samples taken during it, not their median.  A sample that the
        host preempted can read ten times the others; clipping it keeps
        one such sample from swaying a whole op.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            lo = max(lo - (MIN_SAMPLES - (hi - lo) + 1) // 2, 0)
            hi = min(lo + MIN_SAMPLES, len(self.units))
        near = self.units[lo:hi]
        cap = CLIP * statistics.median(near)
        return elapsed * REF_S / statistics.fmean(min(u, cap) for u in near)


class OpTimeout(Exception):
    """An op ran past the run's time limit."""


def _expire(signum, frame):
    raise OpTimeout(f"op still running {RUN_LIMIT_S:.0f} s after the run started")


CHECK_NAMES = tuple(f"{side}.{index}" for side in ("right", "left")
                    for index in ("i", "ii", "iii", "iv", "v", "vi", "vii")) + (
                        "strict", "semistable")
LAYER_NAMES = ("linalg", "lattice", "backends", "core", "conditions", "audit", "report", "cli")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr, traced_s, untraced_s, ops):
    """Name -> (value, unit) for every per-layer metric, from one traced pass."""
    c = tr.calls
    m = {}
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = (tr.layer_self(layer), "s")
        m[f"{layer}.calls"] = (tr.layer_calls(layer), "count")
    m["linalg.solve_right.calls"] = (c["linalg.solve_right"], "count")
    m["linalg.kernel_basis.calls"] = (c["linalg.kernel_basis"], "count")
    m["linalg.invert.calls"] = (c["linalg.invert"], "count")
    m["linalg.subspace_new.calls"] = (c["linalg.Subspace.__init__"], "count")
    m["linalg.ratmatrix_new.calls"] = (c["linalg.RatMatrix.__init__"], "count")
    m["lattice.column_hnf.calls"] = (c["lattice.column_hnf"], "count")
    m["lattice.saturate.calls"] = (c["lattice.saturate"], "count")
    m["lattice.smith.calls"] = (c["lattice.smith_with_transforms"], "count")
    m["lattice.intlattice_new.calls"] = (c["lattice.IntLattice.__init__"], "count")
    m["backends.kernel.calls"] = (c["backends.MatrixBackend.kernel"], "count")
    m["backends.cokernel.calls"] = (c["backends.MatrixBackend.cokernel"], "count")
    m["backends.kernel.unique_ratio"] = (tr.unique_ratio("backends.MatrixBackend.kernel"), "ratio")
    m["backends.cokernel.unique_ratio"] = (
        tr.unique_ratio("backends.MatrixBackend.cokernel"), "ratio")
    m["backends.make_morphism.calls"] = (c["backends.MatrixBackend.make_morphism"], "count")
    m["backends.divide.calls"] = (
        c["backends.MatrixBackend.divide_left"] + c["backends.MatrixBackend.divide_right"], "count")
    m["backends.is_iso.calls"] = (c["backends.MatrixBackend.is_iso"], "count")
    m["core.decompose.calls"] = (c["core.decompose"], "count")
    m["core.classify.calls"] = (c["core.classify"], "count")
    m["core.classify.unique_ratio"] = (tr.unique_ratio("core.classify"), "ratio")
    m["core.pushout.calls"] = (c["core.pushout"], "count")
    m["core.pullback.calls"] = (c["core.pullback"], "count")
    m["core.iso_compare.calls"] = (sum(c[f"core.{k}"] for k in (
        "subobject_iso", "quotient_iso", "is_pullback", "is_pushout")), "count")
    m["core.opposite_kernels.calls"] = (
        c["core.Opposite.kernel"] + c["core.Opposite.cokernel"], "count")
    for check in CHECK_NAMES:
        m[f"conditions.{check}.s"] = (tr.incl(f"conditions.{check}"), "s")
    m["audit.generate_s"] = (tr.incl("audit.generate_instance"), "s")
    m["audit.check_s"] = (
        tr.incl("audit._evaluate_condition_job") - tr.incl("audit.generate_instance"), "s")
    m["audit.strictness_s"] = (tr.incl("audit._evaluate_strictness_job"), "s")
    m["audit.probe_s"] = (tr.incl("audit._evaluate_probe_job"), "s")
    m["audit.fold_s"] = (tr.excl("audit.run_audit"), "s")
    m["audit.generate.attempts_per_instance"] = (
        _ratio(c["audit._generate_right"], c["audit.generate_instance"]), "ratio")
    m["audit.shrink_s"] = (tr.incl("audit.shrink"), "s")
    m["audit.shrink.calls"] = (c["audit.shrink"], "count")
    m["audit.shrink.checks_used"] = (tr.shrink_checks, "count")
    m["audit.shrink.accept_ratio"] = (_ratio(tr.shrink_accepts, tr.shrink_checks), "ratio")
    m["audit.shrink.size_ratio"] = (_ratio(tr.shrink_sizes[1], tr.shrink_sizes[0]), "ratio")
    m["report.emit_s"] = (
        tr.incl("report.ReportDocument.from_audit") + tr.incl("report.ReportDocument.emit"), "s")
    m["trace.spans"] = (tr.span_count(), "count")
    m["trace.ops_per_s"] = (_ratio(ops, traced_s), "1/s")
    m["trace.untraced_ops_per_s"] = (_ratio(ops, untraced_s), "1/s")
    m["trace.ops_per_s_ratio"] = (_ratio(untraced_s, traced_s), "ratio")
    return m


class Runner:
    """Runs, checks and times the ops of one workload at one seed."""

    def __init__(self, workload, seed, oracle, deadline=float("inf")):
        self.workload = workload
        self.deadline = deadline  # perf_counter() value by which every op must end
        self.expired = False
        self.seed = seed
        self.verdicts = oracle["verdicts"]
        self.digests = oracle["digests"].get(workload.name, {}).get(str(seed), [])
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.errors = []
        self.outputs = {}  # op index -> SHA-256 of its checked output

    def op(self, index, backend, tracer=None):
        """Run op ``index``; the (start, end) of its timed part, or None when it failed."""
        wl = self.workload
        op_seed = f"{wl.name}/{self.seed}/{index}"
        self.attempted += 1
        if self.deadline != float("inf"):
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - perf_counter(), 1e-3))
        try:
            inp = wl.prepare(op_seed, backend)
            if tracer:
                tracer.begin_op(op_seed)
            try:
                start = perf_counter()
                out = wl.run(inp)
                end = perf_counter()
            finally:
                if tracer:
                    tracer.end_op()
            digest = hashlib.sha256(wl.check(inp, out, self.verdicts)).hexdigest()
            self.outputs[index] = digest
            if isinstance(index, int) and index < len(self.digests):
                self.digests_checked += 1
                if digest != self.digests[index]:
                    raise ValueError("output digest differs from the oracle")
        except Exception as exc:  # one op's failure is counted, the run goes on
            self.failed += 1
            if isinstance(exc, OpTimeout):
                self.expired = True
            if len(self.errors) < 3:
                self.errors.append(f"{op_seed} ({backend}): {type(exc).__name__}: {exc}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return start, end

    def fixed_pass(self, tracer=None):
        """The first trace_rounds rounds of ops; total op time and failures."""
        wl = self.workload
        total, failed = 0.0, self.failed
        for i in range(wl.trace_rounds * len(wl.backends)):
            if self.expired:
                break
            timed = self.op(i, wl.backends[i % len(wl.backends)], tracer)
            if timed:
                total += timed[1] - timed[0]
        return total, self.failed - failed


def measure_setup(pace):
    """Median time, scaled, of a fresh interpreter importing preab and its backends."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    intervals = []
    for i in range(SETUP_RUNS + 1):  # the first run may compile bytecode; not counted
        pace.probe()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        end = perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace').strip()}")
        if i:
            intervals.append((start, end))
    pace.probe()
    return statistics.median(pace.scale(end - start, start, end) for start, end in intervals)


def tail(durations, pct):
    """The ``pct`` percentile of op times: (value, samples beyond it)."""
    xs = sorted(durations)
    k = min(max(math.ceil(pct / 100 * len(xs)), 1), len(xs)) - 1
    return xs[k], len(xs) - 1 - k


def timed_run(runner, seconds):
    wl = runner.workload
    pace = Pace()
    setup_s = measure_setup(pace)
    intervals = []  # (start, end) of each op that passed its checks
    with pace.sampling():
        runner.op("warm-up", wl.backends[0])
        gc.collect()
        index = 0
        start = perf_counter()
        while perf_counter() - start < seconds and not runner.expired:
            for backend in wl.backends:  # whole rounds, so backends stay balanced
                timed = runner.op(index, backend)
                if timed:
                    intervals.append(timed)
                index += 1
    raw = [end - start - pace.own_time(start, end) for start, end in intervals] or [0.0]
    durations = [pace.scale(d, start, end) for d, (start, end) in zip(raw, intervals)] or [0.0]
    tail_s, beyond = tail(durations, wl.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (_ratio(len(durations), sum(durations)), "1/s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"rounds": index // len(wl.backends), "timed_ops": len(durations),
               "op_s.tail.percentile": wl.tail_pct,
               "op_s.tail.samples_beyond": beyond, "samples": len(pace.units),
               "unit_s.p50": statistics.median(pace.units),
               "unscaled": {"ops_per_s": _ratio(len(raw), sum(raw)),
                            "op_s.p50": statistics.median(raw)}}
    return metrics, details


def traced_run(runner, spans_path):
    from tracer import Tracer

    wl = runner.workload
    runner.op("warm-up", wl.backends[0])
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_failed = runner.fixed_pass(tracer)
    finally:
        tracer.uninstall()
    gc.collect()
    untraced_s, untraced_failed = runner.fixed_pass()
    if spans_path:
        tracer.write_spans(spans_path)
    ops = wl.trace_rounds * len(wl.backends)
    metrics = per_layer_metrics(tracer, traced_s, untraced_s, ops)
    details = {"trace_ops": ops, "traced_failed": traced_failed,
               "untraced_failed": untraced_failed}
    return metrics, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed loop (ignored with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, write every span here as JSON lines")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "preab", "__init__.py")):
        print(f"bench: no preab package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from workloads import WORKLOADS

    with open(ORACLE, encoding="utf-8") as fh:
        oracle = json.load(fh)
    signal.signal(signal.SIGALRM, _expire)
    runner = Runner(WORKLOADS[args.workload], args.seed, oracle, started + RUN_LIMIT_S)
    if args.trace:
        metrics, details = traced_run(runner, args.spans)
    else:
        metrics, details = timed_run(runner, args.seconds)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": _ratio(runner.failed, runner.attempted),
        "digests_checked": runner.digests_checked, "errors": runner.errors,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
