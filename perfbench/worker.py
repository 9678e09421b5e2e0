"""The measured process of one benchmark run; ``run.py`` launches it.

Untraced run (``--trace 0``):
  1. one set-up sample, discarded (it absorbs .pyc compilation and cold
     page cache);
  2. one warm-up operation, checked but not timed;
  3. closed loop until ``--seconds`` have passed (and at least MIN_OPS
     operations): each operation is timed and checked, then any set-up
     samples that are due are taken, so that SETUP_SAMPLES samples are spread
     evenly over the run.
  The machine-speed probe (speed.py) samples inside every timed operation
  and set-up sample.  ``solve_s`` and ``setup_s`` are medians of wall times
  divided by the slowdown the probe saw during each, and ``peak_rss_mb`` is
  this process's peak resident memory.  The raw wall times and slowdowns go
  to the results file.

Traced run (``--trace 1``): after the warm-up, operations alternate between
untraced and traced until ``--seconds`` have passed; reports every per-layer
metric as the median over traced operations, and the tracing overhead as the
median traced minus the median untraced operation time.  These are plain
wall times; the probe is sampled only between operations, as a record, so
that its time lands in no span.

Every operation, the warm-up included, counts as attempted, and one whose
check fails or that raises counts as failed.  The last line of standard
output is the result as one JSON object; the run's environment, machine
speed and every sample go to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import exprk
import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 7
MIN_OPS = 3
SETUP_TIMEOUT_S = 60


def setup_sample(wl):
    """(wall seconds, slowdown) of one set-up sample in a fresh interpreter."""
    kind, n = wl.problem if wl.problem else ("none", 0)
    cmd = [sys.executable, os.path.join(HERE, "setup_sample.py"), workloads.METHOD, kind, str(n)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=SETUP_TIMEOUT_S).stdout
    wall, slowdown = out.split()[-2:]
    return float(wall), float(slowdown)


def fixed_address_layout():
    """Whether this process was mapped without address randomization."""
    try:
        with open("/proc/self/personality", encoding="ascii") as f:
            return bool(int(f.read(), 16) & 0x0040000)
    except OSError:
        return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "exprk": exprk.__file__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                         or k == "VECLIB_MAXIMUM_THREADS"},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "fixed_address_layout": fixed_address_layout(),
        "speed_probe": {"period_s": speed.PERIOD_S, "nominal_s": speed.NOMINAL_S},
    }


class Run:
    """Counts of one run."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.last_detail = "-"

    def operate(self, tab):
        """Run one operation and check it; returns its (start, end) times."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.wl.operation(tab, workloads.operation_seed(self.seed, self.attempted))
        except Exception:
            end = perf_counter()
            self.failed += 1
            self.failures.append(traceback.format_exc())
            return start, end
        end = perf_counter()
        ok, detail = self.wl.check(result)
        if not ok:
            self.failed += 1
            self.failures.append(detail)
        self.last_detail = detail
        return start, end


class Timed:
    """Wall times of one kind of interval, each with the slowdown during it."""

    def __init__(self):
        self.wall = []
        self.slowdown = []

    def add(self, wall, slowdown):
        self.wall.append(wall)
        self.slowdown.append(slowdown)

    def corrected(self):
        return [w / f for w, f in zip(self.wall, self.slowdown)]


def run_untraced(run, seconds):
    wl = run.wl
    setup_sample(wl)  # discarded
    tab = workloads.get_method()
    run.operate(tab)  # warm-up, not timed
    probe = speed.SpeedProbe(wl.probe)
    solve, setup = Timed(), Timed()
    begin = perf_counter()
    while perf_counter() - begin < seconds or len(solve.wall) < MIN_OPS:
        with probe.sampling():
            start, end = run.operate(tab)
        solve.add(end - start, probe.slowdown(start, end))
        due = min(SETUP_SAMPLES, int((perf_counter() - begin) / seconds * SETUP_SAMPLES))
        while len(setup.wall) < due:
            setup.add(*setup_sample(wl))
    while len(setup.wall) < SETUP_SAMPLES:
        setup.add(*setup_sample(wl))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": {"value": statistics.median(solve.corrected()), "unit": "s"},
        "setup_s": {"value": statistics.median(setup.corrected()), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    samples = {"solve_corrected_s": solve.corrected(), "setup_corrected_s": setup.corrected(),
               "solve_wall_s": solve.wall, "setup_wall_s": setup.wall,
               "solve_slowdown": solve.slowdown, "setup_slowdown": setup.slowdown,
               **{f"probe_{name}_s": xs for name, xs in probe.parts.items()}}
    return metrics, samples


def run_traced(run, seconds, spans_path):
    tracer = tracing.Tracer()
    tracer.install()
    tab = workloads.get_method()  # set-up, traced as op -1
    tracer.uninstall()
    run.operate(tab)  # warm-up, not timed
    probe = speed.SpeedProbe(run.wl.probe)
    times = {False: [], True: []}
    begin = perf_counter()
    op = 0
    while perf_counter() - begin < seconds or not (times[False] and times[True]):
        traced = op % 2 == 1
        if traced:
            tracer.op = op
            tracer.install()
        try:
            start, end = run.operate(tab)
        finally:
            tracer.uninstall()
        times[traced].append(end - start)
        probe.sample()
        op += 1
    tracer.write(spans_path)
    values = tracing.layer_metrics(tracer.spans, times[True], times[False])
    metrics = {k: {"value": values[k], "unit": tracing.LAYER_METRICS[k][0]}
               for k in tracing.LAYER_METRICS}
    samples = {"solve_s_untraced": times[False], "solve_s_traced": times[True],
               **{f"probe_{name}_s": xs for name, xs in probe.parts.items()},
               "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, HERE)}
    return metrics, samples


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, samples = run_traced(run, args.seconds, stem + ".spans.jsonl.gz")
    else:
        metrics, samples = run_untraced(run, args.seconds)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "attempted": run.attempted,
              "failed": run.failed, "failures": run.failures, "metrics": metrics,
              "samples": samples}
    with open(stem + ".json", "w", encoding="ascii") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.failed} of {run.attempted} operations failed (warm-up included); "
          f"last check: {run.last_detail}")
    for name, xs in samples.items():
        if isinstance(xs, list) and len(xs) > 1:
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"  {name}: median {med:.6g} (quartiles {q1:.6g} .. {q3:.6g}) "
                  f"over {len(xs)} samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for failure in run.failures:
        print("  FAILED:", failure.strip().splitlines()[-1])
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
