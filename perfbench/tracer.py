"""Spans around the public entry points of each exprk module, and the
per-layer metrics derived from them.

The tracer wraps callables where their callers bind them (a module attribute
or a class attribute), so the library itself is not edited.  A span is
``(name, start, end, parent, op, info)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id (-1 for set-up), and ``info`` a
small value taken from the call (a matrix size, a step count, a cache key).
Spans stay in memory until ``write`` is called at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
"""

import dataclasses
import gzip
import json
import statistics
from time import perf_counter

import scipy.linalg

from exprk import convergence, integrator, operators, order_conditions, phi, tableau, testbed

import problems

# Per-layer metrics: name -> (unit, layer).  The map from each layer to the
# end-to-end metric it should move, and on which workload, is in README.md.
LAYER_METRICS = {
    "operators.eigh_calls": ("count", "operators"),
    "operators.eigh_s": ("s", "operators"),
    "operators.matvec_calls": ("count", "operators"),
    "operators.matvec_s": ("s", "operators"),
    "operators.fingerprint_s": ("s", "operators"),
    "phi.cache_builds": ("count", "phi"),
    "phi.matrices": ("count", "phi"),
    "phi.cache_build_self_s": ("s", "phi"),
    "phi.scalar_calls": ("count", "phi"),
    "phi.scalar_s": ("s", "phi"),
    "phi.expm_calls": ("count", "phi"),
    "phi.expm_s": ("s", "phi"),
    "phi.expm_dim_max": ("rows", "phi"),
    "phi.cache_get_calls": ("count", "phi"),
    "phi.cache_get_s": ("s", "phi"),
    "phi.matrices_used_ratio": ("ratio", "phi"),
    "tableau.build_s": ("s", "tableau"),
    "tableau.eval_combo_calls": ("count", "tableau"),
    "tableau.eval_combo_s": ("s", "tableau"),
    "integrator.integrate_calls": ("count", "integrator"),
    "integrator.steps": ("count", "integrator"),
    "integrator.self_s": ("s", "integrator"),
    "integrator.self_s_per_step": ("s", "integrator"),
    "integrator.g_calls": ("count", "integrator"),
    "integrator.g_s": ("s", "integrator"),
    "order_conditions.probes": ("count", "order_conditions"),
    "order_conditions.self_s": ("s", "order_conditions"),
    "testbed.problem_s": ("s", "testbed"),
    "testbed.error_s": ("s", "testbed"),
    "convergence.self_s": ("s", "convergence"),
    "trace.overhead_s": ("s", "trace"),
    "trace.overhead_ratio": ("ratio", "trace"),
}

SETUP_OP = -1


class Tracer:
    """Install with ``install()``, set ``op`` per operation, ``uninstall()`` after."""

    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._stack = []
        self._restore = []
        self._cache_build = {}  # id(PhiCache) -> index of the span that built it

    def _wrap(self, fn, name, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if info is not None:
                spans[idx] = spans[idx][:5] + (info(idx, args, result),)
            return result

        return traced

    def _patch(self, owner, attr, name, info=None):
        original = owner.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self._wrap(original.fget, name, info))
        else:
            wrapped = self._wrap(original, name, info)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def _built(self, idx, args, cache):
        self._cache_build[id(cache)] = idx
        return len(cache)

    def _got(self, idx, args, result):
        cache, j, scale = args[:3]
        return (self._cache_build.get(id(cache)), j, scale)

    def install(self):
        p = self._patch
        p(problems, "build_problem", "testbed.problem")
        traced_build = problems.build_problem

        def build_with_traced_g(*args, **kwargs):
            pb = traced_build(*args, **kwargs)
            return dataclasses.replace(pb, g=self._wrap(pb.g, "integrator.g"))

        problems.build_problem = build_with_traced_g
        for mod in (integrator, order_conditions):
            p(mod, "build_phi_cache", "phi.build_cache", self._built)
        for mod in (integrator, convergence):
            p(mod, "integrate", "integrator.integrate", lambda i, a, r: a[2])
        for mod in (tableau, convergence):
            p(mod, "get_tableau", "tableau.build")
        for mod in (testbed, convergence):
            p(mod, "discrete_l2_error", "testbed.error")
        p(convergence, "run_convergence", "convergence.run")
        p(order_conditions, "check", "order_conditions.check")
        p(order_conditions, "eval_combo", "tableau.eval_combo")
        for mod in (phi, tableau):
            p(mod, "phi_scalar", "phi.scalar")
        p(scipy.linalg, "expm", "phi.expm", lambda i, a, r: a[0].shape[0])
        p(phi.PhiCache, "get", "phi.cache_get", self._got)
        p(operators.SymTridiagonalOperator, "eigendecomposition", "operators.eigh")
        for cls in (operators.ZeroOperator, operators.DiagonalOperator,
                    operators.SymTridiagonalOperator, operators.DenseOperator):
            p(cls, "matvec", "operators.matvec")
            p(cls, "fingerprint", "operators.fingerprint")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="ascii") as f:
            for name, start, end, parent, op, info in self.spans:
                f.write(json.dumps([name, start, end, parent, op, info], default=str))
                f.write("\n")


def _op_metrics(spans, idxs, self_s):
    """Per-layer counts and times of one operation, from its span indices."""
    calls, busy, own = {}, {}, {}
    for i in idxs:
        name, start, end = spans[i][:3]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s[i]

    def info(name):
        return [spans[i][5] for i in idxs if spans[i][0] == name]

    builds = info("phi.build_cache")
    matrices = sum(builds)
    used = {(b, phi.phi_request(j, s)) for b, j, s in info("phi.cache_get")}
    steps = sum(info("integrator.integrate"))
    probes = sum(1 for i in idxs if spans[i][0] == "phi.build_cache"
                 and spans[i][3] >= 0 and spans[spans[i][3]][0] == "order_conditions.check")
    return {
        "operators.eigh_calls": calls.get("operators.eigh", 0),
        "operators.eigh_s": busy.get("operators.eigh", 0.0),
        "operators.matvec_calls": calls.get("operators.matvec", 0),
        "operators.matvec_s": busy.get("operators.matvec", 0.0),
        "operators.fingerprint_s": busy.get("operators.fingerprint", 0.0),
        "phi.cache_builds": len(builds),
        "phi.matrices": matrices,
        "phi.cache_build_self_s": own.get("phi.build_cache", 0.0),
        "phi.scalar_calls": calls.get("phi.scalar", 0),
        "phi.scalar_s": busy.get("phi.scalar", 0.0),
        "phi.expm_calls": calls.get("phi.expm", 0),
        "phi.expm_s": busy.get("phi.expm", 0.0),
        "phi.expm_dim_max": max(info("phi.expm"), default=0),
        "phi.cache_get_calls": calls.get("phi.cache_get", 0),
        "phi.cache_get_s": busy.get("phi.cache_get", 0.0),
        "phi.matrices_used_ratio": len(used) / matrices if matrices else 0.0,
        "tableau.eval_combo_calls": calls.get("tableau.eval_combo", 0),
        "tableau.eval_combo_s": busy.get("tableau.eval_combo", 0.0),
        "integrator.integrate_calls": calls.get("integrator.integrate", 0),
        "integrator.steps": steps,
        "integrator.self_s": own.get("integrator.integrate", 0.0),
        "integrator.self_s_per_step": own.get("integrator.integrate", 0.0) / steps if steps else 0.0,
        "integrator.g_calls": calls.get("integrator.g", 0),
        "integrator.g_s": busy.get("integrator.g", 0.0),
        "order_conditions.probes": probes,
        "order_conditions.self_s": own.get("order_conditions.check", 0.0),
        "convergence.self_s": own.get("convergence.run", 0.0),
    }


def layer_metrics(spans, traced_s, untraced_s):
    """Every metric of LAYER_METRICS, each the median over traced operations
    (the lower median for counts and ratios, so that a count stays whole).

    ``tableau.build_s``, ``testbed.problem_s`` and ``testbed.error_s`` are
    medians per call over the whole run, set-up included, since some workloads
    make those calls only outside their operations.  The tracing overhead is
    the median traced minus the median untraced operation time.
    """
    self_s = [end - start for _, start, end, *_ in spans]
    by_op = {}
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= end - start
        by_op.setdefault(op, []).append(i)
    per_op = [_op_metrics(spans, idxs, self_s) for op, idxs in by_op.items() if op != SETUP_OP]
    out = {k: (statistics.median if LAYER_METRICS[k][0] == "s" else statistics.median_low)(
        [m[k] for m in per_op]) for k in per_op[0]}

    def per_call(name):
        durs = [end - start for n, start, end, *_ in spans if n == name]
        return statistics.median(durs) if durs else 0.0

    out["tableau.build_s"] = per_call("tableau.build")
    out["testbed.problem_s"] = per_call("testbed.problem")
    out["testbed.error_s"] = per_call("testbed.error")
    base = statistics.median(untraced_s)
    out["trace.overhead_s"] = statistics.median(traced_s) - base
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / base
    return {k: out[k] for k in LAYER_METRICS}
