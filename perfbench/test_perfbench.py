"""Tests of the benchmark's own code: the advection-diffusion problem, the
speed probe, the tracer, and agreement between BENCHMARK.json and the
metrics the code prints.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import signal
from time import perf_counter

import numpy as np
import pytest

from exprk import integrator
from exprk.tableau import get_tableau

import problems
import speed
import tracer as tracing
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("kind,n", [("advdiff", 200), ("advdiff", 37), ("heat", 200)])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_exact_solution_solves_the_semidiscrete_system(kind, n, t):
    pb = problems.build_problem(kind, n)
    assert problems.manufactured_residual(pb, t) < 1e-14


def test_advdiff_operator_is_nonsymmetric_central_differences():
    n = 5
    a = problems.advdiff_operator(n, beta=20.0)
    dx = 1.0 / (n + 1)
    assert np.allclose(a[1, :3], [1 / dx ** 2 - 10 / dx, -2 / dx ** 2, 1 / dx ** 2 + 10 / dx])
    assert np.abs(a - a.T).max() > 0


def test_wrong_advection_sign_is_caught_by_the_residual():
    pb = problems.advdiff_problem(50)
    flipped = problems.advdiff_problem(50, beta=-20.0)
    wrong = type(pb)(A=flipped.A, g=pb.g, u0=pb.u0, exact=pb.exact)
    assert problems.manufactured_residual(wrong, 0.5) > 1e-6


def test_slowdown_uses_the_probes_inside_the_interval_or_the_nearest():
    probe = speed.SpeedProbe(("loop",))
    nominal = speed.NOMINAL_S["loop"]
    for t, factor in enumerate([1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]):
        probe.times.append(float(t))
        probe.parts["loop"].append(factor * nominal)
    assert probe.slowdown(1.5, 4.5) == pytest.approx(2.0)
    # An interval with fewer than MIN_SAMPLES probes borrows its neighbours.
    assert probe.slowdown(2.9, 3.1) == pytest.approx(2.0)
    assert probe.slowdown(7.5, 9.0) == pytest.approx(1.0)


def test_sampling_probes_inside_the_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(("loop", "matmul", "matvec"))
    with probe.sampling():
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.times) >= 0.3 / speed.PERIOD_S / 2
    assert all(len(xs) == len(probe.times) for xs in probe.parts.values())
    assert 0.1 < probe.slowdown(start, end) < 10.0


def test_tracer_counts_one_small_integration_and_restores_the_library():
    original = integrator.integrate
    tab = get_tableau("expRK5s8")
    tr = tracing.Tracer()
    tr.install()
    tr.op = 0
    try:
        pb = problems.build_problem("heat", 20)
        integrator.integrate(pb, tab, 4)
    finally:
        tr.uninstall()
    assert integrator.integrate is original
    metrics = tracing.layer_metrics(tr.spans, [1.1], [1.0])
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["integrator.integrate_calls"] == 1
    assert metrics["integrator.steps"] == 4
    assert metrics["integrator.g_calls"] == 4 * tab.s
    assert metrics["operators.matvec_calls"] == 4
    assert metrics["operators.eigh_calls"] == 1
    assert metrics["phi.cache_builds"] == 1
    assert metrics["phi.scalar_calls"] == 20 * metrics["phi.matrices"]
    assert metrics["phi.matrices_used_ratio"] == 1.0
    assert metrics["order_conditions.probes"] == 0
    assert metrics["integrator.self_s"] > 0
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)
    built = [s for s in tr.spans if s[0] == "phi.build_cache"]
    children = [s for s in tr.spans if s[3] == tr.spans.index(built[0])]
    assert {s[0] for s in children} >= {"operators.eigh", "phi.scalar"}


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(worker.workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
