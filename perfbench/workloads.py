"""The benchmark's four workloads: one operation each, and its correctness check.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned.  An operation includes building its
problem (so the eigendecomposition and phi cache are paid on every operation,
as a user solving a new problem pays them) and excludes building the tableau,
which is set-up.  Library entry points are looked up through their modules at
call time, so that the tracer can wrap them.
"""

import random
from dataclasses import dataclass

from exprk import convergence, integrator, order_conditions, tableau, testbed

import problems

METHOD = "expRK5s8"

# Errors of the expRK5s8 sweep on heat200 at the three coarsest step counts,
# and the slope that run_convergence fits.  The power-of-two ladder reaches
# the 1e-11 fit floor already at 32 steps, so the fit sees only the 8- and
# 16-step rows and gives 4.688, not 5.
SWEEP_ROWS = {8: 5.673e-09, 16: 2.200e-10, 32: 7.657e-12}
SWEEP_ROW_RTOL = 1e-3
SWEEP_SLOPE = 4.688
SWEEP_SLOPE_TOL = 0.01

SOLVE_STEPS = 64
SOLVE_MAX_ERROR = 1e-10

CHECK_PROBES = 93  # 50 seeded random probes + 43 structured ones


def operation_seed(seed, k):
    """The seed of the k-th operation of a run with benchmark seed ``seed``.

    Each operation gets its own inputs, so that a run checks, and its median
    covers, as many input sets as it has operations.
    """
    return random.Random(f"{seed}:{k}").getrandbits(32)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: tuple       # (kind, n) for problems.build_problem, or None
    operation: callable  # (tab, operation seed) -> result
    check: callable      # result -> (ok, detail)
    # Parts of the speed probe (speed.py) that this workload's times follow,
    # and by which they are corrected.
    probe: tuple = ("matmul", "matvec")


def _sweep(tab, seed):
    return convergence.run_convergence(METHOD, problems.build_problem("heat", 200))


def _check_sweep(report):
    errors = {r.n_steps: r.error for r in report.rows}
    for k, want in SWEEP_ROWS.items():
        if abs(errors[k] / want - 1.0) > SWEEP_ROW_RTOL:
            return False, f"error at {k} steps {errors[k]:.4e}, want {want:.4e}"
    if report.fitted_slope is None or abs(report.fitted_slope - SWEEP_SLOPE) > SWEEP_SLOPE_TOL:
        return False, f"fitted slope {report.fitted_slope}, want {SWEEP_SLOPE}"
    return True, f"slope {report.fitted_slope:.4f}"


def _solver(kind, n):
    def run(tab, seed):
        pb = problems.build_problem(kind, n)
        return pb, integrator.integrate(pb, tab, SOLVE_STEPS)
    return run


def _check_solve(result):
    pb, rec = result
    err = testbed.discrete_l2_error(rec.u, pb, rec.t)
    return err <= SOLVE_MAX_ERROR, f"L2 error {err:.3e}"


def _check_order(tab, seed):
    return order_conditions.check(tab, seed=seed)


def _check_report(report):
    ok = (report.n_probes == CHECK_PROBES and report.highest_strong_order == 4
          and report.weakened_order5)
    return ok, (f"{report.n_probes} probes, strong order {report.highest_strong_order}, "
                f"weakened order 5 {'pass' if report.weakened_order5 else 'FAIL'}")


WORKLOADS = {w.name: w for w in (
    Workload("heat200-sweep", ("heat", 200), _sweep, _check_sweep),
    Workload("heat2000-solve", ("heat", 2000), _solver("heat", 2000), _check_solve),
    Workload("advdiff200-dense", ("advdiff", 200), _solver("advdiff", 200), _check_solve),
    # Python overhead on 3x3 matrices: corrected by the loop and the matrix
    # product its ten-run spread was 0.03, by the product and the matvec 0.10.
    Workload("check-order", None, _check_order, _check_report, probe=("loop", "matmul")),
)}


def get_method():
    """The tableau every workload runs (looked up at call time for the tracer)."""
    return tableau.get_tableau(METHOD)
