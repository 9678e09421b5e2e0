"""The numbers the library's claims rest on, as one canonical JSON record.

    PYTHONPATH=src python tests/golden.py > numbers.json

prints one flat object, sorted by key, one entry per line:

- check/<tableau>/seed<s>/<id>/<mode>/residual and .../pass: the rows of
  check(t, seed=s).machine_rows() for expRK5s8, expEuler and expRK2s2 at
  seeds 0-3, each residual as float.hex, with the report's
  highest_strong_order and weakened_order5;
- state/<tableau>/<problem>/<steps>/sha256 and .../l2_error: the final state
  of integrate for the same tableaux at 16 and 64 steps, on heat200,
  heat2000 and advdiff200 (central differences for u_xx + 20 u_x, a dense
  nonsymmetric operator with the manufactured solution x(1-x)e^t);
- phi/<problem>/phi<j>(<scale>)/sha256: each entry of expRK5s8's phi cache
  at h = 1/64 on heat200 (eigenvalue vectors) and on advdiff200 (matrices).

Run at two commits on one machine, the outputs are identical exactly when
every number is bit for bit the same.  golden.json is one such output;
test_golden.py compares against it within bounds, since BLAS summation order
differs between machines.
"""

import hashlib
import json
import sys

import numpy as np

from conftest import advdiff_matrix
from exprk.integrator import SemilinearProblem, integrate, required_requests
from exprk.operators import DenseOperator
from exprk.order_conditions import check
from exprk.phi import build_phi_cache
from exprk.tableau import get_tableau
from exprk.testbed import Grid1D, discrete_l2_error, heat_problem

TABLEAUX = ("expRK5s8", "expEuler", "expRK2s2")
SEEDS = range(4)
STEPS = (16, 64)


def advdiff_problem(n, beta=20.0):
    """u' = A u + 1/(1 + u^2) + forcing, A = advdiff_matrix(n, beta), with
    the forcing manufactured so that x(1-x)e^t solves it exactly: both
    difference stencils are exact on quadratics."""
    x = Grid1D(n).x
    q = x * (1.0 - x)
    # u_t - u_xx - beta u_x for u = q e^t, over e^t
    defect = q + 2.0 - beta * (1.0 - 2.0 * x)

    def g(t, u):
        et = np.exp(t)
        return 1.0 / (1.0 + u * u) + defect * et - 1.0 / (1.0 + (q * et) ** 2)

    return SemilinearProblem(A=DenseOperator(advdiff_matrix(n, beta)), g=g, u0=q.copy(),
                             exact=lambda t: q * np.exp(t), name=f"advdiff{n}")


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def record():
    """{key: value}: float.hex strings, sha256 hex digests, ints and bools."""
    out = {}
    for name in TABLEAUX:
        t = get_tableau(name)
        for seed in SEEDS:
            key = f"check/{name}/seed{seed}"
            report = check(t, seed=seed)
            for row in report.machine_rows()[1:]:
                cid, mode, residual, passed = row.split(",")
                out[f"{key}/{cid}/{mode}/residual"] = float(residual).hex()
                out[f"{key}/{cid}/{mode}/pass"] = passed == "1"
            out[f"{key}/highest_strong_order"] = report.highest_strong_order
            out[f"{key}/weakened_order5"] = report.weakened_order5
    problems = [heat_problem(200), heat_problem(2000), advdiff_problem(200)]
    for pb in problems:
        for name in TABLEAUX:
            for steps in STEPS:
                key = f"state/{name}/{pb.name}/{steps}"
                u = integrate(pb, get_tableau(name), steps).u
                out[f"{key}/sha256"] = _sha256(u)
                out[f"{key}/l2_error"] = discrete_l2_error(u, pb, pb.t_end).hex()
    requests = required_requests(get_tableau("expRK5s8"))
    for pb in (problems[0], problems[2]):
        cache = build_phi_cache(pb.A, 1.0 / 64, requests)
        for j, scale in sorted(requests):
            out[f"phi/{pb.name}/phi{j}({scale})/sha256"] = _sha256(cache.get(j, scale))
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(record(), indent=0, sort_keys=True) + "\n")
