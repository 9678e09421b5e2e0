"""Problems the benchmark integrates, built from the public exprk API.

``heat_problem`` comes from the library.  ``advdiff_problem`` is the
benchmark's own nonsymmetric problem: A = D2 + beta * D1 on N interior points
of (0, 1) with Dirichlet ends, central differences for both derivatives, held
as a ``DenseOperator`` so that the phi cache takes the augmented-``expm``
route.  The forcing is manufactured so that u(x, t) = x(1-x) e^t is exact.
Both stencils are exact on quadratics, so the grid restriction of u solves
the semidiscrete system exactly and every measured error is time-integration
error.
"""

import numpy as np

from exprk.integrator import SemilinearProblem
from exprk.operators import DenseOperator
from exprk.testbed import Grid1D, heat_problem

ADVDIFF_BETA = 20.0


def advdiff_operator(n, beta=ADVDIFF_BETA):
    """Dense (n, n) matrix of D2 + beta * D1 with zero Dirichlet ends."""
    dx = 1.0 / (n + 1)
    lower = 1.0 / dx ** 2 - beta / (2.0 * dx)
    upper = 1.0 / dx ** 2 + beta / (2.0 * dx)
    return (np.diag(np.full(n, -2.0 / dx ** 2))
            + np.diag(np.full(n - 1, upper), 1)
            + np.diag(np.full(n - 1, lower), -1))


def advdiff_problem(n=200, beta=ADVDIFF_BETA):
    """u' = (D2 + beta D1) u + 1/(1 + u^2) + forcing on t in [0, 1]."""
    grid = Grid1D(n)
    x = grid.x
    q = x * (1.0 - x)
    # u_t - u_xx - beta u_x for u = q e^t; the stencils reproduce u_xx = -2e^t
    # and u_x = (1 - 2x)e^t exactly on the grid.
    linear_defect = q + 2.0 - beta * (1.0 - 2.0 * x)

    def g(t, u):
        et = np.exp(t)
        return 1.0 / (1.0 + u * u) + linear_defect * et - 1.0 / (1.0 + (q * et) ** 2)

    def exact(t):
        return q * np.exp(t)

    return SemilinearProblem(A=DenseOperator(advdiff_operator(n, beta)), g=g,
                             u0=q.copy(), t0=0.0, t_end=1.0, exact=exact,
                             name=f"advdiff{n}")


def manufactured_residual(pb, t):
    """Relative defect of u = x(1-x)e^t in u' = A u + g(t, u) at time t.

    max_i |A u + g - u'|_i divided by max_i (|A| |u| + |g| + |u'|)_i, the
    size of the terms that cancel; it sits at a few units of roundoff
    exactly when the grid restriction of u solves the semidiscrete system.
    """
    u = pb.exact(t)
    du = u  # d/dt of x(1-x)e^t is itself
    gu = pb.g(t, u)
    res = pb.A.matvec(u) + gu - du
    scale = np.abs(pb.A.dense()) @ np.abs(u) + np.abs(gu) + np.abs(du)
    return float(np.abs(res).max() / scale.max())


def build_problem(kind, n):
    """The problem of one workload: ``kind`` is "heat" or "advdiff"."""
    if kind == "heat":
        return heat_problem(n)
    if kind == "advdiff":
        return advdiff_problem(n)
    raise ValueError(f"unknown problem kind {kind!r}")
