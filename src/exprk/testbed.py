"""Semilinear parabolic test problem and stability diagnostics.

The benchmark is the 1-d reaction-diffusion problem

    u_t - u_xx = 1/(1 + u^2) + Phi(x, t),   u(0,t) = u(1,t) = 0,

with the forcing Phi manufactured so that u(x, t) = x(1-x) e^t is the exact
solution.  Discretized by second-order central differences on N interior
points, the grid restriction of the exact solution solves the semidiscrete
ODE system *exactly* (the difference stencil is exact on quadratics in x), so
measured errors are pure time-integration errors.
"""

import re

import numpy as np

from .integrator import SemilinearProblem
from .operators import SymTridiagonalOperator, integer, real_array, real_scalar

__all__ = [
    "Grid1D", "heat_problem", "heat_forcing", "discrete_l2_error",
    "stability_bound_check", "problem_by_name",
]


class Grid1D:
    """Uniform grid on (0, 1): N interior points, Dirichlet ends excluded."""

    def __init__(self, n):
        self.n = integer(n, "n", 2)
        self.dx = 1.0 / (self.n + 1)
        self.x = self.dx * np.arange(1, self.n + 1)


def heat_forcing(x, t):
    """Forcing Phi(x, t) = x(1-x)e^t + 2e^t - 1/(1 + x^2(1-x)^2 e^{2t})."""
    x = real_array(x, "x")
    return _forcing(x * (1.0 - x), t)


def _forcing(q, t):
    """heat_forcing from q = x(1-x), which heat_problem's g computes once."""
    et = np.exp(t)
    qe = q * et
    return qe + 2.0 * et - 1.0 / (1.0 + qe ** 2)


def heat_problem(n=200):
    """The discretized problem on n interior points, t in [0, 1]."""
    grid = Grid1D(n)
    inv_dx2 = 1.0 / grid.dx ** 2
    a = SymTridiagonalOperator(np.full(grid.n, -2.0 * inv_dx2),
                               np.full(grid.n - 1, inv_dx2))
    q = grid.x * (1.0 - grid.x)

    def g(t, u):
        return 1.0 / (1.0 + u * u) + _forcing(q, t)

    def exact(t):
        return q * np.exp(t)

    return SemilinearProblem(A=a, g=g, u0=q.copy(), t0=0.0, t_end=1.0,
                             exact=exact, name=f"heat{grid.n}")


def problem_by_name(name):
    """Problem registry for the CLI; heatN builds the heat problem on N points."""
    m = re.fullmatch(r"heat(\d+)", name)
    if m:
        return heat_problem(int(m.group(1)))
    raise ValueError(f"unknown problem {name!r}; available: heatN (e.g. heat200)")


def discrete_l2_error(u, pb, t):
    """sqrt(dx * sum_i (u_i - exact(t)_i)^2) against the problem's exact solution.

    u is read by operators.real_array and must have shape (n,), n the
    problem's dimension; it may hold a NaN, which gives nan.
    """
    if pb.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    u = real_array(u, "u")
    if u.shape != (pb.A.n,):
        raise ValueError(f"u has shape {u.shape}, expected {(pb.A.n,)}")
    diff = u - pb.exact(t)
    dx = 1.0 / (u.size + 1)
    return float(np.sqrt(dx * np.sum(diff * diff)))


def stability_bound_check(a, h, n):
    """Spectral norm of hA sum_{j=1..n} exp(jhA) for symmetric neg. semidefinite A.

    Evaluated eigenvalue-wise through the geometric-sum closed form
    x * e^x (e^{nx} - 1)/(e^x - 1) with x = h*lambda, written with expm1 for
    accuracy near 0.  For symmetric A with spectrum <= 0 the value is bounded
    by 1 uniformly in h and n.
    """
    n = integer(n, "n", 1)
    h = real_scalar(h, "h")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"need finite h > 0, got h = {h!r}")
    lam = a.eigenvalues()
    if lam.max() > 1e-12:
        raise ValueError("operator must be negative semidefinite")
    x = h * lam
    x = x[x != 0.0]
    vals = np.abs(x * np.exp(x) * np.expm1(n * x) / np.expm1(x))
    return float(vals.max(initial=0.0))
