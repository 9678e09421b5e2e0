"""Shared fixtures and reference integrators for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from exprk.operators import SymTridiagonalOperator
from exprk.phi import phi_scalar
from exprk.tableau import exprk5s8, get_tableau
from exprk.testbed import heat_problem


class EighTridiagonal(SymTridiagonalOperator):
    """A symmetric tridiagonal operator that always takes the eigh_tridiagonal
    route, whatever its size and structure: the reference for the sine basis."""

    def eigendecomposition(self):
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(self.diag, self.off)


def augmented_phi(j, m):
    """phi_j(M) as one exponential of an augmented block matrix: the
    reference for the library's scaling-and-squaring kernel.

    Embed M in the n(j+1)-dimensional block matrix W with W[0,0] = M and
    identity blocks on the block superdiagonal; then exp(W) carries
    [exp(M), phi_1(M), ..., phi_j(M)] in its top block row, and phi_j(M) is
    the top-right block, computed by scipy's Pade expm.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    w = np.zeros((n * (j + 1), n * (j + 1)))
    w[:n, :n] = m
    for k in range(j):
        w[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    return scipy.linalg.expm(w)[:n, j * n:(j + 1) * n]


def phi_symmetric(j, m):
    """phi_j(M) for symmetric M through its eigendecomposition: the spectral
    reference for the matrix routes."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max())):
        raise ValueError("spectral route needs a symmetric matrix")
    w, v = np.linalg.eigh(m)
    return (v * np.array([phi_scalar(j, z) for z in w])) @ v.T


def rk_integrate(bt, f, u0, t0, t_end, n_steps):
    """Reference classical explicit RK driver over a ButcherTableau.

    Deliberately written from the textbook k-stage formulas, sharing no code
    with the exponential stepper, so agreement between the two is evidence
    rather than tautology.
    """
    a = [[float(x) for x in row] for row in bt.a]
    b = [float(x) for x in bt.b]
    c = [float(x) for x in bt.c]
    s = len(b)
    u = np.asarray(u0, dtype=float).copy()
    h = (t_end - t0) / n_steps
    for k in range(n_steps):
        tn = t0 + k * h
        slopes = []
        for i in range(s):
            ui = u.copy()
            for j in range(i):
                if a[i][j] != 0.0:
                    ui = ui + (h * a[i][j]) * slopes[j]
            slopes.append(np.asarray(f(tn + c[i] * h, ui), dtype=float))
        for i in range(s):
            if b[i] != 0.0:
                u = u + (h * b[i]) * slopes[i]
    return u


@pytest.fixture(scope="session")
def tab5():
    return exprk5s8()


@pytest.fixture(scope="session")
def all_tableaux():
    return [get_tableau(name) for name in ("expRK5s8", "expEuler", "expRK2s2")]


@pytest.fixture(scope="session")
def heat200():
    return heat_problem(200)
