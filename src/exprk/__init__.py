"""Exponential Runge-Kutta integrators for semilinear stiff ODEs u' = Au + g(t, u).

The package provides phi-function evaluation (scalar and matrix), exact
rational coefficient tableaux including the fifth-order method expRK5s8, a
numerical checker for the sixteen stiff order conditions in strong and
weakened form, a fixed-step integrator, and a parabolic test problem with a
convergence harness.
"""

from .operators import (DenseOperator, DiagonalOperator, LinearOperator,
                        SymTridiagonalOperator, ZeroOperator)
from .phi import PhiCache, PhiRequest, build_phi_cache, phi_matrix, phi_scalar
from .tableau import (ExpRKTableau, PhiCombo, baseline_tableaux,
                      classical_limit, eval_combo, exprk5s8, get_tableau,
                      psi, psi_combo)
from .integrator import SemilinearProblem, Stepper, integrate, required_requests
from .order_conditions import ProbeSet, check, condition_residual, structured_probes
from .testbed import discrete_l2_error, heat_problem, stability_bound_check
from .convergence import ConvergenceReport, run_convergence

__version__ = "0.1.0"
