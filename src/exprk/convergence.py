"""Convergence sweeps: run a method over a ladder of step counts, fit the slope.

The report rows are (n_steps, h, error) with the error the discrete L2
distance to the exact solution at the final time.  The observed order is the
least-squares slope of log(error) against log(h), using only rows whose error
sits above a roundoff floor; rows at or below the floor, or with a NaN or
infinite error, are excluded from the fit (and reported), since they measure
arithmetic noise or a failed run, not the method.
"""

from dataclasses import dataclass

import numpy as np

from .integrator import integrate
from .operators import integer, real_scalar
from .tableau import get_tableau
from .testbed import discrete_l2_error

__all__ = ["ConvergenceRow", "ConvergenceReport", "run_convergence",
           "fit_slope", "write_csv", "DEFAULT_STEPS", "DEFAULT_FLOOR"]

DEFAULT_STEPS = (8, 16, 32, 64, 128, 256, 512)
DEFAULT_FLOOR = 1e-11


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    h: float
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    method: str
    problem: str
    rows: tuple
    floor: float
    fitted_slope: float  # None when fewer than two rows clear the floor
    excluded: tuple      # rows at or below the floor or with a non-finite error, left out of the fit

    def csv_text(self):
        lines = ["n_steps,h,error"]
        for r in self.rows:
            lines.append(f"{r.n_steps},{r.h!r},{r.error!r}")
        return "\n".join(lines) + "\n"


def fit_slope(rows, floor=DEFAULT_FLOOR):
    """Least-squares slope of log error vs log h over the rows whose error
    is finite and above the floor.

    Returns (slope, used, excluded); excluded is every row not used, those
    at or below the floor and those whose error is NaN or infinite.  slope is None for
    fewer than two usable rows.  The floor must be finite and >= 0.
    """
    floor = real_scalar(floor, "floor")
    if not (np.isfinite(floor) and floor >= 0):
        raise ValueError(f"floor must be finite and >= 0, got {floor!r}")
    used = tuple(r for r in rows if np.isfinite(r.error) and r.error > floor)
    excluded = tuple(r for r in rows if r not in used)
    if len(used) < 2:
        return None, used, excluded
    lh = np.log([r.h for r in used])
    le = np.log([r.error for r in used])
    slope = float(np.polyfit(lh, le, 1)[0])
    return slope, used, excluded


def run_convergence(method, pb, steps=DEFAULT_STEPS, floor=DEFAULT_FLOOR):
    """Integrate pb at each step count and assemble the fitted report.

    method is a tableau or a shipped-method name; steps must be strictly
    increasing positive integers, floor finite and >= 0 (fit_slope), and pb
    must have an exact solution.  All three are checked before the first
    integration.
    """
    t = get_tableau(method) if isinstance(method, str) else method
    steps = [integer(k, "steps", 1) for k in steps]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    floor = real_scalar(floor, "floor")
    fit_slope((), floor)  # rejects a bad floor before any integration
    if pb.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    rows = []
    for k in steps:
        rec = integrate(pb, t, k)
        err = discrete_l2_error(rec.u, pb, rec.t)
        rows.append(ConvergenceRow(k, (pb.t_end - pb.t0) / k, err))
    slope, _, excluded = fit_slope(rows, floor)
    return ConvergenceReport(method=t.name, problem=pb.name or "custom",
                             rows=tuple(rows), floor=floor,
                             fitted_slope=slope, excluded=excluded)


def write_csv(report, path):
    """Write the report rows as ASCII CSV (header n_steps,h,error)."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(report.csv_text())

