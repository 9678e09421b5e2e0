"""Command-line front end.

Subcommands: converge (sweep + CSV), check-order (stiff order conditions),
phi (scalar evaluation), step-demo (one verbose step).  Exit codes: 0 on
success, 1 when an asserted verdict fails or the integration blows up, 2 on
usage or parse errors.
"""

import argparse
import os
import sys

import numpy as np

from .convergence import DEFAULT_FLOOR, DEFAULT_STEPS, run_convergence, write_csv
from .integrator import BlowUpError, Stepper
from .operators import integer
from .order_conditions import TOP_ORDER, check
from .phi import phi_scalar
from .tableau import get_tableau, tableau_from_text, tableau_names
from .testbed import discrete_l2_error, problem_by_name

__all__ = ["main", "cmd_converge", "cmd_check_order", "cmd_phi", "cmd_step_demo"]


def _load_method(name_or_path):
    """Resolve a method name or a tableau file path to a tableau."""
    try:
        return get_tableau(name_or_path)
    except ValueError:
        if os.path.exists(name_or_path):
            with open(name_or_path, "r", encoding="utf-8") as f:
                return tableau_from_text(f.read())
        raise ValueError(
            f"{name_or_path!r} is neither a shipped method "
            f"({', '.join(tableau_names())}) nor a tableau file")


def _parse_steps(text):
    steps = [int(p) for p in text.split(",") if p.strip()]
    if not steps:
        raise ValueError("empty step list")
    return steps


def cmd_converge(args):
    t = _load_method(args.method)
    pb = problem_by_name(args.problem)
    report = run_convergence(t, pb, steps=args.steps, floor=args.floor)
    print(f"method {report.method} on {report.problem}")
    print("n_steps        h            error")
    for r in report.rows:
        print(f"{r.n_steps:>7}  {r.h:<12.6g} {r.error:.6e}")
    if report.excluded:
        ex = ", ".join(str(r.n_steps) for r in report.excluded)
        print(f"rows at/below floor {report.floor:g} (excluded from fit): {ex}")
    if report.fitted_slope is None:
        print("fitted slope: undefined (fewer than two rows above the floor)")
    else:
        print(f"fitted slope: {report.fitted_slope:.4f}")
    if args.out:
        write_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_check_order(args):
    p = args.assert_order
    if p is not None and not 1 <= p <= TOP_ORDER:
        raise ValueError(f"--assert-order must lie in 1..{TOP_ORDER}, got {p}")
    t = _load_method(args.method)
    report = check(t, tolerance=args.tol, seed=args.seed)
    print(report.table_text())
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(report.machine_rows()) + "\n")
        print(f"wrote {args.out}")
    if p is not None:
        attained = report.weakened_order5 if p == TOP_ORDER else report.highest_strong_order >= p
        if not attained:
            print(f"asserted order {p} NOT attained", file=sys.stderr)
            return 1
        print(f"asserted order {p} attained")
    return 0


def cmd_phi(args):
    print(repr(phi_scalar(args.j, args.z)))
    return 0


def cmd_step_demo(args):
    steps = integer(args.steps, "--steps", 1)
    t = _load_method(args.method)
    pb = problem_by_name(args.problem)
    h = (pb.t_end - pb.t0) / steps
    stepper = Stepper(pb, t, h)
    cache = stepper.cache
    u1, stages = stepper(pb.t0, pb.u0, return_stages=True)
    print(f"method {t.name} on {pb.name}: one step of h = {h:g} from t = {pb.t0:g}")
    form = "eigenvalue vectors" if cache.spectral else "matrices"
    print(f"phi cache: {len(cache)} {form} of dimension {pb.A.n}")
    for i, u in enumerate(stages, start=2):
        print(f"stage {i}: c = {t.node(i)}, ||U_{i}|| = {np.linalg.norm(u):.6e}")
    print(f"||u_1|| = {np.linalg.norm(u1):.6e}")
    if pb.exact is not None:
        err = discrete_l2_error(u1, pb, pb.t0 + h)
        print(f"discrete L2 error vs exact solution: {err:.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exprk",
        description="Exponential Runge-Kutta methods for semilinear stiff ODEs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="convergence sweep with CSV output")
    p.add_argument("--method", default="expRK5s8")
    p.add_argument("--problem", default="heat200")
    p.add_argument("--steps", type=_parse_steps,
                   default=list(DEFAULT_STEPS),
                   help="comma-separated step counts (default 8,16,...,512)")
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                   help="roundoff floor excluded from the slope fit")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check-order", help="verify the stiff order conditions")
    p.add_argument("--method", default="expRK5s8",
                   help="shipped method name or tableau JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--assert-order", type=int, default=None,
                   help=f"exit 1 unless this order (1..{TOP_ORDER}) is attained "
                        f"({TOP_ORDER} means the weakened order-{TOP_ORDER} verdict)")
    p.add_argument("--out", default=None, help="machine-readable rows path")
    p.set_defaults(func=cmd_check_order)

    p = sub.add_parser("phi", help="evaluate phi_j(z)")
    p.add_argument("j", type=int)
    p.add_argument("z", type=float)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("step-demo", help="run one verbose step")
    p.add_argument("--method", default="expRK5s8")
    p.add_argument("--problem", default="heat200")
    p.add_argument("--steps", type=int, default=8,
                   help="step count defining h = (t_end - t0)/steps")
    p.set_defaults(func=cmd_step_demo)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
