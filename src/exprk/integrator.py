"""Fixed-step driver for explicit exponential Runge-Kutta methods.

One step of the scheme, with F(t, u) = Au + g(t, u) and D_j the nonlinearity
increments, reads

    U_i     = u_n + c_i h phi_1(c_i hA) F(t_n, u_n) + h sum_{j<i} a_ij(hA) D_j
    u_{n+1} = u_n + h phi_1(hA) F(t_n, u_n)         + h sum_i   b_i(hA)  D_i
    D_j     = g(t_n + c_j h, U_j) - g(t_n, u_n).

A Stepper prepares one step size on one problem: it builds a PhiCache for
every phi_k(c hA) the tableau needs and assembles the coefficients h a_ij
from its entries, once; each call then advances one step, and integrate is a
loop of such calls.  The update is stage s + 1, whose row is b at node 1
(ExpRKTableau.row and node), so one loop forms every stage U_i and u_{n+1},
with no g call at u_{n+1}.  The step runs in the cache's basis V, in which
A = V diag(w) V^T: F(t_n, u_n) and each D_j go into it with V^T, the
coefficients act there, and each stage U_i and u_{n+1} return with one V.
For a spectral cache (zero, diagonal and symmetric tridiagonal A) the
coefficients are length-n vectors of eigenvalue functions acting
elementwise, so a step of s stages makes 2s basis changes (none when V is
the identity) and no n x n matrix is ever formed besides V.  For a large
constant-coefficient tridiagonal A, V is a SineBasis and each basis change
is an O(n log n) DST-I instead of a dense product.  For a dense cache V is
the identity and the coefficients are matrices acting by matrix-vector
products.  Stage 1 is U_1 = u_n and never materialized.  Non-autonomous g is
handled by passing stage times directly, which is equivalent to
autonomization for these methods.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import LinearOperator, finite_array, integer, real_array, real_scalar
from .phi import build_phi_cache, phi_request
from .tableau import ExpRKTableau, combo_sum

__all__ = [
    "SemilinearProblem", "StepRecord", "BlowUpError", "Stepper", "integrate",
    "required_requests",
]


class BlowUpError(ArithmeticError):
    """The state left the range of floating point (solution blow-up)."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class SemilinearProblem:
    """u' = A u + g(t, u) on [t0, t_end] with initial state u0.

    A is a LinearOperator and g a callable mapping (t, u) to a vector of the
    state dimension; exact, when given, maps t to the true solution vector
    and enables error measurement.  The constructor checks A and g (TypeError
    naming them), reads u0 by operators.finite_array as a vector of A's
    dimension and t0, t_end by operators.real_scalar, and stores them as a
    float ndarray and floats; the interval must be finite with t0 < t_end.
    """

    A: LinearOperator
    g: callable
    u0: np.ndarray
    t0: float = 0.0
    t_end: float = 1.0
    exact: callable = None
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.A, LinearOperator):
            raise TypeError(f"A must be a LinearOperator, got {type(self.A).__name__}")
        if not callable(self.g):
            raise TypeError(f"g must be callable, got {self.g!r}")
        t0, t_end = real_scalar(self.t0, "t0"), real_scalar(self.t_end, "t_end")
        if not -np.inf < t0 < t_end < np.inf:
            raise ValueError(f"need finite t0 < t_end, got t0 = {t0!r}, t_end = {t_end!r}")
        for name, value in (("u0", finite_array(self.u0, "u0", (self.A.n,))),
                            ("t0", t0), ("t_end", t_end)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class StepRecord:
    """State at one accepted time point."""

    t: float
    u: np.ndarray


def required_requests(t):
    """All (j, scale) phi matrices a tableau needs for stepping.

    The union of the pairs referenced by the a/b combos, plus (1, c_i) for
    each stage i = 2..s + 1 with c_i > 0; the update, stage s + 1, is at
    c = 1.
    """
    reqs = {phi_request(j, s) for j, s in t.phi_pairs()}
    return reqs | {phi_request(1, t.node(i)) for i in range(2, t.s + 2) if t.node(i) > 0}


def _eval_g(pb, t, u):
    out = real_array(pb.g(t, u), "g(t, u)")
    if out.shape != u.shape:
        raise ValueError(f"g(t, u) returned shape {out.shape}, expected {u.shape}")
    return out


class Stepper:
    """Steps of size h of tableau t on problem pb, prepared once.

    The constructor checks t, builds the phi cache for required_requests(t)
    and assembles the coefficients from its entries, in its basis: for each
    stage i = 2..s + 1 (the update) its float node c_i and h a_ij, with h
    folded into each combo exactly, and for each distinct positive node c
    the pair c h, phi_1(c hA).  The phi_1 entry is not scaled, which would
    copy it, n x n on the dense route.  No phi function is evaluated after
    construction.
    """

    def __init__(self, pb, t, h):
        if not isinstance(t, ExpRKTableau):
            raise TypeError("t must be an ExpRKTableau")
        self.pb, self.t = pb, t
        self.cache = cache = build_phi_cache(pb.A, h, required_requests(t))
        self.h = float(h)
        hq = Fraction(self.h)
        nodes = {t.node(i) for i in range(2, t.s + 2) if t.node(i) > 0}
        self._node_co = {float(c): (float(c) * self.h, cache.get(1, c)) for c in nodes}
        co = lambda v: combo_sum(hq * v, cache.get)
        self._rows = {i: (float(t.node(i)), {j: co(v) for j, v in t.row(i).items()})
                      for i in range(2, t.s + 2)}

    def __call__(self, tn, un, return_stages=False):
        """u_{n+1} from (tn, un); with return_stages, (u_{n+1}, (U_2, ..., U_s))."""
        pb, t, cache = self.pb, self.t, self.cache
        un = real_array(un, "un")
        if un.shape != (pb.A.n,):
            raise ValueError(f"state has shape {un.shape}, expected ({pb.A.n},)")
        act, to_basis, from_basis = cache.apply, cache.to_basis, cache.from_basis
        gn = _eval_g(pb, tn, un)
        fn = to_basis(pb.A.matvec(un) + gn)
        # c h phi_1(c hA) F(t_n, u_n), once for each distinct node c
        f_terms = {c: ch * act(co, fn) for c, (ch, co) in self._node_co.items()}
        d = {}
        stages = []
        for i, (ci, row) in self._rows.items():
            acc = f_terms[ci] if ci > 0 else np.zeros_like(fn)
            for j, am in row.items():
                acc = acc + act(am, d[j])
            u_i = un + from_basis(acc)
            if i > t.s:  # u_{s+1} is u_{n+1}, and g is not called there
                break
            d[i] = to_basis(_eval_g(pb, tn + ci * self.h, u_i) - gn)
            stages.append(u_i)
        if not np.all(np.isfinite(u_i)):
            raise BlowUpError(f"non-finite state after step from t = {tn}")
        return (u_i, tuple(stages)) if return_stages else u_i


def integrate(pb, t, n_steps):
    """Run n_steps constant steps from t0 to t_end; the StepRecord at t_end.

    One Stepper, for h = (t_end - t0)/n_steps, makes every step.
    """
    n_steps = integer(n_steps, "n_steps", 1)
    h = (pb.t_end - pb.t0) / n_steps
    stepper = Stepper(pb, t, h)
    un = pb.u0.copy()
    for k in range(n_steps):
        tn = pb.t0 + k * h
        try:
            un = stepper(tn, un)
        except BlowUpError as exc:
            raise BlowUpError(f"blow-up at step {k} (t = {tn})", step_index=k) from exc
    return StepRecord(pb.t_end, un)
