"""Fixed-step driver for explicit exponential Runge-Kutta methods.

One step of the scheme, with F(t, u) = Au + g(t, u) and D_j the nonlinearity
increments, reads

    U_i     = u_n + c_i h phi_1(c_i hA) F(t_n, u_n) + h sum_{j<i} a_ij(hA) D_j
    u_{n+1} = u_n + h phi_1(hA) F(t_n, u_n)         + h sum_i   b_i(hA)  D_i
    D_j     = g(t_n + c_j h, U_j) - g(t_n, u_n).

Every phi_k(c hA) comes from a PhiCache built once per (A, h), and the
coefficients a_ij, b_i are assembled once from its entries.  The step runs in
the cache's basis V, in which A = V diag(w) V^T: F(t_n, u_n) and each D_j go
into it with V^T, the coefficients act there, and each stage U_i and u_{n+1}
return with one V.  For a spectral cache (zero, diagonal and symmetric
tridiagonal A) the coefficients are length-n vectors of eigenvalue
functions acting elementwise, so a step of s stages makes 2s basis changes
(none when V is the identity) and no n x n matrix is ever formed besides V.
For a large constant-coefficient tridiagonal A, V is a SineBasis and each
basis change is an O(n log n) DST-I instead of a dense product.  For a
dense cache V is the identity and the coefficients are matrices acting by
matrix-vector products.  Stage 1 is U_1 = u_n and never materialized.
Non-autonomous g is handled by passing stage times directly, which is
equivalent to autonomization for these methods.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import LinearOperator
from .phi import PhiCache, build_phi_cache, phi_request
from .tableau import ExpRKTableau

__all__ = [
    "SemilinearProblem", "StepRecord", "BlowUpError", "CacheMismatchError",
    "step", "integrate", "required_requests",
]


class BlowUpError(ArithmeticError):
    """The state left the range of floating point (solution blow-up)."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class CacheMismatchError(ValueError):
    """The supplied PhiCache was built for a different operator."""


@dataclass(frozen=True)
class SemilinearProblem:
    """u' = A u + g(t, u) on [t0, t_end] with initial state u0.

    g maps (t, u) to a vector of the state dimension; exact, when given, maps
    t to the true solution vector and enables error measurement.
    """

    A: LinearOperator
    g: callable
    u0: np.ndarray
    t0: float = 0.0
    t_end: float = 1.0
    exact: callable = None
    name: str = ""

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float)
        if u0.ndim != 1 or u0.size != self.A.n:
            raise ValueError("u0 must be a vector of the operator dimension")
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 must be finite")
        if not self.t0 < self.t_end:
            raise ValueError("need t0 < t_end")
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True)
class StepRecord:
    """State at one accepted time point; stages kept only on request."""

    t: float
    u: np.ndarray
    stages: tuple = None


def required_requests(t):
    """All (j, scale) phi matrices a tableau needs for stepping.

    The union of the pairs referenced by the a/b combos, plus (1, c_i) for
    each stage with c_i > 0 and (1, 1) for the update formula.
    """
    reqs = {phi_request(j, s) for j, s in t.phi_pairs()}
    reqs |= {phi_request(1, ci) for ci in t.c[1:] if ci > 0}
    reqs.add(phi_request(1, Fraction(1)))
    return reqs


def _method_tables(t, cache):
    """Assemble the coefficients from the cache entries in its basis."""
    def coefficient(combo):
        m = 0.0
        for alpha, j, scale in combo.terms:
            m = m + float(alpha) * cache.get(j, scale, eigenbasis=True)
        return m

    stage_phi1 = {i: cache.get(1, t.node(i), eigenbasis=True)
                  for i in range(2, t.s + 1) if t.node(i) > 0}
    a_co = {key: coefficient(v) for key, v in t.a.items() if v.terms}
    b_co = {i: coefficient(v) for i, v in t.b.items() if v.terms}
    return cache.get(1, Fraction(1), eigenbasis=True), stage_phi1, a_co, b_co


def _eval_g(pb, t, u):
    out = np.asarray(pb.g(t, u), dtype=float)
    if out.shape != u.shape:
        raise ValueError(f"g(t, u) returned shape {out.shape}, expected {u.shape}")
    return out


def _advance(pb, t, cache, tables, tn, un):
    phi1_full, stage_phi1, a_co, b_co = tables
    h = cache.h
    act, to_basis, from_basis = cache.apply, cache.to_basis, cache.from_basis
    gn = _eval_g(pb, tn, un)
    fn = to_basis(pb.A.matvec(un) + gn)
    d = {}
    stages = []
    for i in range(2, t.s + 1):
        ci = float(t.node(i))
        acc = (ci * h) * act(stage_phi1[i], fn) if ci > 0 else np.zeros_like(fn)
        for j in range(2, i):
            am = a_co.get((i, j))
            if am is not None:
                acc = acc + h * act(am, d[j])
        u_i = un + from_basis(acc)
        d[i] = to_basis(_eval_g(pb, tn + ci * h, u_i) - gn)
        stages.append(u_i)
    acc = h * act(phi1_full, fn)
    for i, bm in b_co.items():
        acc = acc + h * act(bm, d[i])
    u_next = un + from_basis(acc)
    if not np.all(np.isfinite(u_next)):
        raise BlowUpError(f"non-finite state after step from t = {tn}")
    return u_next, stages


def step(pb, t, cache, tn, un, return_stages=False):
    """Advance one step of size cache.h from (tn, un).

    The cache must have been built for pb.A (fingerprints are compared) and
    must cover required_requests(t); no phi function is evaluated here.
    """
    if not isinstance(cache, PhiCache):
        raise TypeError("cache must be a PhiCache")
    if cache.fingerprint != pb.A.fingerprint:
        raise CacheMismatchError("cache was built for a different operator")
    un = np.asarray(un, dtype=float)
    if un.shape != (cache.n,):
        raise ValueError("state dimension does not match the cache")
    tables = _method_tables(t, cache)
    u_next, stages = _advance(pb, t, cache, tables, tn, un)
    return (u_next, tuple(stages)) if return_stages else u_next


def integrate(pb, t, n_steps, record="final"):
    """Run n_steps constant steps from t0 to t_end.

    record selects the return value: "none" gives the bare final state,
    "final" a StepRecord, "trajectory" the list of StepRecords including the
    initial state.  The phi cache is built once, for h = (t_end - t0)/n_steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record not in ("none", "final", "trajectory"):
        raise ValueError("record must be one of none | final | trajectory")
    if not isinstance(t, ExpRKTableau):
        raise TypeError("t must be an ExpRKTableau")
    h = (pb.t_end - pb.t0) / n_steps
    cache = build_phi_cache(pb.A, h, required_requests(t))
    tables = _method_tables(t, cache)
    un = pb.u0.copy()
    out = [StepRecord(pb.t0, un.copy())]
    for k in range(n_steps):
        tn = pb.t0 + k * h
        try:
            un, _ = _advance(pb, t, cache, tables, tn, un)
        except BlowUpError as exc:
            raise BlowUpError(f"blow-up at step {k} (t = {tn})", step_index=k) from exc
        if record == "trajectory":
            out.append(StepRecord(pb.t0 + (k + 1) * h, un.copy()))
    if record == "none":
        return un
    if record == "final":
        return StepRecord(pb.t_end, un)
    return out
