"""Stepper and fixed-step driver: exactness, consistency, equivalences."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conftest import EighTridiagonal, rk_integrate
from exprk.integrator import (BlowUpError, CacheMismatchError,
                              SemilinearProblem, StepRecord, integrate,
                              required_requests, step)
from exprk.operators import (DenseOperator, DiagonalOperator, SineBasis,
                             SymTridiagonalOperator, ZeroOperator)
from exprk.phi import CacheMissError, PhiRequest, build_phi_cache
from exprk.tableau import classical_limit, get_tableau
from exprk.testbed import discrete_l2_error, heat_problem

F = Fraction

# u(1) for u' = -u + cos(u), u(0) = 1, frozen from a 30-digit Taylor-series
# integration; the test cross-checks it against a classical RK4 run before
# using it as the error reference.
NONSTIFF_REF = 0.7859378172445924


def _nonstiff_problem():
    return SemilinearProblem(A=DiagonalOperator(np.array([-1.0])),
                             g=lambda t, u: np.cos(u), u0=np.array([1.0]),
                             t0=0.0, t_end=1.0, name="nonstiff")


def _rk4_butcher():
    from exprk.tableau import ButcherTableau
    z = F(0)
    return ButcherTableau(
        name="rk4",
        c=(z, F(1, 2), F(1, 2), F(1)),
        a=((z, z, z, z), (F(1, 2), z, z, z), (z, F(1, 2), z, z),
           (z, z, F(1), z)),
        b=(F(1, 6), F(1, 3), F(1, 3), F(1, 6)))


# ---------------------------------------------------------------------------
# request enumeration

def test_required_requests_baselines():
    assert required_requests(get_tableau("expEuler")) == {PhiRequest(1, F(1))}
    assert required_requests(get_tableau("expRK2s2")) == {
        PhiRequest(1, F(1, 2)), PhiRequest(1, F(1)), PhiRequest(2, F(1))}


def test_required_requests_exprk5s8(tab5):
    reqs = required_requests(tab5)
    nodes = {F(1, 2), F(1, 4), F(1, 5), F(2, 3), F(1)}
    want = {PhiRequest(1, s) for s in nodes}
    want |= {PhiRequest(2, s) for s in nodes}
    want |= {PhiRequest(3, s) for s in (F(1, 2), F(1, 5), F(2, 3), F(1))}
    want |= {PhiRequest(4, s) for s in (F(1, 5), F(2, 3), F(1))}
    assert reqs == want
    assert len(reqs) == 17


# ---------------------------------------------------------------------------
# single steps

@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_step_is_exact_for_linear_diagonal(name):
    lam = np.array([-3.0, -1.0, 0.5])
    a = DiagonalOperator(lam)
    pb = SemilinearProblem(A=a, g=lambda t, u: np.zeros_like(u),
                           u0=np.array([1.0, -2.0, 0.7]), t_end=1.0)
    t = get_tableau(name)
    h = 0.3
    cache = build_phi_cache(a, h, required_requests(t))
    u1 = step(pb, t, cache, 0.0, pb.u0)
    assert np.abs(u1 - np.exp(h * lam) * pb.u0).max() <= 1e-14


def test_step_matches_classical_limit_at_a_zero(tab5):
    pb = SemilinearProblem(A=ZeroOperator(1), g=lambda t, u: u,
                           u0=np.array([1.0]), t0=0.0, t_end=0.1)
    got = integrate(pb, tab5, 1, record="none")[0]
    want = rk_integrate(classical_limit(tab5), lambda t, u: u,
                        [1.0], 0.0, 0.1, 1)[0]
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_step_consistency_order(name):
    """One step approaches u + h F(t, u) at second order as h -> 0."""
    rng = np.random.default_rng(7)
    a = DiagonalOperator(rng.uniform(-2.0, -0.5, 5))
    w = rng.uniform(-1.0, 1.0, (5, 5))
    g = lambda t, u: np.tanh(w @ u) + np.sin(t) * np.ones(5)
    u0 = rng.uniform(-1.0, 1.0, 5)
    pb = SemilinearProblem(A=a, g=g, u0=u0, t_end=1.0)
    t = get_tableau(name)
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        cache = build_phi_cache(a, h, required_requests(t))
        u1 = step(pb, t, cache, 0.0, u0)
        f0 = a.matvec(u0) + g(0.0, u0)
        errs.append(np.linalg.norm(u1 - (u0 + h * f0)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert np.log10(e_coarse / e_fine) == pytest.approx(2.0, abs=0.1)


def test_step_returns_stages(tab5):
    pb = _nonstiff_problem()
    cache = build_phi_cache(pb.A, 0.125, required_requests(tab5))
    u1, stages = step(pb, tab5, cache, 0.0, pb.u0, return_stages=True)
    assert len(stages) == 7  # stages 2..8; stage 1 is never materialized
    assert all(s.shape == (1,) for s in stages)
    assert np.isfinite(u1).all()


def test_step_validates_cache(tab5):
    pb = _nonstiff_problem()
    other = DiagonalOperator(np.array([-2.0]))
    cache = build_phi_cache(other, 0.125, required_requests(tab5))
    with pytest.raises(CacheMismatchError):
        step(pb, tab5, cache, 0.0, pb.u0)
    sparse_cache = build_phi_cache(pb.A, 0.125,
                                   required_requests(get_tableau("expEuler")))
    with pytest.raises(CacheMissError):
        step(pb, tab5, sparse_cache, 0.0, pb.u0)
    good = build_phi_cache(pb.A, 0.125, required_requests(tab5))
    with pytest.raises(ValueError):
        step(pb, tab5, good, 0.0, np.ones(3))
    with pytest.raises(TypeError):
        step(pb, tab5, {"not": "a cache"}, 0.0, pb.u0)


# ---------------------------------------------------------------------------
# integrate()

def test_integrate_record_modes(tab5):
    pb = _nonstiff_problem()
    bare = integrate(pb, tab5, 4, record="none")
    final = integrate(pb, tab5, 4, record="final")
    traj = integrate(pb, tab5, 4, record="trajectory")
    assert isinstance(bare, np.ndarray)
    assert isinstance(final, StepRecord)
    assert final.t == pb.t_end
    assert np.array_equal(final.u, bare)
    assert [r.t for r in traj] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(traj[0].u, pb.u0)
    assert np.array_equal(traj[-1].u, bare)
    with pytest.raises(ValueError):
        integrate(pb, tab5, 4, record="sometimes")
    with pytest.raises(ValueError):
        integrate(pb, tab5, 0)
    with pytest.raises(TypeError):
        integrate(pb, "expRK5s8", 4)


def test_integrate_single_step_equals_step(tab5):
    pb = _nonstiff_problem()
    cache = build_phi_cache(pb.A, 1.0, required_requests(tab5))
    direct = step(pb, tab5, cache, 0.0, pb.u0)
    assert np.array_equal(integrate(pb, tab5, 1, record="none"), direct)


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
@pytest.mark.parametrize("n_steps", [1, 7, 32])
def test_linear_exactness_on_heat_operator(heat200, name, n_steps):
    """With g = 0 the scheme applies e^{TA} exactly, whatever the step count."""
    a = heat200.A
    pb = SemilinearProblem(A=a, g=lambda t, u: np.zeros_like(u),
                           u0=heat200.u0, t_end=1.0)
    w, v = a.eigendecomposition()
    want = v @ (np.exp(w) * (v.T @ pb.u0))
    got = integrate(pb, get_tableau(name), n_steps, record="none")
    assert np.abs(got - want).max() <= 1e-10


def test_heat_error_regression(heat200, tab5):
    u = integrate(heat200, tab5, 256, record="none")
    err = discrete_l2_error(u, heat200, 1.0)
    assert err < 1e-8   # coarse guarantee the harness relies on
    assert err < 1e-13  # frozen regression bound (measured 4.4e-16)


def test_autonomization_equivalence(tab5):
    """Appending t as a state and solving autonomously changes nothing."""
    pb = heat_problem(20)
    n = pb.A.n
    aug = SymTridiagonalOperator(np.append(pb.A.diag, 0.0),
                                 np.append(pb.A.off, 0.0))

    def g_aug(t, v):
        out = np.empty(n + 1)
        out[:n] = pb.g(v[n], v[:n])
        out[n] = 1.0
        return out

    pb_aug = SemilinearProblem(A=aug, g=g_aug, u0=np.append(pb.u0, pb.t0),
                               t0=pb.t0, t_end=pb.t_end)
    for n_steps in (8, 16):
        direct = integrate(pb, tab5, n_steps, record="none")
        lifted = integrate(pb_aug, tab5, n_steps, record="none")
        assert np.abs(direct - lifted[:n]).max() <= 1e-9
        assert lifted[n] == pytest.approx(pb.t_end, abs=1e-13)


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_classical_limit_equivalence_nonstiff(name):
    """With the zero operator the scheme is its classical-limit RK method."""
    g = lambda t, u: np.cos(u) + np.sin(t)
    pb = SemilinearProblem(A=ZeroOperator(1), g=g, u0=np.array([0.3]),
                           t_end=1.0)
    t = get_tableau(name)
    got = integrate(pb, t, 20, record="none")[0]
    want = rk_integrate(classical_limit(t), g, [0.3], 0.0, 1.0, 20)[0]
    assert abs(got - want) <= 1e-12


def test_nonstiff_fifth_order(tab5):
    """Error ratios on a nonstiff scalar problem double-halve at fifth order."""
    ref_rk4 = rk_integrate(_rk4_butcher(), lambda t, u: -u + np.cos(u),
                           [1.0], 0.0, 1.0, 2000)[0]
    assert abs(ref_rk4 - NONSTIFF_REF) <= 1e-11
    pb = _nonstiff_problem()
    errs = {n: abs(integrate(pb, tab5, n, record="none")[0] - NONSTIFF_REF)
            for n in (8, 16, 32, 64, 128, 256)}
    checked = 0
    for n in (8, 16, 32, 64, 128):
        if errs[2 * n] > 1e-15:  # both errors resolvable in float64
            assert 4.6 <= np.log2(errs[n] / errs[2 * n]) <= 5.4, n
            checked += 1
    assert checked >= 4  # bases 8..64 must qualify; 128 saturates at ~1 ulp


def test_error_is_independent_of_stiffness(tab5):
    """The paper's claim: the error constant of expRK5s8 does not grow with
    ||A||, so at fixed h the error is the same on every grid."""
    errs = []
    for n in (50, 200, 1000, 2000, 4000, 8000):
        pb = heat_problem(n)
        errs.append(discrete_l2_error(integrate(pb, tab5, 16, record="none"), pb, 1.0))
    assert max(errs) <= 1.05 * min(errs), errs


def _route_operators():
    rng = np.random.default_rng(11)
    for n in (7, 19, 40):
        yield SymTridiagonalOperator(rng.uniform(-30.0, -1.0, n), rng.uniform(-5.0, 5.0, n - 1))
    yield DiagonalOperator(np.array([-40.0, -3.0, 0.0, 1.5, -0.2]))
    yield ZeroOperator(6)


@pytest.mark.parametrize("name", ["expRK5s8", "expRK2s2", "expEuler"])
@pytest.mark.parametrize("op", list(_route_operators()), ids=lambda op: f"{type(op).__name__}{op.n}")
def test_spectral_route_matches_dense_route(name, op):
    rng = np.random.default_rng(op.n)
    w = rng.uniform(-1.0, 1.0, (op.n, op.n))
    g = lambda t, u: np.sin(w @ u) + np.cos(t)
    u0 = rng.uniform(-1.0, 1.0, op.n)
    t = get_tableau(name)
    got = integrate(SemilinearProblem(A=op, g=g, u0=u0), t, 8, record="none")
    want = integrate(SemilinearProblem(A=DenseOperator(op.dense()), g=g, u0=u0), t, 8,
                     record="none")
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _toeplitz_problem(n):
    """A constant-coefficient tridiagonal A with d != -2e, and a nonlinear g."""
    c = float(n + 1) ** 2
    a = SymTridiagonalOperator(np.full(n, -3.0 * c), np.full(n - 1, 0.8 * c))
    x = np.arange(1, n + 1) / (n + 1)
    return SemilinearProblem(A=a, g=lambda t, u: np.sin(u) + np.cos(t) * x,
                             u0=x * (1.0 - x))


@pytest.mark.parametrize("make", [lambda: heat_problem(600), lambda: heat_problem(1000),
                                  lambda: _toeplitz_problem(700)],
                         ids=["heat600", "heat1000", "toeplitz700"])
def test_sine_basis_route_matches_eigh_route(tab5, make):
    pb = make()
    assert isinstance(pb.A.eigendecomposition()[1], SineBasis)
    got = integrate(pb, tab5, 64, record="none")
    ref = dataclasses.replace(pb, A=EighTridiagonal(pb.A.diag, pb.A.off))
    want = integrate(ref, tab5, 64, record="none")
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [lambda u: np.ones(1), lambda u: u[:, None],
                                 lambda u: 1.0])
def test_g_of_wrong_shape_is_rejected(bad):
    pb = SemilinearProblem(A=DiagonalOperator(np.array([-1.0, -2.0, -3.0])),
                           g=lambda t, u: bad(u), u0=np.ones(3))
    for name in ("expRK5s8", "expEuler"):
        with pytest.raises(ValueError, match=r"g\(t, u\) returned shape .* expected \(3,\)"):
            integrate(pb, get_tableau(name), 2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_blow_up_aborts_with_step_index():
    pb = SemilinearProblem(A=ZeroOperator(1), g=lambda t, u: u * u,
                           u0=np.array([1e5]), t_end=1.0)
    with pytest.raises(BlowUpError) as exc:
        integrate(pb, get_tableau("expEuler"), 8)
    assert 0 <= exc.value.step_index < 8


def test_problem_validation():
    a = DiagonalOperator(np.array([-1.0, -2.0]))
    with pytest.raises(ValueError):
        SemilinearProblem(A=a, g=lambda t, u: u, u0=np.array([1.0]))
    with pytest.raises(ValueError):
        SemilinearProblem(A=a, g=lambda t, u: u, u0=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SemilinearProblem(A=a, g=lambda t, u: u, u0=np.zeros(2),
                          t0=1.0, t_end=1.0)
