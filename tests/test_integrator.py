"""Stepper and fixed-step driver: exactness, consistency, equivalences."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conftest import EighTridiagonal, rk_integrate
from golden import advdiff_problem
import exprk.integrator
from exprk.integrator import (BlowUpError, SemilinearProblem, Stepper,
                              StepRecord, integrate, required_requests)
from exprk.operators import (DenseOperator, DiagonalOperator, SineBasis,
                             SymTridiagonalOperator, ZeroOperator)
from exprk.order_conditions import check
from exprk.phi import PhiRequest
from exprk.tableau import ExpRKTableau, classical_limit, get_tableau
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
    u1 = Stepper(pb, t, h)(0.0, pb.u0)
    assert np.abs(u1 - np.exp(h * lam) * pb.u0).max() <= 1e-14


def test_step_matches_classical_limit_at_a_zero(tab5):
    pb = SemilinearProblem(A=ZeroOperator(1), g=lambda t, u: u,
                           u0=np.array([1.0]), t0=0.0, t_end=0.1)
    got = integrate(pb, tab5, 1).u[0]
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
        u1 = Stepper(pb, t, h)(0.0, u0)
        f0 = a.matvec(u0) + g(0.0, u0)
        errs.append(np.linalg.norm(u1 - (u0 + h * f0)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert np.log10(e_coarse / e_fine) == pytest.approx(2.0, abs=0.1)


def test_step_returns_stages(tab5):
    pb = _nonstiff_problem()
    u1, stages = Stepper(pb, tab5, 0.125)(0.0, pb.u0, return_stages=True)
    assert len(stages) == 7  # stages 2..8; stage 1 is never materialized
    assert all(s.shape == (1,) for s in stages)
    assert np.isfinite(u1).all()


def test_stepper_validates_state_and_tableau(tab5):
    pb = _nonstiff_problem()
    stepper = Stepper(pb, tab5, 0.125)
    with pytest.raises(ValueError, match=r"state has shape \(3,\), expected \(1,\)"):
        stepper(0.0, np.ones(3))
    with pytest.raises(TypeError):
        Stepper(pb, "expRK5s8", 0.125)


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_stepper_calls_equal_integrate(name):
    """n calls on one Stepper are integrate's n steps, bit for bit."""
    pb = heat_problem(30)
    t = get_tableau(name)
    n = 5
    stepper = Stepper(pb, t, (pb.t_end - pb.t0) / n)
    u = pb.u0
    for k in range(n):
        u = stepper(pb.t0 + k * stepper.h, u)
    assert np.array_equal(u, integrate(pb, t, n).u)


def test_integrate_builds_one_cache(monkeypatch, tab5):
    builds = []
    build = exprk.integrator.build_phi_cache
    monkeypatch.setattr(exprk.integrator, "build_phi_cache",
                        lambda *args: builds.append(args) or build(*args))
    integrate(heat_problem(20), tab5, 8)
    assert len(builds) == 1


def test_stage_order_of_the_entries_moves_no_bit(tab5):
    """expRK5s8 with a and b given in reverse stage order is the same
    tableau: the same integrate states, bit for bit, on the spectral and
    the dense route, and the same check() rows."""
    rev = ExpRKTableau(name=tab5.name, c=tab5.c, a=dict(reversed(tab5.a.items())),
                       b=dict(reversed(tab5.b.items())))
    assert rev == tab5
    for pb in (heat_problem(200), advdiff_problem(50)):
        assert np.array_equal(integrate(pb, rev, 16).u, integrate(pb, tab5, 16).u), pb.name
    assert check(rev).rows == check(tab5).rows


# ---------------------------------------------------------------------------
# integrate()

def test_integrate_returns_the_final_record(tab5):
    pb = _nonstiff_problem()
    rec = integrate(pb, tab5, 4)
    assert isinstance(rec, StepRecord)
    assert rec.t == pb.t_end
    # the trajectory is a Stepper loop; integrate is its last state
    stepper = Stepper(pb, tab5, 0.25)
    traj = [pb.u0]
    for k in range(4):
        traj.append(stepper(pb.t0 + k * stepper.h, traj[-1]))
    assert np.array_equal(rec.u, traj[-1])
    with pytest.raises(TypeError):
        integrate(pb, tab5, 4, record="final")
    with pytest.raises(ValueError):
        integrate(pb, tab5, 0)
    with pytest.raises(TypeError):
        integrate(pb, "expRK5s8", 4)


@pytest.mark.parametrize("bad, error", [(2.5, TypeError), ("4", TypeError),
                                        (True, TypeError), (0, ValueError),
                                        (-3, ValueError)])
def test_integrate_rejects_bad_step_counts(monkeypatch, tab5, bad, error):
    """A step count that is not an integer >= 1 fails before any phi work."""
    monkeypatch.setattr(exprk.integrator, "build_phi_cache",
                        lambda *args: pytest.fail("built a phi cache"))
    with pytest.raises(error, match="n_steps"):
        integrate(_nonstiff_problem(), tab5, bad)


def test_integrate_accepts_numpy_integer_step_counts(tab5):
    pb = _nonstiff_problem()
    got = integrate(pb, tab5, np.int64(3))
    assert np.array_equal(got.u, integrate(pb, tab5, 3).u)


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
@pytest.mark.parametrize("n_steps", [1, 7, 32])
def test_linear_exactness_on_heat_operator(heat200, name, n_steps):
    """With g = 0 the scheme applies e^{TA} exactly, whatever the step count."""
    a = heat200.A
    pb = SemilinearProblem(A=a, g=lambda t, u: np.zeros_like(u),
                           u0=heat200.u0, t_end=1.0)
    w, v = a.eigendecomposition()
    want = v @ (np.exp(w) * (v.T @ pb.u0))
    got = integrate(pb, get_tableau(name), n_steps).u
    assert np.abs(got - want).max() <= 1e-10


def test_heat_error_regression(heat200, tab5):
    u = integrate(heat200, tab5, 256).u
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
        direct = integrate(pb, tab5, n_steps).u
        lifted = integrate(pb_aug, tab5, n_steps).u
        assert np.abs(direct - lifted[:n]).max() <= 1e-9
        assert lifted[n] == pytest.approx(pb.t_end, abs=1e-13)


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_classical_limit_equivalence_nonstiff(name):
    """With the zero operator the scheme is its classical-limit RK method."""
    g = lambda t, u: np.cos(u) + np.sin(t)
    pb = SemilinearProblem(A=ZeroOperator(1), g=g, u0=np.array([0.3]),
                           t_end=1.0)
    t = get_tableau(name)
    got = integrate(pb, t, 20).u[0]
    want = rk_integrate(classical_limit(t), g, [0.3], 0.0, 1.0, 20)[0]
    assert abs(got - want) <= 1e-12


def test_nonstiff_fifth_order(tab5):
    """Error ratios on a nonstiff scalar problem double-halve at fifth order."""
    ref_rk4 = rk_integrate(_rk4_butcher(), lambda t, u: -u + np.cos(u),
                           [1.0], 0.0, 1.0, 2000)[0]
    assert abs(ref_rk4 - NONSTIFF_REF) <= 1e-11
    pb = _nonstiff_problem()
    errs = {n: abs(integrate(pb, tab5, n).u[0] - NONSTIFF_REF)
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
        errs.append(discrete_l2_error(integrate(pb, tab5, 16).u, pb, 1.0))
    assert max(errs) <= 1.05 * min(errs), errs


def test_error_is_independent_of_stiffness_to_heat64000(tab5):
    """The same claim at 4 steps, where the error stays far above the
    rounding floor that grows with N at 64 steps, out to ||A|| ~ 1.6e10."""
    errs = []
    for n in (50, 200, 2000, 8000, 16000, 32000, 64000):
        pb = heat_problem(n)
        errs.append(discrete_l2_error(integrate(pb, tab5, 4).u, pb, 1.0))
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
    got = integrate(SemilinearProblem(A=op, g=g, u0=u0), t, 8).u
    want = integrate(SemilinearProblem(A=DenseOperator(op.dense()), g=g, u0=u0), t, 8).u
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
    got = integrate(pb, tab5, 64).u
    ref = dataclasses.replace(pb, A=EighTridiagonal(pb.A.diag, pb.A.off))
    want = integrate(ref, tab5, 64).u
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
