"""Stepper and fixed-step driver: exactness, consistency, equivalences."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import EighTridiagonal, not_integers, rk_integrate
from golden import advdiff_problem
import exprk.integrator
from exprk.convergence import fit_slope, run_convergence
from exprk.integrator import (BlowUpError, SemilinearProblem, Stepper,
                              StepRecord, integrate, required_requests)
from exprk.operators import (DenseOperator, DiagonalOperator, SineBasis,
                             SymTridiagonalOperator, ZeroOperator, finite_array,
                             integer, real_scalar)
from exprk.order_conditions import ProbeSet, check
from exprk.phi import PhiRequest, build_phi_cache, phi_matrix, phi_matrix_table, phi_request
from exprk.tableau import ExpRKTableau, classical_limit, eval_combo, get_tableau, phi_term
from exprk.testbed import discrete_l2_error, heat_problem, stability_bound_check

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


@pytest.mark.parametrize("x", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_integer_reads_ints_and_numpy_integers_as_int(x):
    got = integer(x, "count", 3)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("x, error, message", [
    (2.5, TypeError, "count must be an integer, got 2.5"),
    (3.0, TypeError, "count must be an integer, got 3.0"),
    (True, TypeError, "count must be an integer, got True"),
    ("3", TypeError, "count must be an integer, got '3'"),
    (np.float64(3.0), TypeError, "count must be an integer, got np.float64(3.0)"),
    (2, ValueError, "count must be >= 3, got 2"),
    (np.int64(-1), ValueError, "count must be >= 3, got -1"),
])
def test_integer_refuses_what_is_not_an_integer_of_at_least_least(x, error, message):
    with pytest.raises(error) as info:
        integer(x, "count", 3)
    assert str(info.value) == message


@pytest.mark.parametrize("x", [0.25, 1, np.float32(0.25), np.int64(1), np.array(0.25),
                               Fraction(1, 4)])
def test_real_scalar_reads_a_real_number_as_a_float(x):
    got = real_scalar(x, "x")
    assert type(got) is float and got == float(x)


@pytest.mark.parametrize("x, error, message", [
    ([0.25], TypeError, "x must be a real scalar, got shape (1,)"),
    (np.zeros((2, 2)), TypeError, "x must be a real scalar, got shape (2, 2)"),
    (True, TypeError, "x must be real, got dtype bool"),
    (0.25j, TypeError, "x must be real, got dtype complex128"),
])
def test_real_scalar_refuses_what_is_not_one_real_number(x, error, message):
    with pytest.raises(error) as info:
        real_scalar(x, "x")
    assert str(info.value) == message


@pytest.mark.parametrize("x, shape", [([[1, 2], [3, 4]], (2, 2)), ([[1, 2]], (None, 2)),
                                      ([1, 2, 3], (None,)), (np.zeros((0, 3)), (None, None))])
def test_finite_array_reads_a_finite_array_of_the_shape(x, shape):
    got = finite_array(x, "x", shape)
    assert got.dtype == float and np.array_equal(got, np.asarray(x, dtype=float))


@pytest.mark.parametrize("x, shape, message", [
    (np.zeros(3), (2,), "x has shape (3,), expected (2,)"),
    (np.zeros((2, 3)), (None, 2), "x has shape (2, 3), expected (None, 2)"),
    (np.zeros(4), (None, None), "x has shape (4,), expected (None, None)"),
    (np.zeros((1, 1)), (None,), "x has shape (1, 1), expected (None,)"),
    (np.array([0.0, np.nan]), (None,), "x has a non-finite entry"),
    (np.array([[-np.inf]]), (1, 1), "x has a non-finite entry"),
])
def test_finite_array_refuses_another_shape_or_a_non_finite_entry(x, shape, message):
    with pytest.raises(ValueError) as info:
        finite_array(x, "x", shape)
    assert str(info.value) == message


def _problem(**kw):
    return SemilinearProblem(**{"A": ZeroOperator(2), "g": lambda t, u: u,
                                "u0": np.zeros(2), **kw})


# Every real scalar a caller passes, read by operators.real_scalar.  eval_combo
# reads its z so only where np.ndim(z) == 0, and sends an array down its
# matrix route, so it has no row here.
REAL_SCALAR_SITES = {
    "tolerance": lambda x: check(get_tableau("expEuler"), tolerance=x),
    "floor": lambda x: fit_slope((), x),
    "run_convergence-floor": lambda x: run_convergence("expEuler", heat_problem(4), (8,), x),
    "stability_bound_check-h": lambda x: stability_bound_check(heat_problem(4).A, x, 3),
    "build_phi_cache-h": lambda x: build_phi_cache(ZeroOperator(2), x, [(1, 1)]),
    "phi_matrix_table-h": lambda x: phi_matrix_table(-np.eye(2), x, [phi_request(1, 1)]),
    "t0": lambda x: _problem(t0=x, t_end=2.0),
    "t_end": lambda x: _problem(t_end=x),
    "discrete_l2_error-t": lambda x: discrete_l2_error(np.zeros(4), heat_problem(4), x),
}


@pytest.mark.parametrize("x", [np.array([0.1, 0.2]), [0.1]], ids=["two", "one-element-list"])
@pytest.mark.parametrize("site", REAL_SCALAR_SITES)
def test_real_scalar_sites_refuse_an_array_naming_it(site, x):
    """An array of two numbers got numpy's unnamed "only 0-dimensional
    arrays can be converted" (or, for t0 and t_end, an ambiguous truth
    value), and a one-element list passed with a DeprecationWarning."""
    message = rf"^{site.rpartition('-')[2]} must be a real scalar, got shape \({len(x)},\)$"
    with pytest.raises(TypeError, match=message):
        REAL_SCALAR_SITES[site](x)


@pytest.mark.parametrize("h, error, message", [
    ("0.5", TypeError, "^h must be real, got dtype <U3$"),
    (-1, ValueError, "^step size must be positive and finite$"),
    (np.inf, ValueError, "^step size must be positive and finite$"),
])
def test_phi_matrix_table_reads_its_step_size_as_build_phi_cache_does(h, error, message):
    """phi_matrix_table took h as given: "0.5" raised the unnamed
    "unsupported operand type(s) for /", and h = -1 built phi of -M."""
    for make in (lambda: phi_matrix_table(-np.eye(2), h, [phi_request(1, 1)]),
                 lambda: build_phi_cache(DenseOperator(-np.eye(2)), h, [(1, 1)])):
        with pytest.raises(error, match=message):
            make()


@pytest.mark.parametrize("interval, error, message", [
    ({"t0": "0"}, TypeError, "t0 must be real, got dtype <U1"),
    ({"t0": True}, TypeError, "t0 must be real, got dtype bool"),
    ({"t_end": "1"}, TypeError, "t_end must be real, got dtype <U1"),
    ({"t_end": True}, TypeError, "t_end must be real, got dtype bool"),
    ({"t_end": 1 + 0j}, TypeError, "t_end must be real, got dtype complex128"),
    ({"t_end": np.inf}, ValueError, "need finite t0 < t_end, got t0 = 0.0, t_end = inf"),
    ({"t0": -np.inf}, ValueError, "need finite t0 < t_end, got t0 = -inf, t_end = 1.0"),
    ({"t0": np.nan}, ValueError, "need finite t0 < t_end, got t0 = nan, t_end = 1.0"),
    ({"t0": 1, "t_end": 1.0}, ValueError, "need finite t0 < t_end, got t0 = 1.0, t_end = 1.0"),
    ({"t0": 2.0, "t_end": 1}, ValueError, "need finite t0 < t_end, got t0 = 2.0, t_end = 1.0"),
])
def test_problem_interval_is_rejected_at_construction(interval, error, message):
    """t_end=True was stored as True and t_end=inf failed only in integrate,
    when the phi cache was built ("step size must be positive and finite")."""
    with pytest.raises(error) as info:
        _problem(**interval)
    assert str(info.value) == message


def test_problem_stores_its_interval_as_floats():
    pb = _problem(t0=np.int64(-1), t_end=2)
    assert (type(pb.t0), type(pb.t_end)) == (float, float) and (pb.t0, pb.t_end) == (-1.0, 2.0)


def test_problem_operator_must_be_a_linear_operator():
    """An ndarray A failed with AttributeError: 'numpy.ndarray' object has no
    attribute 'n'."""
    with pytest.raises(TypeError, match="^A must be a LinearOperator, got ndarray$"):
        _problem(A=np.eye(2))


def test_problem_nonlinearity_must_be_callable():
    """g=None failed at the first step: 'NoneType' object is not callable."""
    with pytest.raises(TypeError, match="^g must be callable, got None$"):
        _problem(g=None)


def _probe_set(name, x):
    mats = {k: np.zeros((2, 2)) for k in "ZJKL"} | {"B": np.zeros((2, 2, 2))}
    return ProbeSet(2, **(mats | {name: x}))


# Every array a caller passes whose entries must be finite, read by
# operators.finite_array: a shape it must have and a shape it must not.
FINITE_ARRAY_SITES = {
    "u0": ((2,), (3,), lambda x: _problem(u0=x)),
    "DiagonalOperator-diag": ((2,), (2, 2), DiagonalOperator),
    "SymTridiagonalOperator-diag": ((2,), (2, 2), lambda x: SymTridiagonalOperator(x, np.ones(1))),
    "off": ((1,), (2,), lambda x: SymTridiagonalOperator(-np.ones(2), x)),
    "a": ((2, 2), (2,), DenseOperator),
    **{f"probe {k}": ((2, 2), (3, 3), lambda x, k=k: _probe_set(k, x)) for k in "ZJKL"},
    "probe B": ((2, 2, 2), (2, 2), lambda x: _probe_set("B", x)),
    "phi_matrix-M": ((2, 2), (2, 2, 2), lambda x: phi_matrix(1, x)),
    "phi_matrix_table-M": ((2, 2), (2,), lambda x: phi_matrix_table(x, 1.0, [phi_request(1, 1)])),
    "eval_combo-z": ((2, 2), (2,), lambda x: eval_combo(phi_term(1, 1), x)),
}


@pytest.mark.parametrize("site", FINITE_ARRAY_SITES)
def test_finite_array_sites_refuse_another_shape_naming_it(site):
    """Each message was the site's own ("diagonal must be a finite 1-d array",
    "matrix must be square", "probe Z must be finite 2x2", ...), most of
    them naming no argument."""
    _, wrong, make = FINITE_ARRAY_SITES[site]
    name = re.escape(site.rpartition("-")[2])
    with pytest.raises(ValueError, match=rf"^{name} has shape {re.escape(str(wrong))}, expected "):
        make(np.zeros(wrong))


@pytest.mark.parametrize("site", FINITE_ARRAY_SITES)
def test_finite_array_sites_refuse_a_nan_entry_naming_it(site):
    shape, _, make = FINITE_ARRAY_SITES[site]
    x = np.zeros(shape)
    x.flat[-1] = np.nan
    name = re.escape(site.rpartition("-")[2])
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry$"):
        make(x)


@pytest.mark.parametrize("make", [lambda: DiagonalOperator([]),
                                  lambda: SymTridiagonalOperator([], [])],
                         ids=["diagonal", "tridiagonal"])
def test_an_empty_diagonal_is_refused_naming_diag(make):
    """SymTridiagonalOperator([], []) said "off has shape (0,), expected
    (-1,)", naming the off diagonal for an empty main diagonal."""
    with pytest.raises(ValueError, match="^diag must not be empty$"):
        make()


@pytest.mark.parametrize("d", [-2.0, 3.5e7, -1e-300, 0.0, 7.123456789])
def test_a_1x1_tridiagonal_operator_steps_as_the_diagonal_one(d):
    """n = 1 takes eigh_tridiagonal's route, with no branch of its own:
    w = [d] and V = [[1]], so four expRK5s8 steps (with |hd| <= 1/4) give
    the diagonal operator's result exactly."""
    tri, diag = SymTridiagonalOperator([d], []), DiagonalOperator([d])
    w, v = tri.eigendecomposition()
    assert np.array_equal(w, diag.eigendecomposition()[0]) and np.array_equal(v, np.eye(1))
    got, want = (integrate(SemilinearProblem(A=a, g=lambda t, u: -u ** 2, u0=[0.5],
                                             t_end=1.0 / max(1.0, abs(d))),
                           get_tableau("expRK5s8"), 4).u for a in (tri, diag))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [ZeroOperator, SineBasis])
@pytest.mark.parametrize("n, error", not_integers(1))
def test_operator_dimension_is_read_as_an_integer(make, n, error):
    """ZeroOperator(2.5) had n = 2 and ZeroOperator(True) n = 1; SineBasis
    truncated its n alike."""
    with pytest.raises(error, match="^n must be "):
        make(n)


def test_numpy_integer_operator_dimension_is_the_int():
    a = ZeroOperator(np.int64(3))
    assert type(a.n) is int and a.n == 3 and a.fingerprint == ZeroOperator(3).fingerprint
    assert np.array_equal(np.asarray(SineBasis(np.int64(3))), np.asarray(SineBasis(3)))


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
