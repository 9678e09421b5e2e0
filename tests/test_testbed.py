"""Heat test problem: manufactured solution, error metric, stability bound."""

import numpy as np
import pytest

from conftest import not_integers
from exprk.integrator import SemilinearProblem
from exprk.operators import DenseOperator, DiagonalOperator, ZeroOperator
from exprk.testbed import (Grid1D, discrete_l2_error, heat_forcing,
                           heat_problem, problem_by_name,
                           stability_bound_check)


def test_grid():
    grid = Grid1D(4)
    assert grid.n == 4
    assert grid.dx == pytest.approx(0.2)
    assert grid.x == pytest.approx([0.2, 0.4, 0.6, 0.8])
    with pytest.raises(ValueError):
        Grid1D(1)


@pytest.mark.parametrize("n, error", not_integers(2))
def test_grid_size_is_read_as_an_integer(n, error):
    """Grid1D(2.5) had 2 points: int() truncated it."""
    with pytest.raises(error, match="^n must be "):
        Grid1D(n)


@pytest.mark.parametrize("n, error", not_integers(2))
def test_heat_problem_size_is_read_as_an_integer(n, error):
    """heat_problem(5.7) had 5 points and was named "heat5.7"."""
    with pytest.raises(error, match="^n must be "):
        heat_problem(n)


def test_numpy_integer_grid_size_is_the_int():
    grid = Grid1D(np.int64(4))
    assert type(grid.n) is int and np.array_equal(grid.x, Grid1D(4).x)
    pb, want = heat_problem(np.int64(20)), heat_problem(20)
    assert pb.name == "heat20"
    assert np.array_equal(pb.u0, want.u0) and np.array_equal(pb.A.dense(), want.A.dense())


def test_heat_problem_structure():
    pb = heat_problem(200)
    assert pb.name == "heat200"
    assert pb.A.n == 200
    inv_dx2 = 201.0 ** 2
    assert pb.A.diag == pytest.approx(np.full(200, -2.0 * inv_dx2))
    assert pb.A.off == pytest.approx(np.full(199, inv_dx2))
    assert pb.A.eigenvalues().max() < 0.0
    x = Grid1D(200).x
    assert pb.u0 == pytest.approx(x * (1.0 - x))
    assert pb.exact(0.0) == pytest.approx(pb.u0)
    assert (pb.t0, pb.t_end) == (0.0, 1.0)


def test_forcing_value_and_shape():
    assert heat_forcing(0.0, 0.0) == pytest.approx(1.0)
    x = np.linspace(0.1, 0.9, 7)
    out = heat_forcing(x, 0.5)
    assert out.shape == (7,)


def test_forcing_satisfies_pde():
    """u = x(1-x)e^t solves u_t - u_xx = 1/(1+u^2) + Phi pointwise."""
    rng = np.random.default_rng(11)
    for x, t in rng.uniform(0.0, 1.0, (20, 2)):
        u = x * (1.0 - x) * np.exp(t)
        u_t = u
        u_xx = -2.0 * np.exp(t)
        rhs = 1.0 / (1.0 + u * u) + heat_forcing(x, t)
        assert abs(u_t - u_xx - rhs) <= 1e-13


def test_stencil_exact_on_quadratic():
    """The central-difference operator maps x(1-x) to exactly -2."""
    pb = heat_problem(200)
    assert np.abs(pb.A.matvec(pb.u0) + 2.0).max() <= 1e-10


def test_exact_solution_solves_ode_system():
    """The grid restriction of u solves u' = Au + g up to roundoff.

    The residual floor is eps * ||A|| * ||u|| with ||A|| about 1.6e5 on 200
    points, so 1e-12 is not reachable in float64; 2.5e-11 covers it with
    margin (measured max 1.3e-11).
    """
    pb = heat_problem(200)
    for t in (0.0, 0.37, 1.0):
        u = pb.exact(t)
        residual = u - (pb.A.matvec(u) + pb.g(t, u))
        assert np.abs(residual).max() <= 2.5e-11


def test_problem_by_name():
    assert problem_by_name("heat200").A.n == 200
    assert problem_by_name("heat50").A.n == 50
    with pytest.raises(ValueError):
        problem_by_name("wave200")


def test_discrete_l2_error():
    pb = heat_problem(50)
    assert discrete_l2_error(pb.u0, pb, 0.0) == 0.0
    eps = 1e-3
    err = discrete_l2_error(pb.u0 + eps, pb, 0.0)
    assert err == pytest.approx(eps * np.sqrt(50.0 / 51.0), rel=1e-12)
    bare = SemilinearProblem(A=ZeroOperator(2), g=lambda t, u: u,
                             u0=np.zeros(2))
    with pytest.raises(ValueError):
        discrete_l2_error(np.zeros(2), bare, 0.0)


@pytest.mark.parametrize("u", [[0.1], np.zeros((50, 50)), np.zeros(49), np.zeros(51)],
                         ids=["one-element", "50x50", "length-49", "length-51"])
def test_discrete_l2_error_reads_u_as_a_state(u):
    """[0.1] broadcast against the exact solution with dx = 1/2 (2.0545 on
    heat50), a 50 x 50 u broadcast too (0.5011), and a length-49 u raised
    numpy's broadcast error, which did not name u."""
    with pytest.raises(ValueError, match=r"^u has shape \(.*\), expected \(50,\)$"):
        discrete_l2_error(u, heat_problem(50), 0.0)


@pytest.mark.parametrize("t, dtype", [(1 + 0j, "complex128"), ("0.5", "<U3"), (True, "bool")],
                         ids=["complex", "str", "bool"])
def test_discrete_l2_error_reads_t_as_a_real_number(t, dtype):
    """t = 1+0j gave the t = 1 error with numpy's ComplexWarning, and "0.5"
    raised the unnamed "ufunc 'exp' not supported"."""
    with pytest.raises(TypeError, match=rf"^t must be real, got dtype {dtype}$"):
        discrete_l2_error(np.zeros(50), heat_problem(50), t)


def test_discrete_l2_error_of_a_nan_state_is_nan():
    pb = heat_problem(50)
    assert np.isnan(discrete_l2_error(np.full(50, np.nan), pb, 0.0))


def test_stability_bound_zero_operator():
    assert stability_bound_check(ZeroOperator(5), 0.1, 10) == 0.0


def test_stability_bound_scalar_closed_form():
    lam, h, n = -1.7, 0.3, 5
    x = h * lam
    brute = abs(x * sum(np.exp(j * x) for j in range(1, n + 1)))
    got = stability_bound_check(DiagonalOperator(np.array([lam])), h, n)
    assert got == pytest.approx(brute, abs=1e-14)


def test_stability_bound_heat_operator():
    """hA sum_j e^{jhA} stays below 1 for the stiff heat operator."""
    a = heat_problem(200).A
    frozen = {1e-3: 0.995021936630304, 1e-2: 0.951415337557574,
              1e-1: 0.586382516435892}
    for h, want in frozen.items():
        got = stability_bound_check(a, h, int(round(1.0 / h)))
        assert got <= 1.0 + 1e-12
        assert got == pytest.approx(want, rel=1e-6)


def test_stability_bound_dense_operator_matches_tridiagonal():
    """The dense route (DenseOperator.eigenvalues, eigvalsh) agrees with the
    tridiagonal one; the gap is at most 1.6e-13 relative."""
    a = heat_problem(50).A
    dense = DenseOperator(a.dense())
    for h in (1e-3, 1e-2, 1e-1):
        n = int(round(1.0 / h))
        want = stability_bound_check(a, h, n)
        assert stability_bound_check(dense, h, n) == pytest.approx(want, rel=1e-12, abs=0)


def test_stability_bound_rejects_a_nonsymmetric_dense_operator():
    a = -2.0 * np.eye(4) + np.eye(4, k=1)
    with pytest.raises(ValueError, match="symmetric"):
        stability_bound_check(DenseOperator(a), 0.1, 5)


def test_stability_bound_validation():
    a = DiagonalOperator(np.array([-1.0]))
    with pytest.raises(ValueError):
        stability_bound_check(a, 0.0, 5)
    with pytest.raises(ValueError):
        stability_bound_check(a, 0.1, 0)
    with pytest.raises(ValueError):
        stability_bound_check(DiagonalOperator(np.array([0.5])), 0.1, 5)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
def test_stability_bound_rejects_a_step_that_is_not_finite(h):
    with pytest.raises(ValueError, match="finite h > 0"):
        stability_bound_check(DiagonalOperator(np.array([-1.0])), h, 5)


@pytest.mark.parametrize("h", ["0.1", True, 0.1 + 0j])
def test_stability_bound_reads_its_step_as_a_real_number(h):
    """A str, bool or complex step is a TypeError naming h, not numpy's
    unnamed ufunc error or a step of 1.0."""
    with pytest.raises(TypeError, match="^h must be real, got dtype "):
        stability_bound_check(DiagonalOperator(np.array([-1.0])), h, 5)


@pytest.mark.parametrize("n", [2.5, 5.0, True, "5"])
def test_stability_bound_rejects_a_step_count_that_is_not_an_integer(n):
    with pytest.raises(TypeError, match="n must be an integer"):
        stability_bound_check(DiagonalOperator(np.array([-1.0])), 0.1, n)
