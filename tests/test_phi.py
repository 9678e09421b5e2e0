"""Phi-function evaluation: scalar routes, matrix routes, oracles, cache."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.linalg

import exprk.phi
from conftest import (EighTridiagonal, QuadratureError, advdiff_matrix, augmented_phi,
                      dense_phi, phi_quadrature_oracle, phi_symmetric)
from exprk.integrator import SemilinearProblem, Stepper, integrate, required_requests
from exprk.operators import (DST_MIN_N, DenseOperator, DiagonalOperator,
                             SineBasis, SymTridiagonalOperator, ZeroOperator)
from exprk.order_conditions import ProbeSet
from exprk.phi import (LOG_FLOAT_MAX, PHI_TAYLOR_RADIUS, CacheMissError, PhiCache,
                       PhiRequest, build_phi_cache, phi_matrix, phi_matrix_table,
                       phi_request, phi_scalar)
from exprk.tableau import eval_combo, get_tableau, phi_term
from exprk.testbed import discrete_l2_error, heat_forcing, heat_problem

ORACLE_GRID = [-50.0, -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0]


# ---------------------------------------------------------------------------
# scalar values

@pytest.mark.parametrize("j", range(0, 7))
def test_phi_at_zero_is_inverse_factorial(j):
    assert phi_scalar(j, 0.0) == pytest.approx(1.0 / factorial(j), abs=1e-16)


def test_phi_small_values():
    assert phi_scalar(0, 1.0) == pytest.approx(np.e, rel=1e-15)
    assert phi_scalar(1, 1.0) == pytest.approx(np.e - 1.0, rel=1e-15)
    assert phi_scalar(2, 0.0) == 0.5


@pytest.mark.parametrize("j", range(1, 6))
@pytest.mark.parametrize("z", ORACLE_GRID)
def test_phi_scalar_matches_quadrature_oracle(j, z):
    assert abs(phi_scalar(j, z) - phi_quadrature_oracle(j, z)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j", range(1, 8))
@pytest.mark.parametrize("z", [700.0, 710.0, 715.0, 740.0])
def test_phi_scalar_large_positive_argument(j, z):
    """Past exp overflow phi_j stays finite and accurate while it is
    representable (it overflows for j <= 4 at z = 740)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(z)
        want = mpmath.exp(x) / x ** j - sum(x ** (k - j) / mpmath.factorial(k)
                                            for k in range(j))
    got = phi_scalar(j, z)
    if want > np.finfo(float).max:
        assert got == np.inf
    else:
        assert abs(got - float(want)) <= 1e-14 * float(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j", range(0, 8))
def test_phi_scalar_overflow_edge(j):
    """Where phi_j(z) exceeds the largest float a real z gives +inf, not nan
    or an exception; -inf gives 0 and nan stays nan, all without warning."""
    past = [np.nextafter(2 * LOG_FLOAT_MAX, np.inf), 1500.0, np.inf]
    if j == 0:
        past += [np.nextafter(LOG_FLOAT_MAX, np.inf), 800.0]
    for z in past:
        assert phi_scalar(j, z) == np.inf, z
    assert phi_scalar(j, -np.inf) == 0.0
    assert np.isnan(phi_scalar(j, np.nan))
    with pytest.raises(OverflowError, match=rf"phi_{j}.*scale 1/2, h = 2\.0"):
        build_phi_cache(DiagonalOperator(np.array([1500.0, -1.0])), 2.0, [(j, Fraction(1, 2))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j,z", [(8, 710.0), (20, 800.0), (50, 1000.0), (100, 1400.0),
                                 (100, 2 * LOG_FLOAT_MAX)])
def test_phi_scalar_large_index_past_exp_overflow(j, z):
    """Past exp overflow phi_j(z) stays finite and accurate for large j too;
    at the j = 100 points z^j alone exceeds the largest float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(z)
        want = float(mpmath.exp(x) / x ** j
                     - sum(x ** (k - j) / mpmath.factorial(k) for k in range(j)))
    assert abs(phi_scalar(j, z) - want) <= 1e-13 * want


# Negative arguments log-spaced out to the stiffest step of heat8000
# (z ~ -1.6e7 / 16), arguments dense around the Taylor switch at |z| = 1, and
# positive arguments up to 50.
PHI_SWEEP_Z = np.concatenate([-np.logspace(-4, 7, 111),
                              np.linspace(-1.1, -0.9, 41), np.linspace(0.9, 1.1, 41),
                              np.logspace(-4, np.log10(50.0), 61)])


def _mp_phi(mpmath, j, z):
    """phi_j(z) in 50-digit arithmetic: the Taylor series for |z| < 1, the
    closed form (e^z - sum_{k<j} z^k/k!)/z^j elsewhere."""
    with mpmath.workdps(50):
        x = mpmath.mpf(z)
        if abs(x) < 1:
            return sum(x ** m / mpmath.factorial(m + j) for m in range(60))
        return (mpmath.exp(x) - sum(x ** k / mpmath.factorial(k) for k in range(j))) / x ** j


@pytest.mark.parametrize("j", range(0, 8))
def test_phi_scalar_matches_mpmath_sweep(j):
    """Relative error at most 2e-12 over [-1e7, 50]; the worst measured is
    1.14e-12, at j = 7 and z = 1.02, just past the Taylor switch."""
    mpmath = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny  # e^z underflows for j = 0 and z < -708
    for z in PHI_SWEEP_Z:
        want = float(_mp_phi(mpmath, j, z))
        assert abs(phi_scalar(j, z) - want) <= 2e-12 * abs(want) + tiny, (j, z)


@pytest.mark.parametrize("j", range(0, 8))
def test_phi_is_real_only(j):
    """Every real z gives a float, the value of float(z); a complex z, of
    any type, and a str raise TypeError, in phi_scalar and eval_combo."""
    for z in PHI_SWEEP_Z.tolist():
        got = phi_scalar(j, z)
        assert type(got) is float
        assert phi_scalar(j, np.float64(z)) == got, z
        n = int(z)
        assert phi_scalar(j, n) == phi_scalar(j, float(n)), n
    assert (phi_scalar(j, True), phi_scalar(j, False)) == (phi_scalar(j, 1.0), phi_scalar(j, 0.0))
    assert all(type(phi_scalar(j, z)) is float for z in (np.float64(0.5), 3, True))
    combo = phi_term(Fraction(1), max(j, 1), Fraction(1, 2))
    for z in (0.5 + 0j, np.complex128(0.5), np.array(0.5 + 1j), "0.5"):
        with pytest.raises(TypeError):
            phi_scalar(j, z)
        with pytest.raises(TypeError):
            eval_combo(combo, z)


_C2 = np.array([[-1.0, 0.5j], [0.0, -2.0]])
_R2 = np.array([[-1.0, 0.5], [0.0, -2.0]])


def _probe(**mats):
    d = {name: np.eye(2) for name in "ZJKL"}
    return ProbeSet(2, **{**d, "B": np.zeros((2, 2, 2)), **mats})


@pytest.mark.parametrize("name, call", [
    ("a", lambda: DenseOperator(_C2)),
    ("diag", lambda: DiagonalOperator(np.array([-1.0, 1j]))),
    ("diag", lambda: SymTridiagonalOperator(np.array([-2.0, -2j]), np.ones(1))),
    ("off", lambda: SymTridiagonalOperator(-2.0 * np.ones(2), np.array([1j]))),
    ("u0", lambda: SemilinearProblem(A=ZeroOperator(2), g=lambda t, u: u,
                                     u0=np.array([1.0, 1j]))),
    ("g(t, u)", lambda: integrate(SemilinearProblem(A=ZeroOperator(2), g=lambda t, u: u + 1j,
                                                    u0=np.ones(2)), get_tableau("expEuler"), 1)),
    ("probe Z", lambda: _probe(Z=_C2)),
    ("probe B", lambda: _probe(B=np.zeros((2, 2, 2)) + 1j)),
    ("M", lambda: phi_matrix(1, _C2)),
    ("M", lambda: phi_matrix_table(_C2, 1.0, EXPRK5S8_REQUESTS)),
    ("z", lambda: eval_combo(phi_term(Fraction(1), 1), _C2)),
    ("h", lambda: build_phi_cache(DenseOperator(_R2), np.complex128(0.5), [(1, 1)])),
    ("table entry", lambda: PhiCache({(1, 1): _C2})),
    ("un", lambda: Stepper(heat_problem(4), get_tableau("expEuler"), 0.1)(0.0, np.ones(4) + 1j)),
    ("x", lambda: heat_forcing(np.array([0.5j]), 0.0)),
    ("u", lambda: discrete_l2_error(np.ones(4) + 1j, heat_problem(4), 0.0)),
    ("x", lambda: SineBasis(2) @ (np.ones(2) + 1j)),
] + [("u", lambda op=op: op.matvec(np.ones(2) + 1j))
     for op in (ZeroOperator(2), DiagonalOperator(-np.ones(2)), DenseOperator(_R2),
                SymTridiagonalOperator(-2.0 * np.ones(2), np.ones(1)))],
    ids=["dense", "diagonal", "tridiagonal-diag", "tridiagonal-off", "u0", "g", "probe-Z",
         "probe-B", "phi_matrix", "phi_matrix_table", "eval_combo", "h", "PhiCache", "Stepper",
         "heat_forcing", "discrete_l2_error", "SineBasis", "matvec-zero", "matvec-diagonal",
         "matvec-dense", "matvec-tridiagonal"])
def test_complex_input_is_rejected_not_truncated(name, call):
    """Each entry point raises TypeError naming the complex argument, before
    numpy could warn and drop its imaginary part."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TypeError, match=f"^{re.escape(name)} must be real"):
            call()
    assert caught == []


@pytest.mark.parametrize("j", range(1, 6))
def test_branch_continuity_at_taylor_radius(j):
    """Series and recurrence agree where the evaluation branch switches."""
    r = PHI_TAYLOR_RADIUS
    for z in (r - 1e-9, r + 1e-9, -(r - 1e-9), -(r + 1e-9)):
        # both branches must sit on the one true function value
        assert abs(phi_scalar(j, z) - phi_quadrature_oracle(j, z)) <= 1e-13


@pytest.mark.parametrize("z", [-30.0, -2.0, -0.5, 0.25, 0.999, 1.001, 4.0])
@pytest.mark.parametrize("j", range(0, 5))
def test_scalar_recurrence_identity(j, z):
    """phi_{j+1}(z) = (phi_j(z) - 1/j!)/z away from z = 0."""
    lhs = phi_scalar(j + 1, z)
    rhs = (phi_scalar(j, z) - 1.0 / factorial(j)) / z
    assert abs(lhs - rhs) <= 1e-13


def test_phi_scalar_rejects_negative_index():
    with pytest.raises(ValueError):
        phi_scalar(-1, 0.5)


@pytest.mark.parametrize("j", [True, False, 2.0, 2.5, "2", Fraction(2)])
def test_phi_index_that_is_not_an_integer_is_rejected(j):
    """A bool would name phi_1 or phi_0 and a float another phi, so both
    scalar and matrix routes read j through phi_index."""
    with pytest.raises(TypeError, match="phi index must be an integer"):
        phi_scalar(j, 0.5)
    with pytest.raises(TypeError, match="phi index must be an integer"):
        phi_matrix(j, np.eye(2))


@pytest.mark.parametrize("j", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_phi_index_is_the_int(j):
    m = _random_symmetric(3, seed=5)
    for z in (0.5, -2.0, 800.0):
        assert phi_scalar(j, z) == phi_scalar(3, z)
    assert np.array_equal(phi_matrix(j, m), phi_matrix(3, m))


def test_quadrature_oracle_raises_when_tolerance_uncertifiable():
    # phi_1(5) is about 29.5; adaptive quadrature cannot certify 1e-16
    # absolute error there, and the oracle must refuse rather than guess.
    with pytest.raises(QuadratureError):
        phi_quadrature_oracle(1, 5.0, tol=1e-16)
    with pytest.raises(ValueError):
        phi_quadrature_oracle(0, 1.0)


# ---------------------------------------------------------------------------
# matrix values

def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, n))
    return (m + m.T) / 2.0


@pytest.mark.parametrize("j", range(1, 5))
@pytest.mark.parametrize("n", [2, 7, 20])
def test_phi_matrix_matches_spectral_oracle(j, n):
    m = _random_symmetric(n, seed=100 + 10 * j + n)
    got = phi_matrix(j, m)
    want = phi_symmetric(j, m)
    denom = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() / denom <= 1e-10


def test_phi_matrix_recurrence_identity():
    """Matrix recurrence phi_{j+1}(M) = (phi_j(M) - I/j!) M^{-1}."""
    m = _random_symmetric(5, seed=4) + 4.0 * np.eye(5)  # keep M well-invertible
    for j in range(1, 4):
        lhs = phi_matrix(j + 1, m)
        rhs = np.linalg.solve(m.T, (phi_matrix(j, m) - np.eye(5) / factorial(j)).T).T
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_phi_matrix_agrees_with_scalar_on_diagonal():
    d = np.diag([-3.0, -0.2, 1.5])
    for j in (1, 2, 3, 4):
        want = np.diag([phi_scalar(j, z) for z in (-3.0, -0.2, 1.5)])
        assert np.abs(phi_matrix(j, d) - want).max() <= 1e-13


def test_matrix_exp_is_j0_route():
    m = _random_symmetric(4, seed=9)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(np.linalg.eigvalsh(phi_matrix(0, m)), np.exp(w), atol=1e-12)


@pytest.mark.parametrize("func", [pytest.param(lambda m: phi_matrix(0, m), id="matrix_exp"),
                                  lambda m: phi_matrix(1, m)])
def test_matrix_routes_validate_input(func):
    with pytest.raises(ValueError):
        func(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        func(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        func(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_phi_matrix_rejects_negative_index():
    with pytest.raises(ValueError):
        phi_matrix(-1, np.eye(2))


def _phi_matrices(jmax, m):
    """[phi_0(M), ..., phi_jmax(M)] from the one chain on M that
    phi_matrix_table runs for these requests."""
    table = phi_matrix_table(m, 1.0, [phi_request(k, 1) for k in range(jmax + 1)])
    return [table[k, 1] for k in range(jmax + 1)]


@pytest.mark.parametrize("norm", [0.0, 0.3, 1.0, 1.5, 40.0, 900.0])
def test_phi_matrices_match_augmented_exponential(norm):
    """Every phi_k up to jmax = 4, with no squaring (||M||_1 <= 3) and with
    up to nine; phi_matrix(j, M) is, bit for bit, the table built for jmax
    = j (the Taylor coefficients depend on jmax, so another jmax rounds
    differently)."""
    m = np.random.default_rng(17).standard_normal((6, 6)) - 2.0 * np.eye(6)
    m *= norm / np.abs(m).sum(axis=0).max()
    got = _phi_matrices(4, m)
    assert len(got) == 5
    for k, val in enumerate(got):
        want = augmented_phi(k, m)
        assert np.abs(val - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(phi_matrix(4, m), got[4])
    for j in (0, 3):
        assert np.array_equal(phi_matrix(j, m), _phi_matrices(j, m)[j]), j


def test_stacked_squaring_chain_matches_each_matrix_alone():
    """A stack whose members scale by different s (a zero matrix and
    ||M||_1 = 0.3, 3 and 1e3, out of s order) holds per member exactly what
    the chain, and the walk from Y to its multiples, on that member alone
    compute.  Of three diagonal members, the first loses e^-400 from
    phi_0(M), below 2^-511 and below 2^-200 of its e^-0.5, and keeps
    phi_1(-400); the second keeps e^-400..e^-401, all that its phi_0(M)
    holds, as the flush floor is each matrix's own; the third keeps e^-150,
    below its floor but above 2^-511, as the flush trigger is each matrix's
    own."""
    rng = np.random.default_rng(5)
    members = [np.zeros((3, 3))]
    for norm in (3.0, 1e3, 0.3):
        # eigenvalues in the left half-plane, so phi stays bounded at 1e3
        m = -(np.eye(3) + 0.4 * rng.uniform(-1.0, 1.0, (3, 3)))
        members.append(norm * m / np.abs(m).sum(axis=0).max())
    members += [np.diag([-0.5, -400.0, -1.0]), np.diag([-400.0, -400.5, -401.0]),
                np.diag([-0.5, -150.0, -1.0])]
    chain = exprk.phi._squaring_chain(np.stack(members), 4)
    assert chain.shape == (len(members), 5, 3, 3)
    assert chain[4, 0, 1, 1] == 0.0 and 0 < chain[4, 1, 1, 1] < 1.0
    assert np.all(np.diag(chain[5, 0]) > 0) and chain[6, 0, 1, 1] > 0
    # the walk from Y to 3Y and 10Y (and Y itself), and one that only
    # doubles, which overwrites its base: each walks a copy
    walks = [{1: [3], 3: [1, 4], 10: [0, 2]}, {2: [0], 4: [1, 4]}]
    walked = [exprk.phi._walk(chain.copy(), targets) for targets in walks]
    for k, m in enumerate(members):
        alone = exprk.phi._squaring_chain(m, 4)
        assert alone.shape == (1, 5, 3, 3)
        assert np.array_equal(chain[k], alone[0]), k
        for targets, got in zip(walks, walked):
            mine = exprk.phi._walk(alone.copy(), targets)
            assert mine.keys() == got.keys()
            for key in mine:
                assert got[key].shape == (len(members), 3, 3)
                assert np.array_equal(got[key][k], mine[key][0]), (k, key)


# OEIS A003313: the length l(n) of a shortest addition chain for n = 1..64
SHORTEST_CHAIN_LENGTHS = [0, 1, 2, 2, 3, 3, 4, 3, 4, 4, 5, 4, 5, 5, 5, 4,
                          5, 5, 6, 5, 6, 6, 6, 5, 6, 6, 6, 6, 7, 6, 7, 5,
                          6, 6, 7, 6, 7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 8, 6,
                          7, 7, 7, 7, 8, 7, 8, 7, 8, 8, 8, 7, 8, 8, 8, 6]


def _binary_digit_steps(targets):
    """Steps of a walk along each target's binary digits, common prefixes
    shared: the members t > 1 reached from t by t -> t/2 or t - 1."""
    members = set()
    for t in targets:
        while t > 1 and t not in members:
            members.add(t)
            t = t - 1 if t % 2 else t // 2
    return len(members)


def _chain_members(targets):
    """The members after 1 of _addition_chain(targets), after checking that
    each step adds two earlier members, p >= q, the chain ascends and
    holds every target."""
    steps = exprk.phi._addition_chain(frozenset(targets))
    chain = [1]
    for p, q in steps:
        assert p >= q and p in chain and q in chain, (p, q, chain)
        assert p + q > chain[-1], (p, q, chain)
        chain.append(p + q)
    assert set(targets) <= set(chain)
    return chain[1:]


def test_addition_chain_through_the_expRK5s8_multiples():
    """1/5, 1/4, 1/2, 2/3 and 1 are 12Y, 15Y, 30Y, 40Y and 60Y: 9 steps,
    where the binary digits take 14."""
    assert _chain_members({12, 15, 30, 40, 60}) == [2, 4, 5, 10, 12, 15, 30, 40, 60]
    assert _binary_digit_steps({12, 15, 30, 40, 60}) == 14
    assert _chain_members({1}) == []


@pytest.mark.parametrize("n", range(1, 65))
def test_addition_chain_to_one_target_is_shortest(n):
    assert len(_chain_members({n})) == SHORTEST_CHAIN_LENGTHS[n - 1]


def test_addition_chain_is_never_longer_than_the_binary_digits():
    rng = np.random.default_rng(23)
    for _ in range(200):
        targets = {int(t) for t in rng.choice(np.arange(1, 65), rng.integers(1, 7), replace=False)}
        assert len(_chain_members(targets)) <= _binary_digit_steps(targets), targets


def test_addition_chain_search_stops_at_its_node_limit(monkeypatch):
    """Past PHI_CHAIN_SEARCH_NODES chains visited the walk follows the
    binary digits: for the 277 that expRK5s8's multiples take, with a limit
    of 100, and for nodes 1/7, 3/11, 1/13, 1/2, 5/6 and 1, multiples of
    Y = hM/6006, with the limit as it is (about 0.3 s)."""
    large = {462, 858, 1638, 3003, 5005, 6006}
    assert len(_chain_members(large)) == _binary_digit_steps(large)
    exprk.phi._addition_chain.cache_clear()
    monkeypatch.setattr(exprk.phi, "PHI_CHAIN_SEARCH_NODES", 100)
    try:
        assert len(_chain_members({12, 15, 30, 40, 60})) == 14
    finally:
        exprk.phi._addition_chain.cache_clear()


@pytest.mark.parametrize("p, q", [(10, 2), (30, 10)])
def test_combine_adds_unequal_multiples(p, q):
    """A walk step from pY and qY with q > 1, on Y = hA/60 of advdiff50 at
    h = 1/64, against augmented expm at (p + q)Y: measured at most 7.8e-15
    of the largest entry."""
    y = advdiff_matrix(50, beta=20.0) / 64 / 60
    p_phis, q_phis = exprk.phi._squaring_chain(p * y, 4), exprk.phi._squaring_chain(q * y, 4)
    out, scratch = np.empty_like(p_phis), np.empty((1, 50, 50))
    exprk.phi._combine(p_phis, q_phis, p, q, out, scratch)
    for j in range(5):
        want = augmented_phi(j, (p + q) * y)
        assert np.abs(out[0, j] - want).max() <= 1e-13 * np.abs(want).max(), j


def _mp_augmented_phis(mpmath, j, m):
    """[phi_0(M), ..., phi_j(M)] from one 40-digit mpmath exponential of the
    augmented matrix, M rounded to floats first."""
    n = m.shape[0]
    with mpmath.workdps(40):
        w = mpmath.zeros(n * (j + 1))
        for r in range(n):
            for c in range(n):
                w[r, c] = mpmath.mpf(float(m[r, c]))
        for k in range(j * n):
            w[k, k + n] = 1
        e = mpmath.expm(w)
        return [np.array([[float(e[r, k * n + c]) for c in range(n)] for r in range(n)])
                for k in range(j + 1)]


def _mp_cases():
    """Non-normal test matrices with ||M||_1 from 13 to 860, and the bound on
    the error of the dense route relative to the largest entry."""
    rng = np.random.default_rng(7)
    gauss5 = 3.0 * rng.standard_normal((5, 5))
    # eigenvalues -1..-700 under off-diagonal entries up to about 100, rotated
    # so that it is not triangular: the hard case for squaring
    tri = np.diag([-1.0, -10.0, -100.0, -700.0]) + np.triu(50.0 * rng.standard_normal((4, 4)), 1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return {"gauss5": (gauss5, 1e-14),
            "jordan4": (-20.0 * np.eye(4) + 30.0 * np.eye(4, k=1), 1e-14),
            "advdiff5": (4.0 * advdiff_matrix(5, 20.0), 1e-14),
            "stiff4": (q @ tri @ q.T, 1e-12)}


def test_taylor_step_truncates_below_one_over_18_factorial():
    """The chain's Taylor step at ||X||_1 <= theta drops terms of at most
    theta^M/M! (M terms; the (M + j)! of phi_j only shrinks it), which
    stays within the 1/18! of 18 terms at ||X||_1 <= 1."""
    theta, terms = exprk.phi.PHI_SQUARING_THETA, exprk.phi.PHI_SQUARING_TERMS
    assert theta ** terms / factorial(terms) <= 1.0 / factorial(18)


def _at_theta(m):
    """m scaled to a 1-norm of PHI_SQUARING_THETA, or a rounding below it."""
    theta = exprk.phi.PHI_SQUARING_THETA
    m = theta * m / np.abs(m).sum(axis=-2).max(axis=-1)[..., None, None]
    while np.abs(m).sum(axis=-2).max() > theta:
        m = np.nextafter(m, 0.0)
    return m


def _taylor_cases():
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    tri = np.diag([-1.0, -10.0, -100.0, -700.0]) + np.triu(50.0 * rng.standard_normal((4, 4)), 1)
    r, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return {"symmetric-negative-definite": q @ np.diag(-np.logspace(0, 3, 6)) @ q.T,
            # spectral radius = 1-norm = theta: the truncated terms at their largest
            "diagonal-at-theta": np.diag([-3.0, -1.5, -0.1, 0.5]),
            "stiff-non-normal": r @ tri @ r.T,
            "probe-stack": rng.uniform(-1.0, 1.0, (5, 3, 3))}


@pytest.mark.parametrize("case", ["symmetric-negative-definite", "diagonal-at-theta",
                                  "stiff-non-normal", "probe-stack"])
def test_taylor_step_matches_mpmath_at_theta(monkeypatch, case):
    """At ||X||_1 = theta the chain does not square, so its phi_0..phi_4 are
    the Paterson-Stockmeyer Taylor step and the recurrence alone; each is
    within 1e-14 of 40-digit mpmath, relative to its largest entry.  The
    chain with jmax = 0 sums exp's own series, whose truncation is the
    largest (theta^M/M!)."""
    mpmath = pytest.importorskip("mpmath")
    m = _at_theta(_taylor_cases()[case])
    combines = []
    monkeypatch.setattr(exprk.phi, "_combine", lambda *args: combines.append(args))
    chains = {jmax: exprk.phi._squaring_chain(m, jmax) for jmax in (0, 4)}
    assert combines == []
    for k, member in enumerate(m.reshape((-1,) + m.shape[-2:])):
        wants = _mp_augmented_phis(mpmath, 4, member)
        for jmax, got in chains.items():
            for j in range(jmax + 1):
                err = np.abs(got[k, j] - wants[j]).max()
                assert err <= 1e-14 * np.abs(wants[j]).max(), (k, jmax, j)


def test_empty_stack_gives_empty_entries():
    """A (0, 3, 3) stack has (0, 3, 3) entries, through a walk that adds Y
    as well as the bare chain."""
    for keys in ([phi_request(1, 1)], EXPRK5S8_REQUESTS):
        table = phi_matrix_table(np.zeros((0, 3, 3)), 1.0, keys)
        assert table.keys() == set(keys)
        assert all(val.shape == (0, 3, 3) for val in table.values())


@pytest.mark.parametrize("j", [1, 4])
@pytest.mark.parametrize("case", ["gauss5", "jordan4", "advdiff5", "stiff4"])
def test_phi_matrices_match_mpmath(case, j):
    """Measured at most 4.2e-16 on the first three (advdiff5 squares eight
    times).  On stiff4 it is 1.2e-14 (j = 1) and 6.6e-16 (j = 4), where
    scipy's augmented expm gives 6.5e-14 and 2.1e-14, and the chain that
    stopped squaring at ||X||_1 <= 1 gave 1.7e-13 and 6.0e-14."""
    mpmath = pytest.importorskip("mpmath")
    m, bound = _mp_cases()[case]
    want = _mp_augmented_phis(mpmath, j, m)[j]
    assert np.abs(_phi_matrices(j, m)[j] - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("case", ["gauss5", "jordan4", "advdiff5", "stiff4"])
def test_exprk5s8_table_matches_mpmath(case):
    """Every entry of expRK5s8's table, each walked from Y = M/60, within
    the case's bound.  Measured at most 3.6e-15 on the first three (gauss5
    at scale 1) and 2.9e-14 on stiff4 (at 2/3); with a chain and a walk per
    scale family, and the chain squaring to ||X||_1 <= 1, it was 9.5e-16
    and 1.7e-13 (stiff4 at scale 1)."""
    mpmath = pytest.importorskip("mpmath")
    m, bound = _mp_cases()[case]
    table = phi_matrix_table(m, 1.0, EXPRK5S8_REQUESTS)
    for scale in sorted({s for _, s in EXPRK5S8_REQUESTS}):
        wants = _mp_augmented_phis(mpmath, 4, float(scale) * m)
        for j in {j for j, s in EXPRK5S8_REQUESTS if s == scale}:
            want = wants[j]
            assert np.abs(table[j, scale] - want).max() <= bound * np.abs(want).max(), (j, scale)


# ---------------------------------------------------------------------------
# requests and cache

def test_phi_request_normalizes_to_exact_rationals():
    r = phi_request(2, 0.5)
    assert r == PhiRequest(2, Fraction(1, 2))
    assert phi_request(np.int64(3), Fraction(2, 3)).j == 3
    with pytest.raises(ValueError):
        phi_request(1, 0.0)
    with pytest.raises(ValueError):
        phi_request(1, 1.5)
    with pytest.raises(ValueError):
        phi_request(-1, 1)
    # int(1.7) would request phi_1, and True is not an index
    for j in (1.7, 1.0, True):
        with pytest.raises(TypeError, match="phi index must be an integer"):
            phi_request(j, 1)


def test_phi_request_reads_a_float_scale_through_its_repr():
    """0.2 is the scale 1/5, as a tableau reads it, not the binary value of
    the float 0.2."""
    assert phi_request(1, 0.2).scale == Fraction(1, 5)
    assert phi_request(1, np.float64(0.2)).scale == Fraction(1, 5)


def test_phi_request_rejects_a_bool_scale():
    with pytest.raises(TypeError, match="cannot interpret True as an exact rational"):
        phi_request(1, True)


def test_cache_built_with_a_float_scale_is_hit_by_its_fraction():
    for op in (DiagonalOperator(np.array([-1.0, -2.0])), DenseOperator(np.diag([-1.0, -2.0]))):
        cache = build_phi_cache(op, 0.5, [(1, 0.2)])
        assert cache.keys() == {PhiRequest(1, Fraction(1, 5))}
        assert np.allclose(np.diag(dense_phi(cache, 1, Fraction(1, 5))),
                           [phi_scalar(1, -0.1), phi_scalar(1, -0.2)], rtol=1e-14, atol=0)


REQS = [(1, Fraction(1, 2)), (1, Fraction(1)), (2, Fraction(1)),
        (3, Fraction(1, 4)), (0, Fraction(1))]


def _cache_reference(a_dense, h):
    """Augmented-exponential phi matrices used to cross-check every route."""
    return {(j, s): augmented_phi(j, float(s) * h * a_dense) for j, s in REQS}


def test_cache_routes_agree_across_operator_variants():
    rng = np.random.default_rng(21)
    n, h = 6, 0.37
    diag = rng.uniform(-3.0, -0.5, n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    tri = SymTridiagonalOperator(diag, off)
    dense = DenseOperator(tri.dense())
    ref = _cache_reference(tri.dense(), h)
    for op in (tri, dense):
        cache = build_phi_cache(op, h, [phi_request(j, s) for j, s in REQS])
        for key, want in ref.items():
            assert np.abs(dense_phi(cache, *key) - want).max() <= 1e-12


def test_cache_diagonal_and_zero_routes():
    h = 0.2
    d = DiagonalOperator(np.array([-4.0, -1.0, 0.5]))
    cache = build_phi_cache(d, h, [phi_request(j, s) for j, s in REQS])
    got = dense_phi(cache, 2, Fraction(1))
    want = np.diag([phi_scalar(2, h * z) for z in (-4.0, -1.0, 0.5)])
    assert np.abs(got - want).max() <= 1e-14

    z = ZeroOperator(3)
    cache = build_phi_cache(z, h, [phi_request(j, s) for j, s in REQS])
    for j, s in REQS:
        assert np.array_equal(dense_phi(cache, j, s), np.eye(3) / factorial(j))


def test_cache_form_follows_its_entries():
    """1-d entries make a spectral cache, which applies an entry
    elementwise, and 2-d entries a dense one, which applies it as a matrix;
    a table that mixes them is refused."""
    vec, mat = np.array([2.0, 3.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    spectral = PhiCache({(1, 1): vec, (2, Fraction(1, 2)): vec})
    assert spectral.spectral and spectral.apply(vec, np.array([1.0, 2.0])).tolist() == [2.0, 6.0]
    dense = PhiCache({(1, 1): mat, (2, Fraction(1, 2)): mat})
    assert not dense.spectral and dense.apply(mat, np.array([1.0, 2.0])).tolist() == [2.0, 1.0]
    with pytest.raises(ValueError, match="not both"):
        PhiCache({(1, 1): vec, (2, Fraction(1, 2)): mat})


def test_spectral_cache_holds_vectors_and_one_basis():
    rng = np.random.default_rng(5)
    n = 30
    tri = SymTridiagonalOperator(rng.uniform(-4.0, -1.0, n), rng.uniform(-1.0, 1.0, n - 1))
    cache = build_phi_cache(tri, 0.3, [phi_request(j, s) for j, s in REQS])
    assert cache.spectral
    w, v = tri.eigendecomposition()
    assert cache.basis is v
    for j, s in REQS:
        vec = cache.get(j, s)
        assert vec.shape == (n,)
        assert np.array_equal(vec, [phi_scalar(j, float(s) * 0.3 * x) for x in w])
    dense = [val for val in vars(cache).values()
             if isinstance(val, np.ndarray) and val.ndim == 2]
    assert all(val is v for val in dense)
    assert all(val.ndim == 1 for val in cache._table.values())

    d = DiagonalOperator(np.array([-1.0, 2.0]))
    cache = build_phi_cache(d, 0.5, [phi_request(1, 1)])
    assert cache.spectral and cache.basis is None
    assert cache.get(1, 1).shape == (2,)
    m = DenseOperator(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    cache = build_phi_cache(m, 0.5, [phi_request(1, 1)])
    assert not cache.spectral and cache.basis is None
    assert cache.get(1, 1).shape == (2, 2)


EXPRK5S8_REQUESTS = sorted(required_requests(get_tableau("expRK5s8")))


@pytest.mark.parametrize("n", [100, 400])
def test_dense_route_matches_spectral_route_on_heat(n):
    """||hA||_1 is 2.6e3 (n = 100) and 4.0e4 (n = 400) at h = 1/16; measured
    1.4e-13 and 8.3e-13 relative to the largest entry (9.6e-14 and 8.7e-13
    with a chain and a walk per scale family)."""
    a = heat_problem(n).A
    h = 1.0 / 16
    dense = build_phi_cache(DenseOperator(a.dense()), h, EXPRK5S8_REQUESTS)
    ref = build_phi_cache(EighTridiagonal(a.diag, a.off), h, EXPRK5S8_REQUESTS)
    assert not dense.spectral and ref.spectral
    for key in EXPRK5S8_REQUESTS:
        want = dense_phi(ref, *key)
        assert np.abs(dense.get(*key) - want).max() <= 1e-12 * np.abs(want).max(), key


def test_dense_route_matches_augmented_exponential_on_advection_diffusion():
    m = advdiff_matrix(50, beta=20.0)
    h = 1.0 / 64
    cache = build_phi_cache(DenseOperator(m), h, EXPRK5S8_REQUESTS)
    for j, s in EXPRK5S8_REQUESTS:
        want = augmented_phi(j, float(s) * h * m)
        assert np.abs(cache.get(j, s) - want).max() <= 1e-12 * np.abs(want).max(), (j, s)


def _count_work(monkeypatch):
    """Record every squaring chain run (its matrix and jmax), the multiple
    p + q that every walk step reaches, and the number of square matrix
    products (the mixing product's operand is not square)."""
    work = {"chains": [], "steps": [], "products": 0, "in_chain": False}
    chain, combine, matmul = exprk.phi._squaring_chain, exprk.phi._combine, np.matmul

    def counted_chain(m, jmax):
        work["chains"].append((m, jmax))
        work["in_chain"] = True
        try:
            return chain(m, jmax)
        finally:
            work["in_chain"] = False

    def counted_combine(p_phis, q_phis, p, q, out, mixed):
        if not work["in_chain"]:
            work["steps"].append(p + q)
        return combine(p_phis, q_phis, p, q, out, mixed)

    def counted_matmul(a, b, **kwargs):
        n = np.shape(a)[-1]
        if np.shape(a)[-2:] == np.shape(b)[-2:] == (n, n):
            work["products"] += math.prod(np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(exprk.phi, "_squaring_chain", counted_chain)
    monkeypatch.setattr(exprk.phi, "_combine", counted_combine)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    return work


def test_dense_cache_walks_the_non_dyadic_scales(monkeypatch):
    """expRK5s8 on advdiff200 at h = 1/64: one chain on Y = hA/60, with
    ||Y||_1 = 42.1 and so s = 4 (33 products: 9 for the Taylor step, 4 for
    the lower phis, 20 for the squarings), and 1/5 = 12Y, 1/4 = 15Y, 1/2 =
    30Y, 2/3 = 40Y and 1 = 60Y by one walk of 9 steps along a shortest
    addition chain (45): 78 n x n products, where a walk along the binary
    digits of each t took 14 steps and 103, a chain and a walk per scale
    family 167 and a chain per scale 223."""
    expms = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: expms.append(m) or expm(m))
    work = _count_work(monkeypatch)
    a, h = advdiff_matrix(200, beta=20.0), 1.0 / 64
    cache = build_phi_cache(DenseOperator(a), h, EXPRK5S8_REQUESTS)
    assert len(EXPRK5S8_REQUESTS) == 17 and len(cache) == 17
    [(y, jmax)] = work["chains"]
    assert np.array_equal(y, h / 60 * a) and jmax == 4
    assert work["steps"] == [2, 4, 5, 10, 12, 15, 30, 40, 60]
    assert work["products"] == 78
    assert expms == []
    for key in EXPRK5S8_REQUESTS:
        with pytest.raises(ValueError):
            cache.get(*key)[0] = 1.0


@pytest.mark.parametrize("n", [20, 50, 200])
def test_dyadic_scales_are_the_chain_on_each_scale_alone(n):
    """Where ||hM||_1 > theta 2^K, the chain on Y = hM/2^K starts from the
    same 2^-s hM as the chain on each dyadic scale 2^-k hM alone (k <= K),
    and the walk's doublings are that chain's last squarings, so every
    entry is that chain's, bit for bit."""
    m, h = advdiff_matrix(n, beta=20.0), 1.0 / 64
    theta = exprk.phi.PHI_SQUARING_THETA
    for keys in [[(1, 1), (2, Fraction(1, 2)), (3, Fraction(1, 4)), (0, 1)],
                 [(4, Fraction(1, 2)), (1, Fraction(1, 8))]]:
        keys = [phi_request(*key) for key in keys]
        jmax = max(j for j, _ in keys)
        assert np.abs(h * m).sum(axis=0).max() > theta * max(s.denominator for _, s in keys)
        table = phi_matrix_table(m, h, keys)
        assert len(table) == len(keys)
        for j, scale in keys:
            alone = exprk.phi._squaring_chain(float(scale) * h * m, jmax)
            assert np.array_equal(table[j, scale], alone[0, j]), (j, scale)


def test_phi_matrix_table_peak_memory():
    """The chain frees its Taylor powers before it squares, the walk frees
    each stack after its last read, and _combine's scratch is one n x n
    matrix: the table's tracemalloc peak stays below 34 n^2 floats.
    Measured 29.0, the same as with a walk that kept one released stack
    for its next step, and 29.2 with a walk along the binary digits of each
    multiple; 42.0 with a pool that kept every released stack and a
    (jmax + 1) n^2 mixing scratch, and 32.0 with a chain and a walk per
    scale family.  (Entries that are views of the walk's last stacks gave
    27.1, but the cache then holds those stacks whole, 21 n^2 floats for
    17 entries, for as long as it lives.)"""
    a = advdiff_matrix(200, beta=20.0)
    tracemalloc.start()
    try:
        phi_matrix_table(a, 1.0 / 64, EXPRK5S8_REQUESTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * a.size * 8


def _combine_outputs(monkeypatch):
    """Copies of every stack that _combine writes, in call order."""
    outs, combine = [], exprk.phi._combine

    def recorded(p_phis, q_phis, p, q, out, mixed):
        combine(p_phis, q_phis, p, q, out, mixed)
        outs.append(out.copy())

    monkeypatch.setattr(exprk.phi, "_combine", recorded)
    return outs


def _below_flush_floor(stack):
    """How many entries of a (live, jmax+1, n, n) stack are nonzero and below
    2^-200 times the largest entry of their own matrix, in the members whose
    phi_0 holds a nonzero entry below 2^-511."""
    mag = np.abs(stack)
    fire = ((mag[:, 0] > 0) & (mag[:, 0] < 2.0 ** -511)).any(axis=(-2, -1))
    floor = mag.max(axis=(-2, -1), keepdims=True) * 2.0 ** -200
    return int(np.count_nonzero(((mag > 0) & (mag < floor))[fire]))


def _below_flush_trigger(stack):
    """How many entries of a stack are nonzero and below 2^-511, so that
    the product of two of them is subnormal."""
    mag = np.abs(stack)
    return int(np.count_nonzero((mag > 0) & (mag < 2.0 ** -511)))


def _subnormal(stack):
    """How many entries of a stack are subnormal."""
    mag = np.abs(stack)
    return int(np.count_nonzero((mag > 0) & (mag < np.finfo(float).tiny)))


def test_flush_keeps_the_chains_out_of_subnormals_and_moves_no_bit(monkeypatch):
    """On advdiff200 at h = 1/64, without the flush, the chain's last three
    squarings leave entries below 2^-511, down to 5e-248, whose products in
    the next step are subnormal, and entries below 2^-200 of their matrix's
    largest.  (No stored entry is itself subnormal any more: the chain on
    hA/60 squares 4 times, where the old dyadic family's squared 10.)  With
    the flush, no stack _combine writes holds a subnormal entry, an entry
    below 2^-511, nor, where phi_0 triggers the flush, an entry in (0,
    2^-200 of its matrix's largest), and the 17 entries of expRK5s8's table
    are bit for bit those built with the flush off (the ratio 0).  The 13
    stacks are the chain's 4 squarings and the walk's 9 steps."""
    assert exprk.phi.PHI_FLUSH_RATIO == 2.0 ** -200
    assert exprk.phi.PHI_FLUSH_TRIGGER == 2.0 ** -511
    a, h = advdiff_matrix(200, beta=20.0), 1.0 / 64
    outs = _combine_outputs(monkeypatch)
    flushed = phi_matrix_table(a, h, EXPRK5S8_REQUESTS)
    assert len(outs) == 13
    assert [_subnormal(out) for out in outs] == [0] * 13
    assert [_below_flush_trigger(out) for out in outs] == [0] * 13
    assert [_below_flush_floor(out) for out in outs] == [0] * 13
    outs.clear()
    monkeypatch.setattr(exprk.phi, "PHI_FLUSH_RATIO", 0.0)
    kept = phi_matrix_table(a, h, EXPRK5S8_REQUESTS)
    assert sum(_below_flush_trigger(out) > 0 for out in outs) >= 3
    assert sum(_below_flush_floor(out) > 0 for out in outs) >= 3
    assert flushed.keys() == kept.keys()
    for key in kept:
        assert np.array_equal(flushed[key], kept[key]), key


@pytest.mark.parametrize("case", ["gauss5", "jordan4", "advdiff5", "stiff4"])
def test_flush_leaves_the_mpmath_case_tables_bit_identical(monkeypatch, case):
    m, _ = _mp_cases()[case]
    flushed = phi_matrix_table(m, 1.0, EXPRK5S8_REQUESTS)
    monkeypatch.setattr(exprk.phi, "PHI_FLUSH_RATIO", 0.0)
    kept = phi_matrix_table(m, 1.0, EXPRK5S8_REQUESTS)
    for key in kept:
        assert np.array_equal(flushed[key], kept[key]), key


def test_flush_leaves_a_uniformly_tiny_matrix_alone(monkeypatch):
    """The floor is relative to each matrix's own largest entry, so e^-400
    and e^-401 (about 1e-174, below the 2^-511 that triggers the flush) are
    kept, bit for bit as with the flush off,
    to the chain's accuracy: measured 3.2e-14 and 4.8e-14 relative, where
    e^x's condition number is |x| = 400."""
    m = np.diag([-400.0, -401.0])
    got = phi_matrix(0, m)
    want = np.exp([-400.0, -401.0])
    assert np.all(np.abs(np.diag(got) - want) <= 1e-13 * want)
    monkeypatch.setattr(exprk.phi, "PHI_FLUSH_RATIO", 0.0)
    assert np.array_equal(phi_matrix(0, m), got)


def _probe_sized_z():
    z = np.random.default_rng(11).uniform(-1.0, 1.0, (3, 3))
    return 0.8 * z / np.abs(z).sum(axis=0).max()


@pytest.mark.parametrize("m, h, requests, n_chains, steps", [
    # ||Z||_1 = 0.8 needs no squaring: the chain is its Taylor polynomial at
    # Y = Z/60, and the walk does the rest
    pytest.param(_probe_sized_z(), 1.0, EXPRK5S8_REQUESTS, 1,
                 [2, 4, 5, 10, 12, 15, 30, 40, 60], id="probe-sized-z"),
    # 3/8 and 3/4 are 3Y and 6Y with Y = hM/8
    pytest.param(advdiff_matrix(50, beta=20.0), 1.0 / 64,
                 [(1, Fraction(3, 8)), (0, Fraction(3, 4)), (2, Fraction(3, 4))], 1, [2, 3, 6],
                 id="non-dyadic-family"),
    pytest.param(advdiff_matrix(50, beta=20.0), 1.0 / 64,
                 sorted(required_requests(get_tableau("expRK2s2"))), 1, [2], id="expRK2s2"),
])
def test_family_chain_entries_match_augmented_exponential(monkeypatch, m, h, requests,
                                                          n_chains, steps):
    work = _count_work(monkeypatch)
    cache = build_phi_cache(DenseOperator(m), h, requests)
    assert len(work["chains"]) == n_chains
    assert sorted(work["steps"]) == steps
    for j, s in requests:
        want = augmented_phi(j, float(s) * h * m)
        assert np.abs(cache.get(j, s) - want).max() <= 1e-12 * np.abs(want).max(), (j, s)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("op", [DenseOperator(np.diag([800.0, -1.0])),
                                DiagonalOperator(np.array([800.0, -1.0]))],
                         ids=["dense", "diagonal"])
def test_overflowing_phi_entry_fails_before_the_first_step(op):
    with pytest.raises(OverflowError, match=r"phi_\d.*scale \d+(/\d+)?, h = 1\.0"):
        build_phi_cache(op, 1.0, EXPRK5S8_REQUESTS)
    pb = SemilinearProblem(A=op, g=lambda t, u: np.zeros_like(u), u0=np.ones(2))
    with pytest.raises(OverflowError):
        integrate(pb, get_tableau("expRK5s8"), 1)


def test_finite_phi_past_exp_overflow_still_builds():
    assert phi_scalar(7, 715.0) == pytest.approx(3.470661580076906e290, rel=1e-14)
    cache = build_phi_cache(DiagonalOperator(np.array([715.0, -1.0])), 1.0, [(7, 1)])
    assert cache.get(7, 1)[0] == phi_scalar(7, 715.0)


def test_importing_exprk_loads_no_scipy_linalg_or_fft():
    code = ("import sys, exprk; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.fft') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(exprk.phi.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_cache_is_read_only_and_reports_misses():
    d = DiagonalOperator(np.array([-1.0, -2.0]))
    cache = build_phi_cache(d, 0.1, [phi_request(1, 1)])
    assert len(cache) == 1
    assert (1, Fraction(1)) in cache
    assert cache.keys() == {PhiRequest(1, Fraction(1))}
    with pytest.raises(ValueError):
        cache.get(1, 1)[0] = 99.0
    with pytest.raises(CacheMissError):
        cache.get(2, 1)
    # CacheMissError is a KeyError so plain dict-style handling also works
    assert issubclass(CacheMissError, KeyError)


def test_cache_leaves_the_callers_arrays_writable():
    """PhiCache stores a read-only view of each entry, not the caller's
    array made read-only, and no copy of it."""
    mine = np.ones(3)
    cache = PhiCache({(1, 1): mine})
    assert mine.flags.writeable
    entry = cache.get(1, 1)
    assert np.shares_memory(entry, mine)
    with pytest.raises(ValueError):
        entry[0] = 2.0
    mine[0] = 2.0
    assert entry[0] == 2.0


def test_cache_dedups_requests_and_validates_h():
    d = DiagonalOperator(np.array([-1.0]))
    cache = build_phi_cache(d, 0.5, [(1, 1), (1, Fraction(2, 2)), (1, 1.0)])
    assert len(cache) == 1
    with pytest.raises(ValueError):
        build_phi_cache(d, 0.0, [(1, 1)])
    with pytest.raises(ValueError):
        build_phi_cache(d, np.nan, [(1, 1)])
    with pytest.raises(TypeError):
        build_phi_cache(np.eye(2), 0.5, [(1, 1)])


# ---------------------------------------------------------------------------
# sine basis of constant-coefficient tridiagonal A

@pytest.mark.parametrize("n", [600, 1000, 2000])
def test_toeplitz_tridiagonal_gets_closed_form_sine_basis(n):
    """n = 600 has n + 1 prime, the DST's slow Bluestein case."""
    from scipy.linalg import eigh_tridiagonal

    a = heat_problem(n).A
    w, v = a.eigendecomposition()
    assert isinstance(v, SineBasis)
    want = eigh_tridiagonal(a.diag, a.off, eigvals_only=True)
    scale = np.abs(want).max()
    assert np.abs(np.sort(w) - want).max() <= 1e-13 * scale
    x = np.random.default_rng(n).standard_normal(n)
    assert np.abs(v.T @ (v @ x) - x).max() <= 1e-13 * np.abs(x).max()
    for k in (0, 1, n // 2, n - 1):
        vk = v @ np.eye(n)[:, k]
        assert np.abs(a.matvec(vk) - w[k] * vk).max() <= 1e-13 * scale


def test_other_tridiagonal_keeps_dense_eigenbasis():
    heat = heat_problem(DST_MIN_N + 88).A
    d = heat.diag.copy()
    d[d.size // 2] *= 1.25
    e = heat.off.copy()
    e[0] *= 0.5
    for a in (SymTridiagonalOperator(d, heat.off), SymTridiagonalOperator(heat.diag, e),
              heat_problem(DST_MIN_N - 1).A):
        w, v = a.eigendecomposition()
        assert isinstance(v, np.ndarray) and v.shape == (a.n, a.n)
        assert np.all(np.diff(w) >= 0.0)


def test_sine_basis_cache_dense_get_matches_eigh_route():
    a = heat_problem(600).A
    h = 1.0 / 64
    reqs = [phi_request(j, s) for j, s in REQS]
    cache = build_phi_cache(a, h, reqs)
    assert isinstance(cache.basis, SineBasis)
    ref = build_phi_cache(EighTridiagonal(a.diag, a.off), h, reqs)
    assert isinstance(ref.basis, np.ndarray)
    for key in reqs:
        assert not cache.get(*key).flags.writeable
        assert np.abs(dense_phi(cache, *key) - dense_phi(ref, *key)).max() <= 1e-12
