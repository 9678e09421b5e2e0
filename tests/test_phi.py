"""Phi-function evaluation: scalar routes, matrix routes, oracles, cache."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.linalg

import exprk.phi
from conftest import EighTridiagonal, augmented_phi, phi_symmetric
from exprk.integrator import SemilinearProblem, integrate, required_requests
from exprk.operators import (DST_MIN_N, DenseOperator, DiagonalOperator,
                             SineBasis, SymTridiagonalOperator, ZeroOperator)
from exprk.phi import (PHI_TAYLOR_RADIUS, CacheMissError, PhiRequest,
                       QuadratureError, build_phi_cache, matrix_exp,
                       phi_matrices, phi_matrix, phi_quadrature_oracle,
                       phi_request, phi_scalar)
from exprk.tableau import get_tableau
from exprk.testbed import heat_problem

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


@pytest.mark.filterwarnings("ignore:overflow")
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
    1.26e-12, at j = 7 and z = 1.02, just past the Taylor switch."""
    mpmath = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny  # e^z underflows for j = 0 and z < -708
    for z in PHI_SWEEP_Z:
        want = float(_mp_phi(mpmath, j, z))
        assert abs(phi_scalar(j, z) - want) <= 2e-12 * abs(want) + tiny, (j, z)


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


def test_phi_scalar_complex_argument():
    z = 0.3 + 0.4j
    direct = phi_scalar(1, z)
    assert isinstance(direct, complex)
    assert abs(direct - (np.exp(z) - 1.0) / z) <= 1e-14


def test_phi_scalar_rejects_negative_index():
    with pytest.raises(ValueError):
        phi_scalar(-1, 0.5)


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
    assert np.allclose(np.linalg.eigvalsh(matrix_exp(m)), np.exp(w), atol=1e-12)


@pytest.mark.parametrize("func", [matrix_exp, lambda m: phi_matrix(1, m)])
def test_matrix_routes_validate_input(func):
    with pytest.raises(ValueError):
        func(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        func(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_phi_matrix_rejects_index_zero():
    with pytest.raises(ValueError):
        phi_matrix(0, np.eye(2))
    with pytest.raises(ValueError):
        phi_matrices(-1, np.eye(2))


@pytest.mark.parametrize("norm", [0.0, 0.3, 1.0, 1.5, 40.0, 900.0])
def test_phi_matrices_match_augmented_exponential(norm):
    """Every phi_k up to jmax = 4, with no squaring (||M||_1 <= 1) and with
    up to ten."""
    m = np.random.default_rng(17).standard_normal((6, 6)) - 2.0 * np.eye(6)
    m *= norm / np.abs(m).sum(axis=0).max()
    got = phi_matrices(4, m)
    assert len(got) == 5
    for k, val in enumerate(got):
        want = augmented_phi(k, m)
        assert np.abs(val - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(matrix_exp(m), got[0])
    assert np.array_equal(phi_matrix(3, m), phi_matrices(3, m)[3])


def _advdiff_matrix(n, beta):
    """Central differences for u'' + beta u' on n interior points of (0, 1)
    with zero Dirichlet ends: nonsymmetric and non-normal."""
    dx = 1.0 / (n + 1)
    return (np.diag(np.full(n, -2.0 / dx ** 2))
            + np.diag(np.full(n - 1, 1.0 / dx ** 2 + beta / (2.0 * dx)), 1)
            + np.diag(np.full(n - 1, 1.0 / dx ** 2 - beta / (2.0 * dx)), -1))


def _mp_augmented_phi(mpmath, j, m):
    """phi_j(M) from a 40-digit mpmath exponential of the augmented matrix."""
    n = m.shape[0]
    with mpmath.workdps(40):
        w = mpmath.zeros(n * (j + 1))
        for r in range(n):
            for c in range(n):
                w[r, c] = mpmath.mpf(float(m[r, c]))
        for k in range(j * n):
            w[k, k + n] = 1
        e = mpmath.expm(w)
        return np.array([[float(e[r, j * n + c]) for c in range(n)] for r in range(n)])


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
            "advdiff5": (4.0 * _advdiff_matrix(5, 20.0), 1e-14),
            "stiff4": (q @ tri @ q.T, 1e-12)}


@pytest.mark.parametrize("j", [1, 4])
@pytest.mark.parametrize("case", ["gauss5", "jordan4", "advdiff5", "stiff4"])
def test_phi_matrices_match_mpmath(case, j):
    """Measured at most 6.9e-16 on the first three (advdiff5 squares ten
    times).  On stiff4 it is 1.7e-13 (j = 1) and 6.0e-14 (j = 4), where
    scipy's augmented expm gives 6.5e-14 and 2.1e-14."""
    mpmath = pytest.importorskip("mpmath")
    m, bound = _mp_cases()[case]
    want = _mp_augmented_phi(mpmath, j, m)
    assert np.abs(phi_matrices(j, m)[j] - want).max() <= bound * np.abs(want).max()


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
            assert np.abs(cache.get(*key) - want).max() <= 1e-12


def test_cache_diagonal_and_zero_routes():
    h = 0.2
    d = DiagonalOperator(np.array([-4.0, -1.0, 0.5]))
    cache = build_phi_cache(d, h, [phi_request(j, s) for j, s in REQS])
    got = cache.get(2, Fraction(1))
    want = np.diag([phi_scalar(2, h * z) for z in (-4.0, -1.0, 0.5)])
    assert np.abs(got - want).max() <= 1e-14

    z = ZeroOperator(3)
    cache = build_phi_cache(z, h, [phi_request(j, s) for j, s in REQS])
    for j, s in REQS:
        assert np.array_equal(cache.get(j, s), np.eye(3) / factorial(j))


def test_spectral_cache_holds_vectors_and_one_basis():
    rng = np.random.default_rng(5)
    n = 30
    tri = SymTridiagonalOperator(rng.uniform(-4.0, -1.0, n), rng.uniform(-1.0, 1.0, n - 1))
    cache = build_phi_cache(tri, 0.3, [phi_request(j, s) for j, s in REQS])
    assert cache.spectral
    w, v = tri.eigendecomposition()
    assert cache.basis is v
    for j, s in REQS:
        vec = cache.get(j, s, eigenbasis=True)
        assert vec.shape == (n,)
        assert np.array_equal(vec, [phi_scalar(j, float(s) * 0.3 * x) for x in w])
    dense = [val for val in vars(cache).values()
             if isinstance(val, np.ndarray) and val.ndim == 2]
    assert all(val is v for val in dense)
    assert all(val.ndim == 1 for val in cache._table.values())

    d = DiagonalOperator(np.array([-1.0, 2.0]))
    cache = build_phi_cache(d, 0.5, [phi_request(1, 1)])
    assert cache.spectral and cache.basis is None
    assert cache.get(1, 1, eigenbasis=True).shape == (2,)
    m = DenseOperator(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    cache = build_phi_cache(m, 0.5, [phi_request(1, 1)])
    assert not cache.spectral and cache.basis is None
    assert cache.get(1, 1, eigenbasis=True) is cache.get(1, 1)


EXPRK5S8_REQUESTS = sorted(required_requests(get_tableau("expRK5s8")))


@pytest.mark.parametrize("n", [100, 400])
def test_dense_route_matches_spectral_route_on_heat(n):
    """||hA||_1 is 2.6e3 (n = 100) and 4.0e4 (n = 400) at h = 1/16; measured
    9.6e-14 and 6.9e-13 relative to the largest entry."""
    a = heat_problem(n).A
    h = 1.0 / 16
    dense = build_phi_cache(DenseOperator(a.dense()), h, EXPRK5S8_REQUESTS)
    ref = build_phi_cache(EighTridiagonal(a.diag, a.off), h, EXPRK5S8_REQUESTS)
    assert not dense.spectral and ref.spectral
    for key in EXPRK5S8_REQUESTS:
        want = ref.get(*key)
        assert np.abs(dense.get(*key) - want).max() <= 1e-12 * np.abs(want).max(), key


def test_dense_route_matches_augmented_exponential_on_advection_diffusion():
    m = _advdiff_matrix(50, beta=20.0)
    h = 1.0 / 64
    cache = build_phi_cache(DenseOperator(m), h, EXPRK5S8_REQUESTS)
    for j, s in EXPRK5S8_REQUESTS:
        want = augmented_phi(j, float(s) * h * m)
        assert np.abs(cache.get(j, s) - want).max() <= 1e-12 * np.abs(want).max(), (j, s)


def _count_chains(monkeypatch):
    """Record the wanted (j, depth) pairs of every squaring chain run."""
    chains = []
    kernel = exprk.phi._squaring_chain
    monkeypatch.setattr(exprk.phi, "_squaring_chain",
                        lambda m, wants: chains.append(wants) or kernel(m, wants))
    return chains


def test_dense_cache_makes_one_squaring_chain_per_scale_family(monkeypatch):
    chains, expms = _count_chains(monkeypatch), []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: expms.append(m) or expm(m))
    a = DenseOperator(_advdiff_matrix(20, beta=20.0))
    cache = build_phi_cache(a, 1.0 / 64, EXPRK5S8_REQUESTS)
    assert len(EXPRK5S8_REQUESTS) == 17 and len(cache) == 17
    # scales 1, 1/2 and 1/4 differ by powers of two and share the chain on
    # hA, read out after s, s - 1 and s - 2 squarings; 1/5 and 2/3 get one
    # chain each; every chain runs to phi_4
    assert len(chains) == 3
    assert sorted(max(j for j, _ in w) for w in chains) == [4, 4, 4]
    assert sorted(sorted({k for _, k in w}) for w in chains) == [[0], [0], [0, 1, 2]]
    assert sum(len(w) for w in chains) == 17
    assert expms == []
    for key in EXPRK5S8_REQUESTS:
        with pytest.raises(ValueError):
            cache.get(*key)[0] = 1.0


def _probe_sized_z():
    z = np.random.default_rng(11).uniform(-1.0, 1.0, (3, 3))
    return 0.8 * z / np.abs(z).sum(axis=0).max()


@pytest.mark.parametrize("m, h, requests, n_chains", [
    # ||Z||_1 = 0.8 needs no squaring, but the family {1, 1/2, 1/4} does
    pytest.param(_probe_sized_z(), 1.0, EXPRK5S8_REQUESTS, 3, id="probe-sized-z"),
    pytest.param(_advdiff_matrix(50, beta=20.0), 1.0 / 64,
                 [(1, Fraction(3, 8)), (0, Fraction(3, 4)), (2, Fraction(3, 4))], 1,
                 id="non-dyadic-family"),
    pytest.param(_advdiff_matrix(50, beta=20.0), 1.0 / 64,
                 sorted(required_requests(get_tableau("expRK2s2"))), 1, id="expRK2s2"),
])
def test_family_chain_entries_match_augmented_exponential(monkeypatch, m, h, requests,
                                                          n_chains):
    chains = _count_chains(monkeypatch)
    cache = build_phi_cache(DenseOperator(m), h, requests)
    assert len(chains) == n_chains
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
    assert cache.get(7, 1, eigenbasis=True)[0] == phi_scalar(7, 715.0)


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
    for mat in (cache.get(1, 1), cache.get(1, 1, eigenbasis=True)):
        with pytest.raises(ValueError):
            mat[0] = 99.0
    with pytest.raises(CacheMissError):
        cache.get(2, 1)
    # CacheMissError is a KeyError so plain dict-style handling also works
    assert issubclass(CacheMissError, KeyError)


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
        got = cache.get(*key)
        assert not got.flags.writeable
        assert np.abs(got - ref.get(*key)).max() <= 1e-12
