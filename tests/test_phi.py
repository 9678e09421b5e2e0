"""Phi-function evaluation: scalar routes, matrix routes, oracles, cache."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from exprk.operators import (DenseOperator, DiagonalOperator,
                             SymTridiagonalOperator, ZeroOperator)
from exprk.phi import (PHI_TAYLOR_RADIUS, CacheMissError, PhiRequest,
                       QuadratureError, build_phi_cache, matrix_exp,
                       phi_matrix, phi_quadrature_oracle, phi_request,
                       phi_scalar, phi_symmetric)

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
    """Dense-route phi matrices used to cross-check structured routes."""
    out = {}
    for j, s in REQS:
        m = float(s) * h * a_dense
        out[(j, s)] = matrix_exp(m) if j == 0 else phi_matrix(j, m)
    return out


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
