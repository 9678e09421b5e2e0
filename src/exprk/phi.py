"""Phi functions of exponential integrators.

phi_0(z) = exp(z) and, for j >= 1,

    phi_j(z) = integral_0^1 exp((1-theta) z) theta^(j-1)/(j-1)! dtheta,

equivalently phi_{j+1}(z) = (phi_j(z) - 1/j!)/z with phi_j(0) = 1/j!.
The scheme coefficients are linear combinations of phi_j(c h A), so phi_j at
a handful of scales c is everything the integrator needs; build_phi_cache
computes them once per (A, h), as eigenvalue vectors when A supplies an
eigendecomposition and as matrices otherwise.  The eigenbasis may be a dense
matrix or, for a large constant-coefficient tridiagonal A, a sine transform,
in which case a spectral cache holds O(n) numbers in total.  Matrices come
from scaling-and-modified-squaring chains, each of which yields
phi_0..phi_j together from n x n products alone.  Since the chain on M passes
through M/2, M/4, ... on its way back from 2^-s M, scales that differ by a
power of two (a scale family, such as 1, 1/2 and 1/4) share one chain:
expRK5s8's five scales cost three.  phi_matrices is the single-scale case.
"""

from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, log2
from typing import NamedTuple

import numpy as np

from .operators import LinearOperator

# Below this modulus the downward recurrence from exp(z) loses digits to
# cancellation, so a truncated Taylor series is used instead.
PHI_TAYLOR_RADIUS = 1.0
PHI_TAYLOR_TERMS = 25
# phi_matrices scales M until ||M||_1 <= PHI_SQUARING_THETA and sums this
# many Taylor terms there, truncating at ||X||^18/(18+j)! <= 1/18! < 1.6e-16.
PHI_SQUARING_THETA = 1.0
PHI_SQUARING_TERMS = 18
# Above this real part exp(z) overflows, and the recurrence with it.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class CacheMissError(KeyError):
    """A phi matrix was requested that the cache was not built for."""


def phi_scalar(j, z):
    """Evaluate phi_j at a scalar argument (real or complex).

    Uses the truncated Taylor series sum_m z^m / (m+j)! for |z| < 1 and the
    recurrence from exp(z) otherwise; accurate to machine precision in both
    regimes.  Where exp(z) overflows, phi_j(z) = e^z / z^j - sum_{k<j}
    z^(k-j) / k! is evaluated with e^z split as e^(z/2) e^(z/2), which stays
    finite while phi_j(z) does (up to Re z ~ 1419).
    """
    if j < 0:
        raise ValueError("phi index must be >= 0")
    want_complex = isinstance(z, complex) or np.iscomplexobj(z)
    zc = complex(z)
    if j == 0:
        val = np.exp(zc)
    elif abs(zc) < PHI_TAYLOR_RADIUS:
        term = 1.0 / factorial(j)
        val = term
        for m in range(1, PHI_TAYLOR_TERMS):
            term *= zc / (m + j)
            val += term
    elif zc.real > LOG_FLOAT_MAX:
        half = np.exp(zc / 2)
        val = half * (half / zc ** j)
        for k in range(j):
            val -= zc ** (k - j) / factorial(k)
    else:
        val = np.exp(zc)
        for k in range(j):
            val = (val - 1.0 / factorial(k)) / zc
    val = complex(val)
    return val if want_complex else val.real


def phi_quadrature_oracle(j, z, tol=1e-12):
    """Evaluate phi_j(z) straight from its defining integral.

    Independent of the series/recurrence route; intended as a test oracle.
    Raises QuadratureError when the quadrature error estimate exceeds the
    absolute tolerance tol.
    """
    if j < 1:
        raise ValueError("the integral representation needs j >= 1")
    z = float(z)
    fac = factorial(j - 1)

    def integrand(theta):
        return np.exp((1.0 - theta) * z) * theta ** (j - 1) / fac

    from scipy.integrate import quad

    val, err = quad(integrand, 0.0, 1.0, epsabs=tol * 0.5, epsrel=1e-13, limit=200)
    if err > tol:
        raise QuadratureError(f"phi_{j}({z}): estimated error {err:.2e} > tol {tol:.2e}")
    return val


def phi_matrices(jmax, m):
    """[phi_0(M), ..., phi_jmax(M)] by scaling and modified squaring.

    M is scaled by 2^-s to 1-norm at most PHI_SQUARING_THETA, a Taylor
    polynomial gives phi_jmax there and s modified squarings bring every
    phi_j back to M.  This is the depth-0 case of the one chain routine,
    _squaring_chain, that build_phi_cache runs once per scale family.
    """
    jmax = int(jmax)
    if jmax < 0:
        raise ValueError("phi index must be >= 0")
    got = _squaring_chain(m, {(j, 0) for j in range(jmax + 1)})
    return [got[j, 0] for j in range(jmax + 1)]


def _squaring_chain(m, wants):
    """{(j, k): phi_j(2^-k M)} for each pair in wants, from one chain.

    M is scaled by 2^-s, with s the larger of the deepest k wanted and the
    least s that gives X = 2^-s M a 1-norm of at most PHI_SQUARING_THETA;
    phi_jmax(X), jmax the largest j wanted, is the Taylor polynomial of
    PHI_SQUARING_TERMS terms in Horner form, the lower phi_j(X) follow from
    phi_j = X phi_{j+1} + I/j!, and each modified squaring

        phi_j(2X) = 2^-j [phi_0(X) phi_j(X) + sum_{i=1..j} phi_i(X)/(j-i)!]

    takes the whole stack one power of two closer to M (Skaflestad & Wright,
    Appl. Numer. Math. 2009); phi_j(2^-k M) is copied out after s - k of
    them.  All products are n x n: PHI_SQUARING_TERMS - 1 + jmax +
    s (jmax + 1) of them.  The squarings alternate between two preallocated
    stacks (with a third for the mixing term), so a chain allocates nothing
    per squaring beyond the entries it copies out.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    n = m.shape[0]
    jmax = max(j for j, _ in wants)
    norm = np.abs(m).sum(axis=0).max(initial=0.0)
    s = max(k for _, k in wants)
    if norm > 0:
        s = max(s, ceil(log2(norm / PHI_SQUARING_THETA)))
    x = np.ldexp(m, -s)
    top = np.zeros((n, n))
    top.ravel()[::n + 1] = 1.0 / factorial(PHI_SQUARING_TERMS - 1 + jmax)
    for k in range(PHI_SQUARING_TERMS - 2, -1, -1):
        top = x @ top
        top.ravel()[::n + 1] += 1.0 / factorial(k + jmax)
    phis = np.empty((jmax + 1, n, n))
    phis[jmax] = top
    for k in range(jmax - 1, -1, -1):
        np.matmul(x, phis[k + 1], out=phis[k])
        phis[k].ravel()[::n + 1] += 1.0 / factorial(k)
    halve, mix = _squaring_weights(jmax)
    doubled, mixed = np.empty_like(phis), np.empty((jmax + 1, n * n))
    got = {}
    for k in range(s, -1, -1):
        if k < s:
            np.matmul(phis[0], phis, out=doubled)
            doubled *= halve
            np.matmul(mix, phis.reshape(mixed.shape), out=mixed)
            doubled += mixed.reshape(phis.shape)
            phis, doubled = doubled, phis
        got.update({(j, k): phis[j].copy() for j, kj in wants if kj == k})
    return got


@lru_cache(maxsize=None)
def _squaring_weights(jmax):
    """2^-k as a (jmax+1, 1, 1) array, and the matrix of 2^-k/(k-i)! for
    1 <= i <= k (zero elsewhere): the two parts of one modified squaring."""
    ks = range(jmax + 1)
    halve = np.array([0.5 ** k for k in ks])[:, None, None]
    mix = np.array([[0.5 ** k / factorial(k - i) if 1 <= i <= k else 0.0
                     for i in ks] for k in ks])
    halve.flags.writeable = mix.flags.writeable = False
    return halve, mix


def matrix_exp(m):
    """Matrix exponential, phi_0(M), by scaling and squaring (phi_matrices)."""
    return phi_matrices(0, m)[0]


def phi_matrix(j, m):
    """Matrix phi_j(M), j >= 1: the last of phi_matrices(j, M)."""
    if j < 1:
        raise ValueError("phi index must be >= 1 (use matrix_exp for j = 0)")
    return phi_matrices(j, m)[j]


def _phi_values(j, zs):
    """phi_j over a 1-d array of real arguments."""
    return np.array([phi_scalar(j, z) for z in np.asarray(zs, dtype=float)])


class PhiRequest(NamedTuple):
    """One phi matrix the cache must hold: phi_j(scale * h * A)."""

    j: int
    scale: Fraction


def phi_request(j, scale):
    """Normalize (j, scale) to a PhiRequest with an exact rational scale."""
    j = int(j)
    if j < 0:
        raise ValueError("phi index must be >= 0")
    scale = Fraction(scale)
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    return PhiRequest(j, scale)


class PhiCache:
    """Read-only table of phi_j(scale * h * A), keyed by exact rational
    (j, scale) pairs so lookups never suffer float drift.

    A spectral cache stores each entry as the length-n vector
    phi_j(scale * h * w) over the eigenvalues w of A, plus the one shared
    orthogonal basis V (None for the identity), so that
    phi_j(scale * h * A) = V @ diag(entry) @ V.T.  V is an ndarray or a
    SineBasis that applies the DST-I; the cache only uses V @ y and V.T @ x
    and forms np.asarray(V) just for a dense get.  A dense cache stores the
    matrices themselves.  The cache carries the operator fingerprint and the
    step size it was built for, which the stepper validates before use.
    """

    def __init__(self, fingerprint, h, n, table, basis=None, spectral=False):
        self.fingerprint = fingerprint
        self.h = float(h)
        self.n = int(n)
        self.spectral = bool(spectral)
        self.basis = basis
        self._table = {}
        for key, val in table.items():
            val = np.asarray(val, dtype=float)
            val.flags.writeable = False
            self._table[phi_request(*key)] = val

    def get(self, j, scale, eigenbasis=False):
        """Return the cached phi_j(scale * h * A); KeyError on a miss.

        By default the result is the dense matrix, formed on demand for a
        spectral cache.  With eigenbasis=True it is the entry as the
        integrator applies it in the basis V: the eigenvalue vector of a
        spectral cache, the matrix of a dense one.
        """
        key = phi_request(j, scale)
        try:
            val = self._table[key]
        except KeyError:
            raise CacheMissError(
                f"phi_{key.j} at scale {key.scale} not in cache "
                f"(built with {len(self._table)} entries)") from None
        if eigenbasis or not self.spectral:
            return val
        if self.basis is None:
            mat = np.diag(val)
        else:
            v = np.asarray(self.basis)
            mat = (v * val) @ v.T
        mat.flags.writeable = False
        return mat

    def to_basis(self, x):
        """Coordinates V^T x of a state-space vector x."""
        return x if self.basis is None else self.basis.T @ x

    def from_basis(self, y):
        """The state-space vector V y with coordinates y."""
        return y if self.basis is None else self.basis @ y

    def apply(self, coef, y):
        """Apply coef, a combination of eigenbasis entries, to coordinates y."""
        return coef * y if self.spectral else coef @ y

    def __contains__(self, key):
        return phi_request(*key) in self._table

    def __len__(self):
        return len(self._table)

    def keys(self):
        return set(self._table)


def _odd_part(scale):
    """scale / 2^e with odd numerator and denominator: two scales share it
    exactly when they differ by a power of two."""
    p, q = scale.numerator, scale.denominator
    return Fraction(p // (p & -p), q // (q & -q))


def build_phi_cache(a, h, requests):
    """Build phi_j(scale * h * A) for each (j, scale) request.

    An operator that supplies its eigendecomposition (w, V) -- zero, diagonal
    and symmetric tridiagonal A -- gets a spectral cache: each entry is the
    O(n) vector phi_j(scale * h * w), and V is stored once, so no n x n
    matrix is formed besides the basis (and none at all when V is a
    SineBasis).  Dense A pays one squaring chain per scale family, the
    scales that differ by a power of two: the chain runs on top * h * A, top
    the family's largest scale, to the largest j requested anywhere in the
    family (which yields every lower j too), and the member top / 2^k is
    read out k squarings before its end.  expRK5s8's scales 1, 1/2, 1/4,
    1/5 and 2/3 make three chains.  Dense entries are n x n matrices.
    Duplicate requests collapse; each entry is computed once.  An entry
    that overflows raises OverflowError naming j, the scale and h.
    """
    if not isinstance(a, LinearOperator):
        raise TypeError("a must be a LinearOperator")
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError("step size must be positive and finite")
    keys = sorted({phi_request(*r) for r in requests})
    eig = a.eigendecomposition()
    with np.errstate(over="ignore", invalid="ignore"):
        if eig is not None:
            w, v = eig
            table = {(j, scale): _phi_values(j, float(scale) * h * w) for j, scale in keys}
        else:
            m = a.dense()
            families = {}
            for j, scale in keys:
                families.setdefault(_odd_part(scale), []).append((j, scale))
            table = {}
            for members in families.values():
                top = max(scale for _, scale in members)
                # (j, scale) is phi_j at depth k = log2(top / scale) of the chain
                at = {(j, scale): (j, (top / scale).numerator.bit_length() - 1)
                      for j, scale in members}
                got = _squaring_chain(float(top) * h * m, set(at.values()))
                table.update({key: got[jk] for key, jk in at.items()})
    for (j, scale), val in table.items():
        if not np.all(np.isfinite(val)):
            raise OverflowError(f"phi_{j}(scale * h * A) overflows at scale {scale}, "
                                f"h = {h!r}")
    if eig is not None:
        return PhiCache(a.fingerprint, h, a.n, table, basis=v, spectral=True)
    return PhiCache(a.fingerprint, h, a.n, table)
