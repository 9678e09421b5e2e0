"""Linear operators for the stiff part of a semilinear problem.

The integrator only ever needs two things from the operator A: matrix-vector
products inside the step loop, and enough structure to build the phi-function
cache once per (A, h) pair.  Structured variants (zero, diagonal, symmetric
tridiagonal) supply an eigendecomposition, so the cache holds each phi entry
as a vector of eigenvalue functions and the integrator steps in the
eigenbasis; the dense variant supplies none, and its cache holds dense
matrices from phi.phi_matrices (scaling and modified squaring).  The basis
is an orthogonal ndarray, or, for a large constant-coefficient tridiagonal
A, a SineBasis that applies the eigenvectors as a fast sine transform
without forming them.
"""

import hashlib
from abc import ABC, abstractmethod

import numpy as np

# From this size up a constant-coefficient tridiagonal A is diagonalised by
# the sine transform: a DST-I basis change then costs no more than a product
# with the dense eigenbasis even when n + 1 is prime (the transform's slowest
# case), and eigh_tridiagonal is skipped.  Measured with one BLAS thread; the
# table is in CHANGES.md.
DST_MIN_N = 512


class LinearOperator(ABC):
    """Square real linear operator of dimension n."""

    @property
    @abstractmethod
    def n(self):
        """State dimension."""

    @abstractmethod
    def matvec(self, u):
        """Return A @ u for a vector u of length n."""

    @abstractmethod
    def dense(self):
        """Materialize A as an (n, n) ndarray."""

    @property
    @abstractmethod
    def fingerprint(self):
        """Content hash identifying the operator (used to validate caches)."""

    def eigendecomposition(self):
        """(w, V) with A = V @ diag(w) @ V.T and V orthogonal, V None for the
        identity; None when A offers no cheap eigendecomposition.

        V is an ndarray or a SineBasis; either supports V @ x, V.T @ x and
        np.asarray(V).  The order of the eigenvalues w is unspecified.
        """
        return None

    def eigenvalues(self):
        return self.eigendecomposition()[0].copy()

    def _digest(self, tag, *arrays):
        h = hashlib.sha256()
        h.update(tag.encode())
        h.update(str(self.n).encode())
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()[:16]


class ZeroOperator(LinearOperator):
    """A = 0; reduces the integrator to a classical explicit method."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("dimension must be positive")
        self._n = int(n)

    @property
    def n(self):
        return self._n

    def matvec(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def dense(self):
        return np.zeros((self._n, self._n))

    def eigendecomposition(self):
        return np.zeros(self._n), None

    @property
    def fingerprint(self):
        return self._digest("zero")


class DiagonalOperator(LinearOperator):
    """A = diag(d)."""

    def __init__(self, diag):
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1 or d.size < 1 or not np.all(np.isfinite(d)):
            raise ValueError("diagonal must be a finite 1-d array")
        self.diag = d

    @property
    def n(self):
        return self.diag.size

    def matvec(self, u):
        return self.diag * np.asarray(u, dtype=float)

    def dense(self):
        return np.diag(self.diag)

    def eigendecomposition(self):
        return self.diag, None

    @property
    def fingerprint(self):
        return self._digest("diag", self.diag)


class SineBasis:
    """The orthonormal DST-I matrix S[j, k] = sqrt(2/(n+1)) sin(pi jk/(n+1)),
    j, k = 1..n: the eigenvectors of every constant-coefficient symmetric
    tridiagonal matrix, column k for the eigenvalue d + 2e cos(pi k/(n+1)).

    Used like the ndarray V it stands for: S is symmetric and its own
    inverse, so V @ x and V.T @ x are the same O(n log n) transform along the
    first axis of x, and np.asarray(V) forms the dense matrix on demand.
    """

    def __init__(self, n):
        from scipy.fft import dst  # imported only where a sine basis is used

        self._dst = dst
        self.shape = (int(n), int(n))

    @property
    def T(self):
        return self

    def __matmul__(self, x):
        return self._dst(np.asarray(x, dtype=float), type=1, axis=0, norm="ortho")

    def __array__(self, dtype=None, copy=None):
        return (self @ np.eye(self.shape[0])).astype(dtype or float, copy=False)


class SymTridiagonalOperator(LinearOperator):
    """Symmetric tridiagonal A, stored by main and off diagonal.

    Covers finite-difference Laplacians and similar 1-d operators.  The
    eigendecomposition is computed once on first use and reused by the
    phi-cache builder.
    """

    def __init__(self, diag, off):
        d = np.asarray(diag, dtype=float)
        e = np.asarray(off, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise ValueError("need main diagonal of length n and off diagonal of length n-1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("operator entries must be finite")
        self.diag = d
        self.off = e
        self._eig = None

    @property
    def n(self):
        return self.diag.size

    def matvec(self, u):
        u = np.asarray(u, dtype=float)
        out = self.diag * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out

    def dense(self):
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def eigendecomposition(self):
        """Return (w, V) with A = V @ diag(w) @ V.T, V orthogonal, in an
        unspecified order of w.

        A constant main diagonal d and off diagonal e (exactly equal entries)
        with n >= DST_MIN_N give the closed-form eigenvalues
        d + 2e cos(pi k/(n+1)), k = 1..n, and V a SineBasis, so no n x n
        array is formed.  Any other A gets eigh_tridiagonal's ascending w and
        dense V.
        """
        if self._eig is None:
            d, e = self.diag, self.off
            if self.n >= DST_MIN_N and np.all(d == d[0]) and np.all(e == e[0]):
                k = np.arange(1, self.n + 1)
                w = d[0] + 2.0 * e[0] * np.cos(np.pi * k / (self.n + 1))
                self._eig = (w, SineBasis(self.n))
            elif self.n == 1:
                self._eig = (d.copy(), np.eye(1))
            else:
                from scipy.linalg import eigh_tridiagonal

                self._eig = eigh_tridiagonal(d, e)
        return self._eig

    @property
    def fingerprint(self):
        return self._digest("symtri", self.diag, self.off)


class DenseOperator(LinearOperator):
    """General dense A."""

    def __init__(self, a):
        m = np.asarray(a, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size < 1:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        self.a = m

    @property
    def n(self):
        return self.a.shape[0]

    def matvec(self, u):
        return self.a @ np.asarray(u, dtype=float)

    def dense(self):
        return self.a.copy()

    def eigenvalues(self):
        """Eigenvalues, requiring symmetry so they are real."""
        if not np.allclose(self.a, self.a.T, atol=1e-13 * (1 + np.abs(self.a).max())):
            raise ValueError("eigenvalues only provided for symmetric matrices")
        return np.linalg.eigvalsh(self.a)

    @property
    def fingerprint(self):
        return self._digest("dense", self.a)

