"""Linear operators for the stiff part of a semilinear problem.

The integrator only ever needs two things from the operator A: matrix-vector
products inside the step loop, and enough structure to build the phi-function
cache once per (A, h) pair.  Structured variants (zero, diagonal, symmetric
tridiagonal) supply an eigendecomposition, so the cache holds each phi entry
as a vector of eigenvalue functions and the integrator steps in the
eigenbasis; the dense variant supplies none, and its cache holds dense
matrices from phi.phi_matrix_table (scaling and modified squaring).  The basis
is an orthogonal ndarray, or, for a large constant-coefficient tridiagonal
A, a SineBasis that applies the eigenvectors as a fast sine transform
without forming them.

Caller input is read here, one reader per kind: real_array for any real
array, and for its shape when one is given (a length, None for any, or a
named length such as ("n", "n") for a square matrix, which must not be 0:
the one check that an array is not empty); real_scalar for a
real number and positive_real for one that must be finite and positive (a
step size, a tolerance); finite_array for an array of given shape whose
entries must all be finite (an operator's entries, an initial state, a
probe matrix); and integer for every count and index.  Each raises an
error naming the argument it read.
"""

import hashlib
import numbers
from abc import ABC, abstractmethod

import numpy as np

# From this size up a constant-coefficient tridiagonal A is diagonalised by
# the sine transform: a DST-I basis change then costs no more than a product
# with the dense eigenbasis even when n + 1 is prime (the transform's slowest
# case), and eigh_tridiagonal is skipped.  Measured with one BLAS thread; the
# table is in CHANGES.md.
DST_MIN_N = 512


def real_array(x, name, shape=None):
    """x as a float ndarray; a complex x, a str or a bool raises TypeError
    naming it (True would read as 1.0).  A shape, when given, is checked: a
    None in it matches any length, and a str names a length that must be
    equal wherever it appears, so ("n", "n") is a square matrix, and must be
    at least 1.  Another shape, or a named length of 0, raises ValueError
    naming x."""
    a = np.asarray(x)
    if a.dtype != float:
        if a.dtype.kind in "bcSU":
            raise TypeError(f"{name} must be real, got dtype {a.dtype}")
        a = a.astype(float)
    # a concrete shape that matches costs one tuple comparison
    if shape is not None and a.shape != shape:
        # each name holds its last length, so an earlier one that differs fails
        named = {k: m for k, m in zip(shape, a.shape) if isinstance(k, str)}
        if a.ndim != len(shape) or any(k is not None and named.get(k, k) != m
                                       for k, m in zip(shape, a.shape)):
            raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        if 0 in named.values():
            raise ValueError(f"{name} must not be empty")
    return a


def real_scalar(x, name):
    """x as a float, read by real_array; an x of any shape but a scalar's
    raises TypeError naming it.  No range is checked: positive_real checks
    one, and each other caller its own."""
    a = real_array(x, name)
    if a.ndim:
        raise TypeError(f"{name} must be a real scalar, got shape {a.shape}")
    return float(a)


def positive_real(x, name):
    """x read by real_scalar; ValueError naming it unless finite and positive."""
    x = real_scalar(x, name)
    if not 0 < x < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {x!r}")
    return x


def finite_array(x, name, shape):
    """x as a float ndarray of the given shape, read by real_array; a
    non-finite entry raises ValueError naming it."""
    a = real_array(x, name, shape)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def integer(x, name, least):
    """x as an int: an int or a numpy integer of at least least.  A float, a
    str or a bool raises TypeError naming it (int(2.5) is 2, True is 1), and
    a smaller value ValueError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return int(x)


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
        """Content hash identifying the operator.  Nothing in the library reads
        it; perfbench's tracer wraps each subclass's property by name."""

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
        self._n = integer(n, "n", 1)

    @property
    def n(self):
        return self._n

    def matvec(self, u):
        return np.zeros_like(real_array(u, "u", (self._n,)))

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
        self.diag = finite_array(diag, "diag", ("n",))

    @property
    def n(self):
        return self.diag.size

    def matvec(self, u):
        return self.diag * real_array(u, "u", (self.n,))

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
    first axis of x, which real_array reads as length n, and np.asarray(V)
    forms the dense matrix on demand.
    """

    def __init__(self, n):
        from scipy.fft import dst  # imported only where a sine basis is used

        self._dst = dst
        n = integer(n, "n", 1)
        self.shape = (n, n)

    @property
    def T(self):
        return self

    def __matmul__(self, x):
        x = real_array(x, "x", self.shape[:1] + (None,) * (np.ndim(x) - 1))
        return self._dst(x, type=1, axis=0, norm="ortho")

    def __array__(self, dtype=None, copy=None):
        return (self @ np.eye(self.shape[0])).astype(dtype or float, copy=False)


class SymTridiagonalOperator(LinearOperator):
    """Symmetric tridiagonal A, stored by main and off diagonal.

    Covers finite-difference Laplacians and similar 1-d operators.  The
    eigendecomposition is computed once on first use and reused by the
    phi-cache builder.
    """

    def __init__(self, diag, off):
        self.diag = finite_array(diag, "diag", ("n",))
        self.off = finite_array(off, "off", (self.diag.size - 1,))
        self._eig = None

    @property
    def n(self):
        return self.diag.size

    def matvec(self, u):
        u = real_array(u, "u", (self.n,))
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
        self.a = finite_array(a, "a", ("n", "n"))

    @property
    def n(self):
        return self.a.shape[0]

    def matvec(self, u):
        return self.a @ real_array(u, "u", (self.n,))

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

