"""Phi functions of exponential integrators.

phi_0(z) = exp(z) and, for j >= 1,

    phi_j(z) = integral_0^1 exp((1-theta) z) theta^(j-1)/(j-1)! dtheta,

equivalently phi_{j+1}(z) = (phi_j(z) - 1/j!)/z with phi_j(0) = 1/j!.
The scheme coefficients are linear combinations of phi_j(c h A), so phi_j at
a handful of scales c is everything the integrator needs; build_phi_cache
computes them once per (A, h), as eigenvalue vectors when A supplies an
eigendecomposition and as matrices otherwise.  The eigenbasis may be a dense
matrix or, for a large constant-coefficient tridiagonal A, a sine transform,
in which case a spectral cache holds O(n) numbers in total, each from one
phi_scalar call in plain float arithmetic.  Matrices come
from scaling-and-modified-squaring chains, each of which yields
phi_0..phi_j together from n x n products alone.  Since the chain on M passes
through M/2, M/4, ... on its way back from 2^-s M, the dyadic scales 1, 1/2,
1/4, ... share one chain.  The other scales are multiples of one Y = hM/L,
and a walk of doublings and additions by phi's addition formula reaches them
from the chain on Y: expRK5s8's 1/5 and 2/3 are 3Y and 10Y with L = 15, so
its five scales cost two chains and five walk steps.  Every squaring and
walk step zeroes, in place, each entry below 2^-200 of its matrix's largest:
for the smoothing A of a parabolic problem the far off-diagonal entries fall
to 1e-150..1e-300 midway through a chain, and their products would run in
slow subnormal arithmetic, while zeroing them moves no later product by more
than 2^-147 of the bound on its rounding (PHI_FLUSH_RATIO).  A matrix is
flushed only when its phi_0 holds a nonzero entry below 2^-511, whose square
is subnormal (PHI_FLUSH_TRIGGER).  phi_matrix runs one scale alone.  Chains
and walks also run on a stack of matrices at once, each matrix getting what
it would get alone; the order-condition checker builds its probes' phi
tables so.  Every route is real and rejects a complex argument (TypeError).
"""

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, log2
from typing import NamedTuple

import numpy as np

from .operators import LinearOperator, real_array

# Below this modulus the downward recurrence from exp(z) loses digits to
# cancellation, so a truncated Taylor series is used instead.
PHI_TAYLOR_RADIUS = 1.0
PHI_TAYLOR_TERMS = 25
# A squaring chain scales M until ||M||_1 <= PHI_SQUARING_THETA and sums this
# many Taylor terms there, truncating at ||X||^18/(18+j)! <= 1/18! < 1.6e-16.
PHI_SQUARING_THETA = 1.0
PHI_SQUARING_TERMS = 18
# _combine zeroes each entry below this fraction of the largest entry of its
# own matrix.  That changes a matrix P by at most n 2^-200 ||P||_1 in the
# 1-norm, so a later product P Q by at most n 2^-200 ||P||_1 ||Q||_1: 2^-147
# of the bound n u ||P||_1 ||Q||_1 on that product's own rounding, u = 2^-53.
PHI_FLUSH_RATIO = 2.0 ** -200
# ... but only in a matrix whose phi_0 holds a nonzero entry below this: the
# square root of the smallest normal float 2^-1022, so that two entries above
# it multiply to a normal number.
PHI_FLUSH_TRIGGER = 2.0 ** -511
# Above this real part exp(z) overflows, and the recurrence with it.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class CacheMissError(KeyError):
    """A phi matrix was requested that the cache was not built for."""


def phi_scalar(j, z):
    """Evaluate phi_j at a real scalar z (an int or a numpy float too), as a
    float; a complex z or a str raises TypeError.

    Uses the truncated Taylor series sum_m z^m / (m+j)! for |z| < 1 and the
    recurrence from exp(z) otherwise; accurate to machine precision in both
    regimes.  Where exp(z) overflows, the recurrence runs on phi_k(z) / e^(z/2),
    starting from e^(z/2), and the result is scaled back by e^(z/2) at the
    end; no intermediate (z^j in particular) overflows while phi_j(z) is
    finite (up to z ~ 1419).  The result is +inf where phi_j(z) exceeds the
    largest float, 0.0 at -inf and nan at nan, with no warning.
    """
    if j < 0:
        raise ValueError("phi index must be >= 0")
    if type(z) is not float:
        if not isinstance(z, numbers.Real):
            raise TypeError(f"phi_scalar takes a real z, got {z!r}")
        z = float(z)
    # math.exp raises OverflowError where numpy returns inf
    if z > 2 * LOG_FLOAT_MAX or (j == 0 and z > LOG_FLOAT_MAX):
        return math.inf
    if j == 0:
        return math.exp(z)
    if abs(z) < PHI_TAYLOR_RADIUS:
        term = 1.0 / factorial(j)
        val = term
        for m in range(1, PHI_TAYLOR_TERMS):
            term *= z / (m + j)
            val += term
        return val
    if z > LOG_FLOAT_MAX:
        half = math.exp(z / 2)
        val = half
        for k in range(j):
            val = (val - 1.0 / factorial(k) / half) / z
        return half * val
    val = math.exp(z)
    for k in range(j):
        val = (val - 1.0 / factorial(k)) / z
    return val


def _squaring_chain(m, wants):
    """{(j, k): phi_j(2^-k M)} for each pair in wants, from one chain.

    M is an n x n matrix or a (..., n, n) stack, and every entry read out
    has M's shape.  Each matrix is scaled by 2^-s, with its own s the larger
    of the deepest k wanted and the least s that gives X = 2^-s M a 1-norm of
    at most PHI_SQUARING_THETA; phi_jmax(X), jmax the largest j wanted, is
    the Taylor polynomial of PHI_SQUARING_TERMS terms in Horner form, the
    lower phi_j(X) follow from phi_j = X phi_{j+1} + I/j!, and each modified
    squaring

        phi_j(2X) = 2^-j [phi_0(X) phi_j(X) + sum_{i=1..j} phi_i(X)/(j-i)!]

    takes a matrix's phis one power of two closer to M (Skaflestad & Wright,
    Appl. Numer. Math. 2009); phi_j(2^-k M) is copied out after s - k of
    them.  The stack is sorted by s, largest first, so the matrices still
    squaring at any level are a leading slice of it, and a matrix computes
    exactly what the chain on it alone computes.  Per matrix, all products
    are n x n: PHI_SQUARING_TERMS - 1 + jmax + s (jmax + 1) of them.  The
    squarings alternate between two preallocated stacks (with a third for
    the mixing term), so a chain allocates nothing per squaring beyond the
    entries it copies out.  Each squaring is a _combine, which zeroes the
    entries below 2^-200 of their matrix's largest (PHI_FLUSH_RATIO) so that
    the next squaring's products stay out of subnormal arithmetic.
    """
    m = real_array(m, "M")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    shape, n = m.shape, m.shape[-1]
    m = m.reshape(-1, n, n)
    jmax = max(j for j, _ in wants)
    deepest = max(k for _, k in wants)
    norms = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
    s = [max(deepest, ceil(log2(v / PHI_SQUARING_THETA))) if v > 0 else deepest
         for v in norms.tolist()]
    order = sorted(range(len(s)), key=lambda i: -s[i])
    unsort = sorted(range(len(s)), key=order.__getitem__)
    s = [s[i] for i in order]
    x = m[order]
    np.ldexp(x, -np.array(s)[:, None, None], out=x)
    top = np.zeros_like(x)
    _diagonal(top)[...] = 1.0 / factorial(PHI_SQUARING_TERMS - 1 + jmax)
    for k in range(PHI_SQUARING_TERMS - 2, -1, -1):
        top = np.matmul(x, top)
        _diagonal(top)[...] += 1.0 / factorial(k + jmax)
    phis = np.empty((len(x), jmax + 1, n, n))
    phis[:, jmax] = top
    for k in range(jmax - 1, -1, -1):
        np.matmul(x, phis[:, k + 1], out=phis[:, k])
        _diagonal(phis)[:, k] += 1.0 / factorial(k)
    # a matrix joins the squarings at its own level s, reading its Taylor
    # phis from whichever stack is current then: both hold them
    doubled, mixed = phis.copy(), np.empty((len(x), jmax + 1, n * n))
    got = {}
    for k in range(s[0], -1, -1):
        live = sum(sk > k for sk in s)
        if live:
            _combine(phis[:live], phis[:live], 1, 1, doubled[:live], mixed[:live])
            phis, doubled = doubled, phis
        got.update({(j, k): phis[unsort, j].reshape(shape) for j, kj in wants if kj == k})
    return got


def _diagonal(stack):
    """Writable view of the diagonals of a C-contiguous (..., n, n) stack."""
    n = stack.shape[-1]
    return stack.reshape(stack.shape[:-2] + (n * n,))[..., ::n + 1]


def _combine(p_phis, q_phis, p, q, out, mixed):
    """phi_0..phi_jmax at (p + q) Y into out, from the (live, jmax+1, n, n)
    stacks of phi_0..phi_jmax at p Y and q Y, by phi's addition formula

        (p+q)^j phi_j((p+q) Y) = q^j e^(pY) phi_j(qY)
                                 + sum_{k=1..j} p^k q^(j-k)/(j-k)! phi_k(pY),

    at jmax + 1 n x n products per matrix; mixed is a (live, jmax+1, n*n)
    scratch.  p = q is the modified squaring phi_j(2X) from phi_j(X).

    Each matrix of out then has its entries below PHI_FLUSH_RATIO (2^-200)
    times its own largest entry set to zero, in place, with mixed holding
    the absolute values.  For a smoothing M the entries far from the
    diagonal fall to 1e-300 midway through a chain, and products of such
    entries are subnormal, which the CPU computes in slow microcode; zeroed,
    they cost nothing, and they move no product by more than 2^-147 of the
    bound on its own rounding.  The floor is per matrix, so a matrix whose
    entries are all tiny keeps them.  A matrix is flushed only when its
    phi_0 holds a nonzero entry below PHI_FLUSH_TRIGGER (2^-511), whose
    square is subnormal.  phi_0 alone is tested, to keep the test to a few
    passes; on advdiff200 it falls below 2^-511 in the same squarings and
    walk steps as the smallest entry of any phi_j.  A stack with no such
    entry, as for a small or a non-smoothing M or the checker's 3 x 3
    probes, pays those passes and is left as it is.
    """
    live, width, n = out.shape[:3]
    qpow, mix = _addition_weights(p, q, width - 1)
    np.matmul(p_phis[:, :1], q_phis, out=out)
    out *= qpow
    np.matmul(mix, p_phis.reshape(live, width, n * n), out=mixed)
    out += mixed.reshape(out.shape)
    mag = mixed.reshape(out.shape)
    mag0 = np.abs(out[:, 0], out=mag[:, 0])
    if mag0[mag0 < PHI_FLUSH_TRIGGER].any():
        fire = ((mag0 > 0) & (mag0 < PHI_FLUSH_TRIGGER)).any(axis=(-2, -1))
        np.abs(out[:, 1:], out=mag[:, 1:])
        floor = mag.max(axis=(-2, -1), keepdims=True)
        floor *= PHI_FLUSH_RATIO * fire[:, None, None, None]
        np.copyto(out, 0.0, where=mag < floor)


@lru_cache(maxsize=None)
def _addition_weights(p, q, jmax):
    """(q/(p+q))^j as a (jmax+1, 1, 1) array, and the matrix of
    p^k q^(j-k) / ((p+q)^j (j-k)!) for 1 <= k <= j (zero elsewhere): the two
    parts of _combine, each an exact Fraction rounded once.  At p = q they
    are 2^-j and 2^-j/(j-k)!, the modified squaring's."""
    js = range(jmax + 1)
    qpow = np.array([float(Fraction(q, p + q) ** j) for j in js])[:, None, None]
    mix = np.array([[float(Fraction(p ** k * q ** (j - k), (p + q) ** j * factorial(j - k)))
                     if 1 <= k <= j else 0.0 for k in js] for j in js])
    qpow.flags.writeable = mix.flags.writeable = False
    return qpow, mix


def phi_matrix(j, m):
    """Matrix phi_j(M), j >= 0 (phi_0 is the exponential): one _squaring_chain."""
    if j < 0:
        raise ValueError("phi index must be >= 0")
    if np.ndim(m) != 2:
        raise ValueError("matrix must be square")
    return _squaring_chain(m, {(j, 0)})[j, 0]


def _phi_values(j, zs):
    """phi_j over a 1-d array of real arguments, passed as Python floats."""
    return np.array([phi_scalar(j, z) for z in np.asarray(zs, dtype=float).tolist()])


class PhiRequest(NamedTuple):
    """One phi matrix the cache must hold: phi_j(scale * h * A)."""

    j: int
    scale: Fraction


def phi_index(j):
    """j as an int; a j that is not an integer, or is a bool, raises
    TypeError rather than naming some other phi (int(2.5) is 2, True is 1)."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral):
        raise TypeError(f"phi index must be an integer, got {j!r}")
    return int(j)


def exact_rational(x):
    """x as an exact Fraction: an int or a str as its value, a float
    through its repr (0.2 is 1/5, not the binary value of the float 0.2).
    A bool is not a number here (True would read as 1)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(float(x)))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def phi_request(j, scale):
    """Normalize (j, scale) to a PhiRequest with an exact rational scale,
    read by exact_rational."""
    j = phi_index(j)
    if j < 0:
        raise ValueError("phi index must be >= 0")
    scale = exact_rational(scale)
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
    SineBasis that applies the DST-I; the cache only uses V @ y and V.T @ x.
    A dense cache stores the matrices themselves, and its basis is the
    identity.
    """

    def __init__(self, table, basis=None, spectral=False):
        self.spectral = bool(spectral)
        self.basis = basis
        self._table = {}
        for key, val in table.items():
            val = real_array(val, "table entry")
            val.flags.writeable = False
            self._table[phi_request(*key)] = val

    def get(self, j, scale):
        """The stored entry for phi_j(scale * h * A); CacheMissError on a miss.

        That is the eigenvalue vector of a spectral cache and the matrix of a
        dense one: the entry as it acts on coordinates in the basis V.
        """
        key = phi_request(j, scale)
        try:
            return self._table[key]
        except KeyError:
            raise CacheMissError(
                f"phi_{key.j} at scale {key.scale} not in cache "
                f"(built with {len(self._table)} entries)") from None

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


def phi_matrix_table(m, h, keys):
    """{(j, scale): phi_j(scale * h * M)} for each PhiRequest in keys.

    M is a square matrix or a (..., n, n) stack of them, and each entry has
    M's shape.  The dyadic scales 2^-k share one squaring chain: it runs on
    top * h * M, top the largest of them, to the largest j they request, and
    the scale top / 2^k is read out k squarings before its end.  Every other
    scale is a multiple t of Y = h M / L, L the least common denominator of
    those scales, and _walk reaches each tY.  The walk runs first, so that
    its stacks are gone before the dyadic chain allocates its own.  An entry
    that overflows raises OverflowError naming j, the scale and h.
    """
    dyadic, other = [], []
    for j, scale in keys:
        power_of_two = scale.numerator == 1 and scale.denominator.bit_count() == 1
        (dyadic if power_of_two else other).append((j, scale))
    table = {}
    with np.errstate(over="ignore", invalid="ignore"):
        if other:
            lcd = math.lcm(*(scale.denominator for _, scale in other))
            wants = {}
            for j, scale in other:
                wants.setdefault(int(scale * lcd), []).append(j)
            got = _walk(h / lcd * m, wants)
            table.update({(j, scale): got[j, int(scale * lcd)] for j, scale in other})
        if dyadic:
            top = max(scale for _, scale in dyadic)
            # (j, scale) is phi_j at depth k = log2(top / scale) of the chain
            at = {(j, scale): (j, (top / scale).numerator.bit_length() - 1)
                  for j, scale in dyadic}
            got = _squaring_chain(float(top) * h * m, set(at.values()))
            table.update({key: got[jk] for key, jk in at.items()})
    return _finite(table, h)


def _walk(y, wants):
    """{(j, t): phi_j(tY)} for each t -> [j, ...] in wants, Y a square matrix
    or a (..., n, n) stack of them, each entry of Y's shape.

    One squaring chain gives phi_0..phi_jmax(Y), jmax the largest j wanted.
    tY is reached from there along t's binary digits read left to right: a 0
    doubles the multiple, a 1 doubles it and adds Y, each step one _combine.
    The multiples passed form a trie rooted at 1 (the parent of t is t/2 or
    t - 1), so targets share their common prefixes.  Siblings are taken
    smaller subtree first, and a multiple's stack returns to a pool as soon
    as its last child is taken from it, so a few stacks serve the whole walk.
    """
    jmax = max(max(js) for js in wants.values())
    got = _squaring_chain(y, {(j, 0) for j in range(jmax + 1)})
    shape = got[0, 0].shape
    base = np.stack([got.pop((j, 0)) for j in range(jmax + 1)], axis=-3)
    base = base.reshape((-1,) + base.shape[-3:])
    parent = {}
    for t in wants:
        while t > 1 and t not in parent:
            parent[t] = t - 1 if t % 2 else t // 2
            t = parent[t]
    size = dict.fromkeys(parent, 0)
    for t in parent:
        while t in size:
            size[t], t = size[t] + 1, parent[t]
    kids = {}
    for t in sorted(parent, key=size.get):
        kids.setdefault(parent[t], []).append(t)
    stacks, pool = {1: base}, []
    mixed = np.empty(base.shape[:2] + (base.shape[-1] ** 2,))
    got = {(j, 1): base[:, j].reshape(shape).copy() for j in wants.get(1, ())}
    todo = kids.get(1, [])[::-1]
    while todo:
        t = todo.pop()
        v = parent[t]
        out = pool.pop() if pool else np.empty_like(base)
        _combine(stacks[v], stacks[v] if t == 2 * v else base, v, v if t == 2 * v else 1,
                 out, mixed)
        stacks[t] = out
        if t == kids[v][-1] and v > 1:
            pool.append(stacks.pop(v))
        got.update({(j, t): out[:, j].reshape(shape).copy() for j in wants.get(t, ())})
        if t in kids:
            todo += kids[t][::-1]
        else:
            pool.append(stacks.pop(t))
    return got


def _finite(table, h):
    """table, once every entry is checked finite."""
    for (j, scale), val in table.items():
        if not np.all(np.isfinite(val)):
            raise OverflowError(f"phi_{j}(scale * h * A) overflows at scale {scale}, "
                                f"h = {h!r}")
    return table


def build_phi_cache(a, h, requests):
    """Build phi_j(scale * h * A) for each (j, scale) request.

    An operator that supplies its eigendecomposition (w, V) -- zero, diagonal
    and symmetric tridiagonal A -- gets a spectral cache: each entry is the
    O(n) vector phi_j(scale * h * w), and V is stored once, so no n x n
    matrix is formed besides the basis (and none at all when V is a
    SineBasis).  Dense A gets n x n matrices from phi_matrix_table: a
    squaring chain for the dyadic scales, a walk for the others.  Either way PhiCache.get returns an
    entry as stored, in the form the integrator's Stepper applies it.
    Duplicate requests collapse; each entry is computed once.  An entry that
    overflows raises OverflowError naming j, the scale and h.
    """
    if not isinstance(a, LinearOperator):
        raise TypeError("a must be a LinearOperator")
    h = float(real_array(h, "h"))
    if not (np.isfinite(h) and h > 0):
        raise ValueError("step size must be positive and finite")
    keys = sorted({phi_request(*r) for r in requests})
    eig = a.eigendecomposition()
    if eig is None:
        return PhiCache(phi_matrix_table(a.dense(), h, keys))
    w, v = eig
    with np.errstate(over="ignore", invalid="ignore"):
        table = {(j, scale): _phi_values(j, float(scale) * h * w) for j, scale in keys}
    return PhiCache(_finite(table, h), basis=v, spectral=True)
