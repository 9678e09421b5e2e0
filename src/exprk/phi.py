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
phi_scalar call in plain float arithmetic.  Matrices come from one Taylor
step and one walk.  Every requested scale is a multiple t of one Y = hM/L,
L the least common denominator of the scales.  The Taylor step gives
phi_0..phi_j together at X = 2^-s Y, the least s >= 0 with ||X||_1 <= 3,
from n x n products alone, and the walk takes them to each tY, each step
(p + q)X from pX and qX by phi's addition formula: its first s steps are
the doublings X -> 2X -> ... -> Y, the modified squarings, and the rest
follow a shortest addition chain through the multiples t, times 2^s.
expRK5s8's 1/5, 1/4, 1/2, 2/3 and 1 are 12Y, 15Y, 30Y, 40Y and 60Y with L
= 60: s doublings and nine chain steps, 2, 4, 5, 10, 12, 15, 30, 40 and
60 times 2^s.
The doublings stop at ||X||_1 <= 3, where a Paterson-Stockmeyer
evaluation makes its 29-term Taylor step cost 9 products, and that is what
lets one walk serve every scale: each doubling skipped is rounding error
not made, which the long walk to 60Y spends.  Every walk step zeroes, in
place, each entry below 2^-200 of its matrix's largest: for the smoothing A
of a parabolic problem the far off-diagonal entries fall to
1e-150..1e-300 midway through a walk, and their products would run in slow
subnormal arithmetic, while zeroing them moves no later product by more than
2^-147 of the bound on its rounding (PHI_FLUSH_RATIO).  A matrix is flushed
only when its phi_0 holds a nonzero entry below 2^-511, whose square is
subnormal (PHI_FLUSH_TRIGGER).  phi_matrix_table is the one entry to the
Taylor step and the walk: a dense cache, phi_matrix (one key at scale 1, so
a walk of doublings alone), tableau.eval_combo and the order-condition
checker all build their matrices through it.  It also takes a stack of
matrices at once, grouped by s, each matrix getting what it would get
alone; the checker builds its probes' phi tables so.  Every route is real
and rejects a complex argument (TypeError).
"""

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, isqrt, log2
from typing import NamedTuple

import numpy as np

from .operators import LinearOperator, finite_array, integer, real_array, real_scalar

# Below this modulus the downward recurrence from exp(z) loses digits to
# cancellation, so a truncated Taylor series is used instead.
PHI_TAYLOR_RADIUS = 1.0
PHI_TAYLOR_TERMS = 25
# phi_matrix_table scales M until ||M||_1 <= PHI_SQUARING_THETA, and _taylor
# sums this many Taylor terms there, truncating at ||X||^29/(29+j)! <= 3^29/29! < 7.8e-18,
# below the 1/18! < 1.6e-16 of 18 terms at ||X||_1 <= 1.
PHI_SQUARING_THETA = 3.0
PHI_SQUARING_TERMS = 29
# _combine zeroes each entry below this fraction of the largest entry of its
# own matrix.  That changes a matrix P by at most n 2^-200 ||P||_1 in the
# 1-norm, so a later product P Q by at most n 2^-200 ||P||_1 ||Q||_1: 2^-147
# of the bound n u ||P||_1 ||Q||_1 on that product's own rounding, u = 2^-53.
PHI_FLUSH_RATIO = 2.0 ** -200
# ... but only in a matrix whose phi_0 holds a nonzero entry below this: the
# square root of the smallest normal float 2^-1022, so that two entries above
# it multiply to a normal number.
PHI_FLUSH_TRIGGER = 2.0 ** -511
# _addition_chain's exact search visits at most this many chains: expRK5s8's
# multiples take 277, one target up to 64 at most 4291.
PHI_CHAIN_SEARCH_NODES = 100_000
# Above this real part exp(z) overflows, and the recurrence with it.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class CacheMissError(KeyError):
    """A phi matrix was requested that the cache was not built for."""


def phi_scalar(j, z):
    """Evaluate phi_j at a real scalar z (an int or a numpy float too), as a
    float; a complex z, a str or a j that is not an integer raises TypeError,
    and a negative j ValueError (j is read by operators.integer).

    Uses the truncated Taylor series sum_m z^m / (m+j)! for |z| < 1 and the
    recurrence from exp(z) otherwise; accurate to machine precision in both
    regimes.  Where exp(z) overflows, the recurrence runs on phi_k(z) / e^(z/2),
    starting from e^(z/2), and the result is scaled back by e^(z/2) at the
    end; no intermediate (z^j in particular) overflows while phi_j(z) is
    finite (up to z ~ 1419).  The result is +inf where phi_j(z) exceeds the
    largest float, 0.0 at -inf and nan at nan, with no warning.
    """
    if type(j) is not int or j < 0:
        j = integer(j, "phi index", 0)
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


def _taylor(x, jmax):
    """The (P, jmax+1, n, n) stack of phi_0(X)..phi_jmax(X) for a (P, n, n)
    stack X of 1-norms at most PHI_SQUARING_THETA (3).

    phi_jmax(X) is the Taylor polynomial of PHI_SQUARING_TERMS (29) terms,
    sum_r X^r/(r+jmax)!, by Paterson and Stockmeyer (SIAM J. Comput.
    1973): with b = isqrt(29) = 5, the terms fall into 6 blocks of b, each
    block's sum of c_r X^r (r < b) is one product of the block coefficients
    with the stacked powers I..X^(b-1), and the blocks are summed by
    Horner's rule in X^b, at 9 n x n products in all.  The lower phi_j(X)
    follow from phi_j = X phi_{j+1} + I/j!, at jmax products more.  Each
    matrix gets exactly what it gets alone, and an empty (0, n, n) stack
    gives an empty result.
    """
    n = x.shape[-1]
    b = isqrt(PHI_SQUARING_TERMS)
    blocks = -(-PHI_SQUARING_TERMS // b)
    coeffs = np.zeros(blocks * b)
    coeffs[:PHI_SQUARING_TERMS] = [1.0 / factorial(r + jmax) for r in range(PHI_SQUARING_TERMS)]
    powers = np.empty((len(x), b + 1, n, n))
    powers[:, 0] = np.eye(n)
    powers[:, 1] = x
    for r in range(2, b + 1):
        np.matmul(powers[:, r - 1], x, out=powers[:, r])
    # block i is sum_r coeffs[i, r] X^r over X^0..X^(b-1)
    sums = np.matmul(coeffs.reshape(blocks, b), powers.reshape(len(x), b + 1, n * n)[:, :b])
    sums = sums.reshape(len(x), blocks, n, n)
    top = sums[:, -1]
    for i in range(blocks - 2, -1, -1):
        top = np.matmul(top, powers[:, b])
        top += sums[:, i]
    phis = np.empty((len(x), jmax + 1, n, n))
    phis[:, jmax] = top
    del powers, sums, top
    for k in range(jmax - 1, -1, -1):
        np.matmul(x, phis[:, k + 1], out=phis[:, k])
        _diagonal(phis)[:, k] += 1.0 / factorial(k)
    return phis


def _diagonal(stack):
    """Writable view of the diagonals of a C-contiguous (..., n, n) stack."""
    n = stack.shape[-1]
    return stack.reshape(stack.shape[:-2] + (n * n,))[..., ::n + 1]


def _combine(p_phis, q_phis, p, q, out, scratch):
    """phi_0..phi_jmax at (p + q) Y into out, from the (live, jmax+1, n, n)
    stacks of phi_0..phi_jmax at p Y and q Y, by phi's addition formula

        (p+q)^j phi_j((p+q) Y) = q^j e^(pY) phi_j(qY)
                                 + sum_{k=1..j} p^k q^(j-k)/(j-k)! phi_k(pY),

    at jmax + 1 n x n products per matrix; scratch is a (live, n, n) stack
    that takes one product at a time.  The sum over k is one product of
    the weights with the stacked phi_k(pY), written straight into out.  p =
    q is the modified squaring phi_j(2X) from phi_j(X).

    Each matrix of out then has its entries below PHI_FLUSH_RATIO (2^-200)
    times its own largest entry set to zero, in place, with scratch holding
    the absolute values of one phi_j at a time.  For a smoothing M the
    entries far from the diagonal fall to 1e-300 midway through a walk,
    and products of such entries are subnormal, which the CPU computes in
    slow microcode; zeroed, they cost nothing, and they move no product by
    more than 2^-147 of the bound on its own rounding.  The floor is per
    matrix, so a matrix whose entries are all tiny keeps them.  A matrix is
    flushed only when its phi_0 holds a nonzero entry below
    PHI_FLUSH_TRIGGER (2^-511), whose square is subnormal.  phi_0 alone is
    tested, to keep the test to a few passes; on advdiff200 it falls below
    2^-511 in the same walk steps as the smallest entry of any phi_j.  A
    stack with no such entry, as for a small or a non-smoothing M or the
    checker's 3 x 3 probes, pays those passes and is left as it is.
    """
    live, width, n = out.shape[:3]
    qpow, mix = _addition_weights(p, q, width - 1)
    np.matmul(mix, p_phis.reshape(live, width, n * n), out=out.reshape(live, width, n * n))
    for j in range(width):
        np.matmul(p_phis[:, 0], q_phis[:, j], out=scratch)
        scratch *= qpow[j]
        out[:, j] += scratch
    mag = np.abs(out[:, 0], out=scratch)
    fire = ((mag > 0) & (mag < PHI_FLUSH_TRIGGER)).any(axis=(-2, -1))
    if fire.any():
        for j in range(width):
            np.abs(out[:, j], out=mag)
            floor = mag.max(axis=(-2, -1), keepdims=True)
            floor *= PHI_FLUSH_RATIO * fire[:, None, None]
            np.copyto(out[:, j], 0.0, where=mag < floor)


@lru_cache(maxsize=None)
def _addition_weights(p, q, jmax):
    """(q/(p+q))^j as a (jmax+1,) array, and the matrix of
    p^k q^(j-k) / ((p+q)^j (j-k)!) for 1 <= k <= j (zero elsewhere): the two
    parts of _combine, each an exact Fraction rounded once.  At p = q they
    are 2^-j and 2^-j/(j-k)!, the modified squaring's."""
    js = range(jmax + 1)
    qpow = np.array([float(Fraction(q, p + q) ** j) for j in js])
    mix = np.array([[float(Fraction(p ** k * q ** (j - k), (p + q) ** j * factorial(j - k)))
                     if 1 <= k <= j else 0.0 for k in js] for j in js])
    qpow.flags.writeable = mix.flags.writeable = False
    return qpow, mix


def phi_matrix(j, m):
    """Matrix phi_j(M), j >= 0 (phi_0 is the exponential): the one-key
    phi_matrix_table at h = 1 and scale 1, so one _taylor step and a walk
    of doublings alone on M.  M is read by operators.finite_array as a 2-d
    array and j by phi_request; an overflowing result raises OverflowError
    as phi_matrix_table does."""
    return phi_matrix_table(finite_array(m, "M", (None, None)), 1.0, [(j, 1)])[j, 1]


def _phi_values(j, zs):
    """phi_j over a 1-d array of real arguments, passed as Python floats."""
    return np.array([phi_scalar(j, z) for z in np.asarray(zs, dtype=float).tolist()])


class PhiRequest(NamedTuple):
    """One phi matrix the cache must hold: phi_j(scale * h * A)."""

    j: int
    scale: Fraction


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
    read by integer and exact_rational."""
    j = integer(j, "phi index", 0)
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
    identity.  The entries tell the two apart: 1-d entries make a spectral
    cache and 2-d ones a dense cache; a table that mixes them raises
    ValueError.
    """

    def __init__(self, table, basis=None):
        self.basis = basis
        self._table = {}
        for key, val in table.items():
            # a view, so that the caller's own array stays writable
            val = real_array(val, "table entry").view()
            val.flags.writeable = False
            self._table[phi_request(*key)] = val
        ndims = {val.ndim for val in self._table.values()}
        if len(ndims) > 1:
            raise ValueError("a phi table holds eigenvalue vectors or matrices, not both")
        self.spectral = ndims == {1}

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
    """{(j, scale): phi_j(scale * h * M)} for each (j, scale) in keys.

    Each key is read by phi_request, so j is an integer >= 0 and the scale
    an exact rational in (0, 1] (0.5 and "1/2" are the key (j, 1/2)), and
    equal keys give one entry.  M is a square matrix or a (..., n, n) stack
    of them, read by operators.finite_array, and each entry has M's shape;
    h is read as build_phi_cache reads it, a finite positive real.  This is
    the one entry to the matrix phi kernel: phi_matrix, eval_combo, the
    order-condition checker and a dense cache all build their matrices
    here.  Every scale is a multiple t of Y = h M / L, L the least common
    denominator of all the scales.  Each matrix of the stack is scaled to
    X = 2^-s Y, with its own s the least s >= 0 that gives X a 1-norm of
    at most PHI_SQUARING_THETA (3), and the matrices are grouped by s.  For
    each group one _taylor step gives phi_0..phi_jmax(X), to the largest j
    requested, and one _walk reaches each tY from it: its first s steps
    are the doublings 2^k X + 2^k X, Skaflestad and Wright's modified
    squarings (Appl. Numer. Math. 2009), and the rest follow a shortest
    addition chain through the multiples t, each step times 2^s.  Each
    matrix gets exactly what it gets alone.  Where every scale is 2^-k,
    the shortest chain only doubles, and where ||Y||_1 > 3 as well, each
    entry is, bit for bit, the walk on its own scale alone.  One walk can
    serve every scale because X has ||X||_1 <= 3: fewer squarings mean
    less rounding (Al-Mohy and Higham, SIMAX 2009), which the long walk to
    tY spends.  An entry that overflows raises OverflowError naming j, the
    scale and h.
    """
    h = _step_size(h)
    keys = dict.fromkeys(phi_request(*key) for key in keys)
    if not keys:
        return {}
    m = finite_array(m, "M", (None,) * max(np.ndim(m), 2))
    n = m.shape[-1]
    if m.shape[-2] != n:
        raise ValueError("matrix must be square")
    lcd = math.lcm(*(scale.denominator for _, scale in keys))
    wants = {}
    for key in keys:
        wants.setdefault(int(key.scale * lcd), []).append(key)
    chain, jmax = _addition_chain(frozenset(wants)), max(j for j, _ in keys)
    stack = m.reshape(-1, n, n)
    norms = np.abs(h / lcd * stack).sum(axis=-2).max(axis=-1, initial=0.0)
    s = [max(0, ceil(log2(v / PHI_SQUARING_THETA))) if v > 0 else 0 for v in norms.tolist()]
    got, groups = {}, set(s) or {0}
    for sk in groups:
        # one group takes the whole stack, without a scatter
        at = [i for i, v in enumerate(s) if v == sk] if len(groups) > 1 else ...
        steps = [(1 << k, 1 << k) for k in range(sk)] + [(p << sk, q << sk) for p, q in chain]
        with np.errstate(over="ignore", invalid="ignore"):
            for t, phis in _walk(_taylor(np.ldexp(h / lcd * stack[at], -sk), jmax), steps):
                for key in wants.get(t >> sk, ()):
                    got.setdefault(key, np.empty(stack.shape))[at] = phis[:, key.j]
    return _finite({key: val.reshape(np.shape(m)) for key, val in got.items()}, h)


def _walk(phis, steps):
    """Yield (1, phis), then (p + q, the stack at (p + q)X) for each step
    (p, q) in steps, from phis, the (P, jmax+1, n, n) stack of
    phi_0..phi_jmax(X) that _taylor gives.

    Each step forms (p + q)X from pX and qX by one _combine; p and q are 1
    or earlier sums, and a step with p = q is a modified squaring.  A
    yielded stack holds until the walk resumes: the walk frees each stack
    after the last step that reads it, or at once if none does, and writes
    the next step into the stack it freed last, so it holds only the
    stacks it will still read and allocates no stack while it holds a
    free one.
    """
    last_read = {v: i for i, step in enumerate(steps) for v in step}
    stacks, shape, spare = {1: phis}, phis.shape, None
    scratch = np.empty(shape[:1] + shape[2:])
    del phis
    yield 1, stacks[1]
    for i, (p, q) in enumerate(steps):
        t = p + q
        stacks[t], spare = np.empty(shape) if spare is None else spare, None
        _combine(stacks[p], stacks[q], p, q, stacks[t], scratch)
        yield t, stacks[t]
        # t last, so that the spare is the stack the caller still holds
        for v in sorted({p, q, t}):
            if last_read.get(v, i) == i:
                spare = stacks.pop(v)


@lru_cache(maxsize=None)
def _addition_chain(targets):
    """A shortest addition chain through targets, a frozenset of ints >= 1,
    as the tuple of its steps (p, q), p >= q: the chain is 1 and the sums
    p + q in ascending order, and each p and q is 1 or an earlier sum
    (Knuth, TAOCP vol. 2, 4.6.3).  {12, 15, 30, 40, 60} takes 9 steps, 2,
    4, 5, 10, 12 = 10 + 2, 15 = 10 + 5, 30, 40 = 30 + 10 and 60, where t's
    binary digits take 14.  The search is exact, by iterative deepening
    below the length of the binary-digit chain (_chain_search), and gives
    that chain when it visits more than PHI_CHAIN_SEARCH_NODES chains
    first, as it can for targets in the thousands."""
    targets = tuple(sorted(targets))
    members = set()
    for t in targets:
        while t > 1 and t not in members:
            members.add(t)
            t = t - 1 if t % 2 else t // 2
    binary = tuple((t - 1, 1) if t % 2 else (t // 2, t // 2) for t in sorted(members))
    tally = [PHI_CHAIN_SEARCH_NODES]
    for budget in range(len(binary)):
        found = _chain_search((1,), (), targets, budget, tally)
        if found is not None:
            return found
    return binary


def _chain_search(chain, steps, targets, budget, tally):
    """steps extended by at most budget more steps to an ascending chain
    through every target, or None.  chain is 1 and the sums of steps, and
    tally[0] counts down the chains left to visit.  The next member is
    tried among the sums up to the largest target, larger first, each once,
    as p + q with p the largest member that gives it.  A branch is cut when
    a target below the last member is missing, or when the missing targets,
    in ascending order, need more steps than budget: each takes a step, and
    at least ceil(log2(t/m)) steps lead from a largest member m to t, since
    a step at most doubles it."""
    tally[0] -= 1
    last = prev = chain[-1]
    need = 0
    for t in targets:
        if t not in chain:
            if t < last:
                return None
            need += max(1, ((t - 1) // prev).bit_length())
            prev = t
    if not need:
        return steps
    if need > budget or tally[0] < 0:
        return None
    sums = {}
    for i, p in enumerate(chain):
        for q in chain[:i + 1]:
            if last < p + q <= targets[-1]:
                sums[p + q] = (p, q)
    for s in sorted(sums, reverse=True):
        found = _chain_search(chain + (s,), steps + (sums[s],), targets, budget - 1, tally)
        if found is not None:
            return found
    return None


def _step_size(h):
    """h read by operators.real_scalar; ValueError unless finite and positive."""
    h = real_scalar(h, "h")
    if not (np.isfinite(h) and h > 0):
        raise ValueError("step size must be positive and finite")
    return h


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
    SineBasis).  Dense A gets n x n matrices from phi_matrix_table: one
    Taylor step at X = 2^-s Y, Y a base of which every scale is a multiple,
    and one walk whose first s steps are the doublings from X to Y and the
    rest a shortest addition chain through those multiples (9 steps for
    expRK5s8).  Either way PhiCache.get returns an entry as
    stored, in the form the integrator's Stepper applies it.
    Duplicate requests collapse; each entry is computed once.  An entry that
    overflows raises OverflowError naming j, the scale and h.
    """
    if not isinstance(a, LinearOperator):
        raise TypeError("a must be a LinearOperator")
    h = _step_size(h)
    keys = sorted({phi_request(*r) for r in requests})
    eig = a.eigendecomposition()
    if eig is None:
        return PhiCache(phi_matrix_table(a.dense(), h, keys))
    w, v = eig
    with np.errstate(over="ignore", invalid="ignore"):
        table = {(j, scale): _phi_values(j, float(scale) * h * w) for j, scale in keys}
    return PhiCache(_finite(table, h), basis=v)
