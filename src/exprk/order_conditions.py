"""Numerical verification of the sixteen stiff order conditions.

The conditions are operator identities in an arbitrary square matrix Z
(standing for hA) together with arbitrary interleaved matrices J, K, L and a
bilinear map B; a method satisfying the conditions of order p attains order p
with error constants independent of the stiffness of A.  Conditions 1-7 cover
orders 2-4.  The order-5 conditions (8-16) come in two modes: "strong" as
displayed, and "weakened" with condition 8 imposed only at Z = 0 and the
outer weights b_i(Z) of conditions 9-16 replaced by the scalars b_i(0) --
still sufficient for fifth order on parabolic problems.

Every condition nests the same pieces, so each is stored as a Word: an
outer weight b_i, zero or more links (a power of c and a probe matrix J, K or
L, or the bilinear map B) leading inward through the rows of a, and a psi
defect at the leaf; one recursive routine evaluates them all.

Checking an identity over *all* matrices is impossible numerically; the
checker evaluates residuals on a batch of seeded random probes plus
structured diagonal/permutation probes chosen to separate the terms.  A
residual above tolerance on any probe disproves the identity; passing on all
probes is the (probabilistic) verdict that it holds.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .operators import DenseOperator
from .phi import build_phi_cache
from .tableau import eval_combo, psi_values, psi_weight

__all__ = [
    "ProbeSet", "ConditionReport", "ConditionRow", "condition_residual",
    "check", "structured_probes", "draw_probe_sets", "CONDITION_ORDERS", "WORDS",
    "classical_order_conditions",
]

@dataclass(frozen=True)
class ProbeSet:
    """One bundle of probe matrices: Z plays hA; J, K, L interleave; B is
    bilinear, stored as a rank-3 tensor acting by B(u, v)_r = sum T_rpq u_p v_q."""

    d: int
    Z: np.ndarray
    J: np.ndarray
    K: np.ndarray
    L: np.ndarray
    B: np.ndarray
    seed: int = -1
    label: str = ""

    def __post_init__(self):
        for name in ("Z", "J", "K", "L"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (self.d, self.d) or not np.all(np.isfinite(m)):
                raise ValueError(f"probe {name} must be finite {self.d}x{self.d}")
            object.__setattr__(self, name, m)
        b = np.asarray(self.B, dtype=float)
        if b.shape != (self.d, self.d, self.d) or not np.all(np.isfinite(b)):
            raise ValueError("probe B must be a finite rank-3 tensor")
        object.__setattr__(self, "B", b)


def draw_probe_sets(count, d=3, seed=0):
    """Seeded batch of random probes, entries i.i.d. uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        mats = [rng.uniform(-1.0, 1.0, size=(d, d)) for _ in range(4)]
        tensor = rng.uniform(-1.0, 1.0, size=(d, d, d))
        out.append(ProbeSet(d, *mats, tensor, seed=seed + k, label=f"random-{k}"))
    return out


def structured_probes():
    """(Z, J) pairs with diagonal Z and permutation J that separate terms.

    The 2x2 family uses Z = diag(lambda, mu) with the swap J over a grid of
    (lambda, mu); the 3x3 family uses Z = diag(lambda, mu, nu) with the cyclic
    permutation J (J^3 = I) over a coarse grid.
    """
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    # the canonical separating pair leads; the rest of the grid follows
    pairs = [(np.diag([-1.0, 1.0]), swap)]
    grid2 = (-1.0, 1.0, 0.0, -10.0)
    for lam, mu in product(grid2, repeat=2):
        if (lam, mu) != (-1.0, 1.0):
            pairs.append((np.diag([lam, mu]), swap))
    grid3 = (-1.0, 1.0, -10.0)
    for lam, mu, nu in product(grid3, repeat=3):
        pairs.append((np.diag([lam, mu, nu]), cyc))
    return pairs


def _structured_probe_sets():
    out = []
    for k, (z, j) in enumerate(structured_probes()):
        d = z.shape[0]
        tensor = np.zeros((d, d, d))
        for r in range(d):
            tensor[r, r, r] = 1.0
        out.append(ProbeSet(d, z, j, j.copy(), j.copy(), tensor,
                            label=f"structured-{k}"))
    return out


def _bilinear_columns(tensor, u_mat, v_mat):
    """Columnwise lift of the bilinear map to matrix arguments."""
    return np.einsum("rpq,pc,qc->rc", tensor, u_mat, v_mat)


class Word(NamedTuple):
    """One stiff order condition as a nested sum around a psi defect.

    A word with no links is the weight defect psi_j.  Otherwise the residual
    is sum_i W_i X_1 [sum_k a_ik X_2 [... psi_{j,k}]], with the outer weight
    W_i = b_i(Z) and the links (p, X) read from the outer sum inward: each
    link multiplies its term by c^p of its stage index and interleaves the
    probe matrix X (J, K or L), or, for the letter B, applies the bilinear
    map to the inner value taken twice.
    """

    order: int
    psi: int
    links: tuple = ()


_J, _K, _L = (0, "J"), (1, "K"), (2, "L")

# condition id -> its word, numbered as in the paper
WORDS = {
    1: Word(2, 2), 2: Word(3, 3), 3: Word(3, 2, (_J,)),
    4: Word(4, 4), 5: Word(4, 3, (_J,)), 6: Word(4, 2, (_J, _J)),
    7: Word(4, 2, (_K,)),
    8: Word(5, 5), 9: Word(5, 4, (_J,)), 10: Word(5, 3, (_J, _J)),
    11: Word(5, 2, (_J, _J, _J)), 12: Word(5, 2, (_J, _K)),
    13: Word(5, 3, (_K,)), 14: Word(5, 2, (_K, _J)),
    15: Word(5, 2, ((0, "B"),)), 16: Word(5, 2, (_L,)),
}

# condition id -> the order it belongs to
CONDITION_ORDERS = {cid: w.order for cid, w in WORDS.items()}

MODES = ("strong", "weakened")


class _ProbeTables:
    """Everything condition evaluation needs at one probe, assembled once.

    Coefficient matrices are built from a phi cache on Z (h = 1) exactly as
    the stepper builds them, and each psi defect is evaluated once, through
    its definition (tableau.psi_values), so residuals reflect genuine float
    evaluation, not pre-cancelled rationals.  at_zero memoises psi_j at Z = 0,
    which depends on the tableau alone, so the probes of one check share it.
    """

    def __init__(self, t, probe, at_zero):
        self.t = t
        self.p = probe
        self._at_zero = at_zero
        pairs = t.phi_pairs()
        pairs |= {(j, ci) for j in (2, 3, 4) for ci in t.c[1:] if ci > 0}
        pairs |= {(m, Fraction(1)) for m in (2, 3, 4, 5)}
        cache = build_phi_cache(DenseOperator(probe.Z), 1.0, pairs)
        self.get = cache.get
        self.eye = np.eye(probe.d)
        self.b_mat = {i: eval_combo(v, probe.Z, cache.get) for i, v in t.b.items()}
        self.b_at_zero = {i: float(v.at_zero()) * self.eye for i, v in t.b.items()}
        a_mat = {k: eval_combo(v, probe.Z, cache.get) for k, v in t.a.items()}
        self.rows = {i: {k: a_mat[(i, k)] for k in range(2, i) if (i, k) in a_mat}
                     for i in range(2, t.s + 1)}
        self.c = [float(ci) for ci in t.c]
        self._psi = {}

    def psi(self, j, i=None):
        """psi_j (i None) or psi_{j,i} at this probe, evaluated once."""
        key = (j, i)
        if key not in self._psi:
            if i is None:
                val = psi_values(j, self.t, self.b_mat, self.get(j, Fraction(1)))
            else:
                ci = self.t.node(i)
                target = (float(ci ** j) * self.get(j, ci) if ci > 0
                          else np.zeros_like(self.eye))
                val = psi_values(j, self.t, self.rows[i], target)
            self._psi[key] = val
        return self._psi[key]

    def psi_at_zero(self, j):
        """The weight defect psi_j at Z = 0, evaluated once per memo."""
        if j not in self._at_zero:
            self._at_zero[j] = psi_weight(j, self.t, 0.0)
        return self._at_zero[j]


def _nest(tab, links, j, coeffs):
    """sum_i c_i^p coeffs_i X [inner_i], inner_i being psi_{j,i} at the last link."""
    (power, letter), rest = links[0], links[1:]
    acc = np.zeros_like(tab.eye)
    for i in sorted(coeffs):
        inner = _nest(tab, rest, j, tab.rows[i]) if rest else tab.psi(j, i)
        if letter == "B":
            term = coeffs[i] @ _bilinear_columns(tab.p.B, inner, inner)
        else:
            term = coeffs[i] @ getattr(tab.p, letter) @ inner
        if power:
            term = tab.c[i - 1] ** power * term
        acc = acc + term
    return acc


def _residual(word, tab, mode):
    """Max-abs residual of one word at one probe.

    Weakened mode changes only order 5: the outer weights become the scalars
    b_i(0), and the weight defect psi_5 is taken at Z = 0 alone.
    """
    weakened = mode == "weakened" and word.order == 5
    if word.links:
        value = _nest(tab, word.links, word.psi, tab.b_at_zero if weakened else tab.b_mat)
    elif weakened:
        value = tab.psi_at_zero(word.psi)
    else:
        value = tab.psi(word.psi)
    return float(np.abs(value).max())


def condition_residual(cid, t, p, mode="strong"):
    """Max-abs residual of one condition at one probe set."""
    if cid not in WORDS:
        raise ValueError(f"unknown condition id {cid}")
    if mode not in MODES:
        raise ValueError("mode must be strong or weakened")
    return _residual(WORDS[cid], _ProbeTables(t, p, {}), mode)


@dataclass(frozen=True)
class ConditionRow:
    id: int
    mode: str
    order: int
    residual: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of checking all 16 conditions over a probe batch."""

    rows: tuple
    tolerance: float
    n_probes: int
    highest_strong_order: int
    weakened_order5: bool

    def row(self, cid, mode):
        for r in self.rows:
            if r.id == cid and r.mode == mode:
                return r
        raise KeyError((cid, mode))

    def table_text(self):
        lines = [f"{'cond':>4} {'order':>5} {'strong residual':>16} {'':>4}"
                 f" {'weakened residual':>18} {'':>4}",
                 "-" * 56]
        for cid in sorted(CONDITION_ORDERS):
            rs = self.row(cid, "strong")
            rw = self.row(cid, "weakened")
            lines.append(
                f"{cid:>4} {rs.order:>5} {rs.residual:>16.3e}"
                f" {'pass' if rs.passed else 'FAIL':>4}"
                f" {rw.residual:>18.3e} {'pass' if rw.passed else 'FAIL':>4}")
        lines.append(f"probes: {self.n_probes}   tolerance: {self.tolerance:g}")
        lines.append(f"highest strong order: {self.highest_strong_order}")
        lines.append("weakened order-5 verdict: "
                     + ("pass" if self.weakened_order5 else "FAIL"))
        return "\n".join(lines)

    def machine_rows(self):
        out = ["id,mode,residual,pass"]
        for r in self.rows:
            out.append(f"{r.id},{r.mode},{r.residual!r},{int(r.passed)}")
        return out


def check(t, tolerance=1e-9, p=None, n_probes=50, dim=3, seed=0):
    """Run all 16 conditions in both modes over a probe batch.

    p may be a single ProbeSet or a sequence of them; by default n_probes
    seeded random probes are drawn.  The structured diagonal/permutation
    probes are always appended.  The report carries the highest p in {1..4}
    whose strong conditions all pass, and the weakened order-5 verdict
    (strong 1-7 plus weakened 8-16).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if p is None:
        probes = draw_probe_sets(n_probes, d=dim, seed=seed)
    elif isinstance(p, ProbeSet):
        probes = [p]
    else:
        probes = list(p)
    probes = probes + _structured_probe_sets()

    worst = {(cid, mode): 0.0 for cid in WORDS for mode in MODES}
    at_zero = {}
    for probe in probes:
        tab = _ProbeTables(t, probe, at_zero)
        for cid, word in WORDS.items():
            # below order 5 the two modes are one condition: evaluate it once
            strong = _residual(word, tab, "strong")
            weak = _residual(word, tab, "weakened") if word.order == 5 else strong
            for mode, res in zip(MODES, (strong, weak)):
                if res > worst[(cid, mode)]:
                    worst[(cid, mode)] = res

    rows = tuple(ConditionRow(cid, mode, CONDITION_ORDERS[cid], worst[(cid, mode)],
                              worst[(cid, mode)] <= tolerance)
                 for cid in sorted(CONDITION_ORDERS) for mode in ("strong", "weakened"))
    by = {(r.id, r.mode): r for r in rows}

    highest = 1
    for order in (2, 3, 4):
        if all(by[(cid, "strong")].passed for cid in CONDITION_ORDERS
               if CONDITION_ORDERS[cid] <= order):
            highest = order
        else:
            break
    weakened5 = (all(by[(cid, "strong")].passed for cid in range(1, 8))
                 and all(by[(cid, "weakened")].passed for cid in range(8, 17)))
    return ConditionReport(rows=rows, tolerance=tolerance, n_probes=len(probes),
                           highest_strong_order=highest, weakened_order5=weakened5)


# ---------------------------------------------------------------------------
# Classical order conditions (rooted trees through order 5) in exact
# rationals, for the A = 0 Butcher limit.

def classical_order_conditions(bt):
    """All 17 rooted-tree conditions up to order 5 for a Butcher tableau.

    Returns (order, lhs, rhs) triples with exact Fraction values; a tableau
    has classical order p iff every row with order <= p has lhs == rhs.
    """
    s = len(bt.c)
    c = bt.c
    a = bt.a
    b = bt.b
    rng = range(s)

    def asum(f):
        # (A v)_i = sum_j a_ij f(j)
        return [sum((a[i][j] * f[j] for j in rng), Fraction(0)) for i in rng]

    one = [Fraction(1)] * s
    cv = list(c)
    c2 = [x * x for x in cv]
    c3 = [x ** 3 for x in cv]
    c4 = [x ** 4 for x in cv]
    ac = asum(cv)
    ac2 = asum(c2)
    ac3 = asum(c3)
    aac = asum(ac)
    aac2 = asum(ac2)
    a_cac = asum([cv[i] * ac[i] for i in rng])
    aaac = asum(aac)

    def dot(u, v=None):
        if v is None:
            v = one
        return sum((b[i] * u[i] * v[i] for i in rng), Fraction(0))

    rows = [
        (1, dot(one), Fraction(1)),
        (2, dot(cv), Fraction(1, 2)),
        (3, dot(c2), Fraction(1, 3)),
        (3, dot(ac), Fraction(1, 6)),
        (4, dot(c3), Fraction(1, 4)),
        (4, dot(cv, ac), Fraction(1, 8)),
        (4, dot(ac2), Fraction(1, 12)),
        (4, dot(aac), Fraction(1, 24)),
        (5, dot(c4), Fraction(1, 5)),
        (5, dot(c2, ac), Fraction(1, 10)),
        (5, dot(ac, ac), Fraction(1, 20)),
        (5, dot(cv, ac2), Fraction(1, 15)),
        (5, dot(cv, aac), Fraction(1, 30)),
        (5, dot(ac3), Fraction(1, 20)),
        (5, dot(a_cac), Fraction(1, 40)),
        (5, dot(aac2), Fraction(1, 60)),
        (5, dot(aaac), Fraction(1, 120)),
    ]
    return rows


def classical_order(bt, up_to=5):
    """Largest p <= up_to with all classical conditions of order <= p exact."""
    rows = classical_order_conditions(bt)
    order = 0
    for p in range(1, up_to + 1):
        if all(lhs == rhs for (o, lhs, rhs) in rows if o <= p):
            order = p
        else:
            break
    return order
