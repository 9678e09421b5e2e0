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
defect at the leaf; one recursive routine evaluates them all.  Each psi
defect is defined by tableau.psi_parts alone: the residual loop takes the
parts its words read once per check, one psi_parts per (j, i), and every
table is summed from them with tableau.combo_sum.

Checking an identity over *all* matrices is impossible numerically; the
checker evaluates residuals on a batch of seeded random probes plus
structured diagonal/permutation probes chosen to separate the terms.  A
residual above tolerance on any probe disproves the identity; passing on all
probes is the (probabilistic) verdict that it holds.

The phi matrices come in stacks: check() groups its probes by dimension d,
and one builder, _group_tables, makes each group's tables over the stacked
Z of the group.  From one phi table (phi.phi_matrix_table: one Taylor step
and one walk, for expRK5s8 from Z/60 to all five scales) it sums the sets a
nest sums over, the rows of a and the update's row s + 1 (b_i(Z)), and the
leaves, every psi defect the words read; beside them it stacks the set
"b(0)" of b_i(0) I and the leaves psi_j(0) I, both exact at Z = 0: each is
its exact rational (PhiCombo.at_zero) rounded once, so psi_j(0), which is
0 for expRK5s8 at j = 2..5, reads 0.  Weakened mode is no branch
anywhere, only these ordinary sets and leaves: in weakened mode a word
of TOP_ORDER sums over "b(0)" in place of row s + 1, and without links it
reads the leaf psi_j(0) I in place of psi_j.  Table and sums compute for each member
exactly what they compute for that Z alone, so every probe gets the numbers
it would get alone; condition_residual runs the same loop on one probe.

The words are then evaluated probe by probe on its members of those stacks
through one recursion, _nest, over one memo dict per probe: seeded with the
leaves, it gains each inner nest, left factor coeffs_i X and bilinear lift
once, for all words and both modes.  Each nest sum starts at its first
term, and a probe's word values are reduced to residuals together.  On the
stacks, the words' 3x3 products would make a check() of about 15 ms,
shorter than the benchmark speed probe's 25 ms period, so they stay per
probe.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod
from operator import mul
from typing import NamedTuple

import numpy as np

from .operators import finite_array, integer, real_scalar
# build_phi_cache and eval_combo are unused here; perfbench's tracer wraps them by name
from .phi import build_phi_cache, phi_matrix_table
from .tableau import combo_sum, eval_combo, psi_combo, psi_parts, psi_values

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
        object.__setattr__(self, "d", integer(self.d, "probe d", 1))
        for name, dims in zip("ZJKLB", [(self.d, self.d)] * 4 + [(self.d,) * 3]):
            object.__setattr__(self, name, finite_array(getattr(self, name), f"probe {name}", dims))


def draw_probe_sets(count, d=3, seed=0):
    """Seeded batch of random probes, entries i.i.d. uniform on [-1, 1]."""
    count, d, seed = integer(count, "count", 0), integer(d, "d", 1), integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        mats = [rng.uniform(-1.0, 1.0, size=(d, d)) for _ in range(4)]
        tensor = rng.uniform(-1.0, 1.0, size=(d, d, d))
        out.append(ProbeSet(d, *mats, tensor, seed=seed + k, label=f"random-{k}"))
    return out


def structured_probes():
    """ProbeSets with diagonal Z and permutation J = K = L that separate terms.

    The 2x2 family uses Z = diag(lambda, mu) with the swap J over a grid of
    (lambda, mu); the 3x3 family uses Z = diag(lambda, mu, nu) with the cyclic
    permutation J (J^3 = I) over a coarse grid.  B is the diagonal tensor,
    B(u, v)_r = u_r v_r.
    """
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    # the canonical separating pair leads; the rest of the grid follows
    pairs = [((-1.0, 1.0), swap)]
    pairs += [(z, swap) for z in product((-1.0, 1.0, 0.0, -10.0), repeat=2)
              if z != (-1.0, 1.0)]
    pairs += [(z, cyc) for z in product((-1.0, 1.0, -10.0), repeat=3)]
    out = []
    for k, (z, j) in enumerate(pairs):
        d = len(z)
        tensor = np.zeros((d, d, d))
        tensor[range(d), range(d), range(d)] = 1.0
        out.append(ProbeSet(d, np.diag(z), j, j, j, tensor, label=f"structured-{k}"))
    return out


def _bilinear_columns(tensor, u_mat, v_mat):
    """Columnwise lift of the bilinear map to matrix arguments."""
    return np.einsum("rpq,pc,qc->rc", tensor, u_mat, v_mat)


class Word(NamedTuple):
    """One stiff order condition as a nested sum around a psi defect.

    A word with no links is the weight defect psi_j.  Otherwise the residual
    is sum_i W_i X_1 [sum_k a_ik X_2 [... psi_{j,k}]], with the outer weight
    W_i = b_i(Z) (b_i(0) I in weakened mode at TOP_ORDER) and the links
    (p, X) read from the outer sum inward: each link multiplies its term by
    c^p of its stage index and interleaves the probe matrix X (J, K or L),
    or, for the letter B, applies the bilinear map to the inner value taken
    twice.
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
# the order whose conditions weakened mode relaxes; the orders below it are strong
TOP_ORDER = max(CONDITION_ORDERS.values())

MODES = ("strong", "weakened")


def _group_tables(t, probes, targets):
    """(sets, leaves) for one dimension group of probes, each value a stack
    over the group's probes.

    sets holds what a nest sums over, each in stage order: row i at stage
    i = 2..s + 1 (row s + 1 is the weights b_i(Z)) and "b(0)", each
    b_i(0) I.  leaves holds the psi defect of each target, targets being
    {(j, i): tableau.psi_parts of psi_{j,i}}, under ((), j, i) (psi_j is
    psi_{j,s+1}), and psi_j(0) I under ((), j, "b(0)") for each word of
    TOP_ORDER without links, psi_j(0) being the exact rational
    tableau.psi_combo(j, t).at_zero() rounded once, as b_i(0) is.

    The rows and targets are summed by combo_sum on one phi table over the
    stacked Z, as the stepper sums its coefficients, and each defect goes
    through tableau.psi_values, so residuals reflect float evaluation, not
    pre-cancelled rationals.  The sums are elementwise: each member is
    exactly its probe's sum alone.
    """
    pairs = t.phi_pairs().union(*(target.phi_pairs() for _, target in targets.values()))
    phi = phi_matrix_table(np.stack([p.Z for p in probes]), 1.0, pairs)
    get = lambda j, scale: phi[j, scale]
    eye = np.broadcast_to(np.eye(probes[0].d), (len(probes), probes[0].d, probes[0].d))
    # the empty combo, a zero node's target, is the zero matrix here
    mat = lambda combo: combo_sum(combo, get) if combo.terms else 0.0 * eye
    sets = {i: {k: mat(v) for k, v in t.row(i).items()} for i in range(2, t.s + 2)}
    sets["b(0)"] = {i: float(v.at_zero()) * eye for i, v in t.b.items()}
    leaves = {((), j, where): psi_values(j, t, sets[where], mat(target))
              for (j, where), (_, target) in targets.items()}
    leaves |= {((), w.psi, "b(0)"): float(psi_combo(w.psi, t).at_zero()) * eye
               for w in WORDS.values() if w.order == TOP_ORDER and not w.links}
    return sets, leaves


def _nest(p, c, coeffs, memo, key):
    """The nest key = (links, j, where) at probe p, stored in memo: the sum
    over coeffs[where] of c_i^power (coeffs_i X) inner_i for the first link
    (power, X), inner_i being the nest of the remaining links over row i, or
    the leaf psi_{j,i} after the last link.  The letter B makes the term
    coeffs_i B(inner_i, inner_i).  memo also keeps each left factor
    coeffs_i X under (where, X, i) and each bilinear lift under
    (rest, j, i, "B"); the sum starts at its first term, and an empty set
    (stage 2's row) gives a zero matrix."""
    links, j, where = key
    (power, letter), rest = links[0], links[1:]
    acc = None
    for i, coeff in coeffs[where].items():
        inner = memo.get((rest, j, i))
        if inner is None:
            inner = _nest(p, c, coeffs, memo, (rest, j, i))
        if letter == "B":
            lift = memo.get((rest, j, i, "B"))
            if lift is None:
                lift = memo[rest, j, i, "B"] = _bilinear_columns(p.B, inner, inner)
            term = coeff @ lift
        else:
            left = memo.get((where, letter, i))
            if left is None:
                left = memo[where, letter, i] = coeff @ getattr(p, letter)
            term = left @ inner
        if power:
            term *= c[i - 1] ** power
        if acc is None:
            acc = term
        else:
            acc += term
    memo[key] = np.zeros_like(p.Z) if acc is None else acc
    return memo[key]


def _probe_residuals(t, probes):
    """{(cid, mode): [residual at each probe]}, in probe order.

    The psi targets the words read are taken once per call: psi_{j,i} at
    every stage i for each word with links, and the weight defect
    psi_j = psi_{j,s+1} for each word without.  Each dimension group gets
    one _group_tables; each probe's memo is seeded with its members of the
    leaves, and its word values are reduced to residuals together.  A
    word's outer set is "b(0)" in weakened mode at TOP_ORDER and otherwise
    the update's row, s + 1, so below TOP_ORDER both modes read one memo
    entry.
    """
    for probe in probes:
        if not isinstance(probe, ProbeSet):
            raise TypeError(f"a probe must be a ProbeSet, got {probe!r}")
    words = {(cid, mode): (w.links, w.psi, "b(0)" if mode == "weakened"
                           and w.order == TOP_ORDER else t.s + 1)
             for cid, w in WORDS.items() for mode in MODES}
    keys = dict.fromkeys((w.psi, i) for w in WORDS.values()
                         for i in (range(2, t.s + 1) if w.links else (t.s + 1,)))
    targets = {(j, i): psi_parts(j, t, None if i > t.s else i) for j, i in keys}
    c = [float(ci) for ci in t.c]
    residuals = np.empty((len(probes), len(words)))
    for d in dict.fromkeys(probe.d for probe in probes):
        ns = [n for n, probe in enumerate(probes) if probe.d == d]
        sets, leaves = _group_tables(t, [probes[n] for n in ns], targets)
        for k, n in enumerate(ns):
            coeffs = {where: {i: v[k] for i, v in s.items()} for where, s in sets.items()}
            memo = {key: v[k] for key, v in leaves.items()}
            values = np.stack([memo[key] if key in memo else _nest(probes[n], c, coeffs, memo, key)
                               for key in words.values()])
            residuals[n] = np.abs(values).max(axis=(1, 2))
    return dict(zip(words, residuals.T.tolist()))


def condition_residual(cid, t, p, mode="strong"):
    """Max-abs residual of one condition at one probe set, as check()
    evaluates it there."""
    cid = integer(cid, "condition id", 1)
    if cid not in WORDS:
        raise ValueError(f"unknown condition id {cid}")
    if mode not in MODES:
        raise ValueError("mode must be strong or weakened")
    return _probe_residuals(t, [p])[cid, mode][0]


@dataclass(frozen=True)
class ConditionRow:
    id: int
    mode: str
    order: int
    residual: float
    passed: bool
    worst_probe: str = ""  # label of the probe at np.argmax of the residuals


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


def check(t, tolerance=1e-9, p=None, seed=0):
    """Run all 16 conditions in both modes over a probe batch.

    p may be a single ProbeSet or a list or tuple of them (anything else
    raises TypeError); by default 50 seeded random 3x3 probes are drawn.
    The structured diagonal/permutation probes are always appended.  The
    report carries the highest p below TOP_ORDER whose strong conditions all
    pass, and the weakened verdict: every weakened row passes (below
    TOP_ORDER those rows are the strong ones).
    """
    tolerance = real_scalar(tolerance, "tolerance")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    if p is None:
        probes = draw_probe_sets(50, d=3, seed=seed)
    else:
        probes = list(p) if isinstance(p, (list, tuple)) else [p]
    probes = probes + structured_probes()
    # np.argmax, unlike a running comparison, stops at a NaN residual
    worst = {key: (res[n], probes[n].label) for key, res in
             _probe_residuals(t, probes).items() for n in [int(np.argmax(res))]}

    rows = tuple(ConditionRow(cid, mode, CONDITION_ORDERS[cid], worst[cid, mode][0],
                              worst[cid, mode][0] <= tolerance, worst[cid, mode][1])
                 for cid in sorted(CONDITION_ORDERS) for mode in MODES)

    highest = 1
    for order in range(2, TOP_ORDER):
        if not all(r.passed for r in rows if r.mode == "strong" and r.order <= order):
            break
        highest = order
    # below the top order the weakened rows are the strong rows
    weakened5 = all(r.passed for r in rows if r.mode == "weakened")
    return ConditionReport(rows=rows, tolerance=tolerance, n_probes=len(probes),
                           highest_strong_order=highest, weakened_order5=weakened5)


# ---------------------------------------------------------------------------
# Classical order conditions (Butcher's rooted trees through order 5) in
# exact rationals, for the A = 0 Butcher limit.

@cache
def _rooted_trees(order):
    """The rooted trees with order nodes, each the sorted tuple of the
    subtrees hanging from its root (the one-node tree is ())."""
    if order == 1:
        return ((),)
    # each tree is a tree on the other nodes with one more subtree u at its root
    return tuple(sorted({tuple(sorted(rest + (u,))) for size in range(1, order)
                         for u in _rooted_trees(size)
                         for rest in _rooted_trees(order - size)}))


def _order(t):
    return 1 + sum(map(_order, t))


def _density(t):
    """gamma(t) = |t| prod_{u in t} gamma(u)."""
    return _order(t) * prod(map(_density, t))


def classical_order_conditions(bt):
    """All 17 rooted-tree conditions up to order 5 for a Butcher tableau.

    Returns (order, lhs, rhs) triples with exact Fraction values, one per
    tree t in order: lhs = sum_i b_i Phi_i(t), with the elementary weight
    Phi_i(t) = prod_{u in t} sum_k a_ik Phi_k(u), and rhs = 1/gamma(t).  The
    inner sum for the one-node u is written c_i, as the row-sum condition
    makes it.  A tableau has classical order p iff every row with
    order <= p has lhs == rhs.
    """
    @cache
    def a_times(u):
        """sum_k a_ik Phi_k(u) at each stage i."""
        return bt.c if not u else [sum(map(mul, row, weights(u)), Fraction(0))
                                   for row in bt.a]

    @cache
    def weights(t):
        return [prod((a_times(u)[i] for u in t), start=Fraction(1))
                for i in range(len(bt.c))]

    return [(order, sum(map(mul, bt.b, weights(t)), Fraction(0)), Fraction(1, _density(t)))
            for order in range(1, 6) for t in _rooted_trees(order)]


def classical_order(bt):
    """Largest p <= 5 with all classical conditions of order <= p exact."""
    failing = [o for o, lhs, rhs in classical_order_conditions(bt) if lhs != rhs]
    return min(failing, default=6) - 1
