"""Coefficient tableaux for explicit exponential Runge-Kutta methods.

Every coefficient a_ij(z), b_i(z) of the scheme

    U_i     = u_n + c_i h phi_1(c_i hA) F(t_n, u_n) + h sum_{j<i} a_ij(hA) D_j
    u_{n+1} = u_n + h phi_1(hA) F(t_n, u_n) + h sum_i b_i(hA) D_i
    D_j     = g(t_n + c_j h, U_j) - g(t_n, u_n)

is a finite linear combination of phi_j at node-scaled arguments,
sum_m alpha_m phi_{j_m}(scale_m z), held here with exact rational alpha and
scale (PhiCombo).  Exact arithmetic matters: the order conditions hinge on
cancellations between entries, and the rational route makes those identities
checkable without float noise.

The module ships the fifth-order 8-stage method expRK5s8, two lower-order
baselines, the psi defects whose vanishing encodes the stiff order
conditions (each defined once by psi_parts and evaluated numerically by psi,
exactly by psi_combo), and the classical (A = 0) Butcher limit of any
tableau.
"""

import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, inf

import numpy as np

from .operators import finite_array, integer, real_scalar
from .phi import exact_rational, phi_matrix_table, phi_request, phi_scalar

__all__ = [
    "PhiCombo", "phi_term", "combo_sum", "eval_combo", "ExpRKTableau",
    "ButcherTableau", "exprk5s8", "baseline_tableaux", "three_node_weights", "get_tableau",
    "tableau_names", "psi_parts", "psi_values", "psi", "psi_combo",
    "classical_limit", "tableau_to_text",
    "tableau_from_text", "TableauFormatError",
]


@dataclass(frozen=True)
class PhiCombo:
    """A finite sum  sum_m alpha_m * phi_{j_m}(scale_m * z).

    terms is a tuple of (alpha, j, scale) with exact rational alpha and
    scale, integer j >= 1, 0 < scale <= 1.  Terms are merged, sorted by (j, scale)
    and stripped of zero coefficients on construction, so equal combos
    compare equal.  The empty combo is the zero function.
    """

    terms: tuple = ()

    def __post_init__(self):
        merged = {}
        for alpha, j, scale in self.terms:
            j, scale = phi_request(j, scale)
            if j < 1:
                raise ValueError("phi index in a combo must be >= 1")
            merged[j, scale] = merged.get((j, scale), Fraction(0)) + exact_rational(alpha)
        canon = tuple((a, j, s) for (j, s), a in sorted(merged.items()) if a != 0)
        object.__setattr__(self, "terms", canon)

    @property
    def is_zero(self):
        return not self.terms

    def at_zero(self):
        """Exact value at z = 0, via phi_j(0) = 1/j!."""
        return sum((a / factorial(j) for a, j, _ in self.terms), Fraction(0))

    def phi_pairs(self):
        """Set of (j, scale) pairs this combo references."""
        return {(j, s) for _, j, s in self.terms}

    def __add__(self, other):
        if not isinstance(other, PhiCombo):
            return NotImplemented
        return PhiCombo(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, k):
        if isinstance(k, (numbers.Rational, int)):
            k = Fraction(k)
            return PhiCombo(tuple((k * a, j, s) for a, j, s in self.terms))
        return NotImplemented

    __rmul__ = __mul__


def phi_term(alpha, j, scale=1):
    """Single-term combo alpha * phi_j(scale * z)."""
    return PhiCombo(((alpha, j, scale),))


def combo_sum(f, phi):
    """sum_m float(alpha_m) * phi(j_m, scale_m) over the terms of f.

    phi maps (j, scale) to the value of phi_j(scale * z) in any form that
    supports scalar multiples and sums: a number, a matrix, or a vector of
    eigenvalue functions such as PhiCache.get returns for a spectral cache.
    The terms are added in order, one at a time; the empty combo gives 0.0.
    """
    out = 0.0
    for a, j, s in f.terms:
        out = out + float(a) * phi(j, s)
    return out


def eval_combo(f, z):
    """Evaluate a PhiCombo at real scalar or square-matrix z (TypeError if complex).

    A scalar goes through phi_scalar at float(scale) * z.  A matrix gets one
    phi.phi_matrix_table over the combo's (j, scale) pairs at h = 1, one
    chain and one walk to every exact scale, which raises OverflowError
    where an entry overflows.  The empty combo gives 0.0 or the zero matrix.
    """
    if np.ndim(z) == 0:
        zval = real_scalar(z, "z")
        return combo_sum(f, lambda j, s: phi_scalar(j, float(s) * zval))
    z = finite_array(z, "z", ("n", "n"))
    phi = phi_matrix_table(z, 1.0, f.phi_pairs())
    return combo_sum(f, lambda j, s: phi[j, s]) if f.terms else np.zeros_like(z)


@dataclass(frozen=True)
class ExpRKTableau:
    """Explicit exponential RK tableau: nodes c_i plus PhiCombo entries.

    Storage follows the reformulated scheme: there is no first column and no
    b_1 (their phi_1 terms appear explicitly in the step formula), so `a`
    maps (i, j) with 2 <= j < i <= s and `b` maps i with 2 <= i <= s.  Zero
    entries are simply absent, and both are stored in stage order, whatever
    order they were given in, so equal tableaux sum their entries alike.
    The update u_{n+1} reads as one more stage, s + 1: row(s + 1) is b and
    node(s + 1) is 1.
    """

    name: str
    c: tuple
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)

    def __post_init__(self):
        # a string would be read character by character: "01" as (0, 1)
        if not isinstance(self.c, (list, tuple)):
            raise TypeError(f"nodes must be a list or tuple, got {self.c!r}")
        c = tuple(exact_rational(x) for x in self.c)
        if not c or c[0] != 0:
            raise ValueError("need c_1 = 0")
        if any(not 0 <= ci <= 1 for ci in c):
            raise ValueError("nodes must lie in [0, 1]")
        s = len(c)
        if s >= 2 and c[1] == 0:
            raise ValueError("c_2 must be nonzero (stage 2 would duplicate u_n)")
        scales = set(ci for ci in c if ci > 0) | {Fraction(1)}
        lower = {(i, j) for i in range(3, s + 1) for j in range(2, i)}
        entries = []
        for name, table, keys in (("a", self.a, lower), ("b", self.b, range(2, s + 1))):
            kept = {}
            for key, combo in table.items():
                # a float or bool equal to a stage index would pass the range check
                key = (tuple(integer(k, f"{name} index {key}", -inf) for k in key)
                       if isinstance(key, tuple) else integer(key, f"{name} index", -inf))
                if key not in keys:
                    raise ValueError(f"{name} index {key} out of range")
                if not isinstance(combo, PhiCombo):
                    raise TypeError(f"{name} entries must be PhiCombo")
                bad = {sc for _, sc in combo.phi_pairs()} - scales
                if bad:
                    raise ValueError(f"{name}[{key}] uses scales {bad} outside the node set")
                if not combo.is_zero:
                    kept[key] = combo
            entries.append({key: kept[key] for key in sorted(keys) if key in kept})
        a, b = entries
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def s(self):
        return len(self.c)

    def _stage(self, i):
        """i read by operators.integer as a stage 1..s + 1; IndexError past s + 1."""
        i = integer(i, "stage index", 1)
        if i > self.s + 1:
            raise IndexError(f"stage index {i} out of range 1..{self.s + 1}")
        return i

    def node(self, i):
        """c_i, 1-based; the update u_{n+1} is stage s + 1, at node 1."""
        return (*self.c, Fraction(1))[self._stage(i) - 1]

    def row(self, i):
        """{k: a_ik} over the nonzero entries of row i, in stage order; row s + 1 is b."""
        i = self._stage(i)
        if i == self.s + 1:
            return dict(self.b)
        return {k: v for (r, k), v in self.a.items() if r == i}

    def phi_pairs(self):
        """All (j, scale) pairs referenced by a and b entries."""
        pairs = set()
        for combo in list(self.a.values()) + list(self.b.values()):
            pairs |= combo.phi_pairs()
        return pairs


def exprk5s8():
    """The fifth-order 8-stage method, flat exact-rational coefficients.

    Nodes c = (0, 1/2, 1/2, 1/4, 1/2, 1/5, 2/3, 1); weights vanish at stages
    2..5.  The entries below are stated in terms of two recurring
    combinations (the fourth-row entry a_64 and an auxiliary combo used by
    the last stage); both are expanded through so every stored entry is a
    plain phi-combination.
    """
    F = Fraction
    c = (0, F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1, 5), F(2, 3), F(1))

    def P(j, i=8):
        # single phi_j(c_i z) term with unit coefficient; c_8 = 1
        return phi_term(1, j, c[i - 1])

    a64 = F(8, 25) * P(2, 6) - F(32, 125) * P(3, 6)
    aux = (F(5, 32) * a64 - F(1, 28) * P(2, 6) + F(36, 175) * P(2, 7)
           - F(48, 25) * P(3, 7) + F(6, 175) * P(4, 6) + F(192, 35) * P(4, 7)
           + 6 * P(4, 8))
    a = {
        (3, 2): F(1, 2) * P(2, 3),
        (4, 3): F(1, 8) * P(2, 4),
        (5, 3): -F(1, 2) * P(2, 5) + 2 * P(3, 5),
        (5, 4): 2 * P(2, 5) - 4 * P(3, 5),
        (6, 4): a64,
        (6, 5): F(2, 25) * P(2, 6) - F(1, 2) * a64,
        (7, 4): -F(125, 162) * a64,
        (7, 5): F(125, 1944) * a64 - F(16, 27) * P(2, 7) + F(320, 81) * P(3, 7),
        (7, 6): F(3125, 3888) * a64 + F(100, 27) * P(2, 7) - F(800, 81) * P(3, 7),
        (8, 5): -F(16, 3) * P(2, 8) + F(208, 3) * P(3, 8) - 40 * aux,
        (8, 6): F(250, 21) * P(2, 8) - F(250, 3) * P(3, 8) + F(250, 7) * aux,
        (8, 7): F(27, 14) * P(2, 8) - 27 * P(3, 8) + F(135, 7) * aux,
    }
    b6, b7, b8 = three_node_weights(c[5], c[6], c[7])
    return ExpRKTableau(name="expRK5s8", c=c, a=a, b={6: b6, 7: b7, 8: b8})


def three_node_weights(ca, cb, cc):
    """Weights at three distinct nonzero nodes matching phi-moments 2..4.

    Returns combos (b_a, b_b, b_c) such that, with all other weights zero,

        sum b_i(z) c_i        = phi_2(z)
        sum b_i(z) c_i**2 / 2 = phi_3(z)
        sum b_i(z) c_i**3 / 6 = phi_4(z)

    hold identically (a 3x3 Vandermonde solve in exact arithmetic).
    """
    ca, cb, cc = exact_rational(ca), exact_rational(cb), exact_rational(cc)
    if len({ca, cb, cc}) != 3 or 0 in (ca, cb, cc):
        raise ValueError("nodes must be distinct and nonzero")
    p2, p3, p4 = phi_term(1, 2), phi_term(1, 3), phi_term(1, 4)

    def weight_at(cx, cy, cz):
        num = 6 * p4 - 2 * (cy + cz) * p3 + (cy * cz) * p2
        return Fraction(1, 1) / (cx * (cx - cy) * (cx - cz)) * num

    return (weight_at(ca, cb, cc), weight_at(cb, ca, cc), weight_at(cc, ca, cb))


def baseline_tableaux():
    """Lower-order comparison methods for the convergence harness."""
    euler = ExpRKTableau(name="expEuler", c=(Fraction(0),))
    two = ExpRKTableau(
        name="expRK2s2",
        c=(Fraction(0), Fraction(1, 2)),
        b={2: phi_term(2, 2)},
    )
    return [euler, two]


def tableau_names():
    return ["expRK5s8"] + [t.name for t in baseline_tableaux()]


def get_tableau(name):
    """Look up a shipped tableau by name."""
    if name == "expRK5s8":
        return exprk5s8()
    for t in baseline_tableaux():
        if t.name == name:
            return t
    raise ValueError(f"unknown method {name!r}; shipped: {', '.join(tableau_names())}")


# ---------------------------------------------------------------------------
# psi defect functions.  Their vanishing encodes the stiff order conditions.
# psi_parts defines each defect once; psi and psi_combo sum its parts
# numerically and exactly.

def psi_parts(j, t, i=None):
    """(coefficient combos by stage, target combo) of one psi defect.

    It is psi_{j,i}: row i against c_i^j phi_j(c_i z), the empty combo at a
    zero node.  i is a stage 2..s + 1 (IndexError past s + 1, from
    t.node); i None or s + 1 is the update, so it gives the weight defect
    psi_j: the weights b_k against phi_j(z).  The defect is
    sum_k coeff_k c_k^{j-1}/(j-1)! - target.
    """
    j = integer(j, "psi index", 2)
    stage = t.s + 1 if i is None else integer(i, "stage index", 2)
    ci = t.node(stage)
    return t.row(stage), (phi_term(ci ** j, j, ci) if ci > 0 else PhiCombo())


def psi_values(j, t, coeffs, target):
    """sum_k coeffs[k] c_k^{j-1}/(j-1)! - target, from the evaluated parts.

    The values may be scalars or matrices, all taken at the same argument;
    psi and the order-condition checker both sum through here.
    """
    acc = -target
    for k, v in coeffs.items():
        acc = acc + (float(t.node(k)) ** (j - 1) / factorial(j - 1)) * v
    return acc


def psi(j, t, z, i=None):
    """psi_j(z) (i None or s + 1) or psi_{j,i}(z) at scalar or square-matrix z."""
    coeffs, target = psi_parts(j, t, i)
    return psi_values(j, t, {k: eval_combo(v, z) for k, v in coeffs.items()},
                      eval_combo(target, z))


def psi_combo(j, t, i=None):
    """psi_j (i None or s + 1) or psi_{j,i} as an exact PhiCombo."""
    coeffs, target = psi_parts(j, t, i)
    return sum((Fraction(t.node(k) ** (j - 1), factorial(j - 1)) * v
                for k, v in coeffs.items()), -target)


# ---------------------------------------------------------------------------
# Classical limit: evaluating every coefficient function at z = 0 and
# restoring the implicit first column turns the scheme into a plain explicit
# Runge-Kutta method.

@dataclass(frozen=True)
class ButcherTableau:
    """Classical explicit RK tableau with exact rational entries."""

    name: str
    c: tuple
    a: tuple  # s rows of s entries, strictly lower triangular
    b: tuple

    def __post_init__(self):
        s = len(self.c)
        if len(self.b) != s or len(self.a) != s or any(len(r) != s for r in self.a):
            raise ValueError("inconsistent tableau dimensions")
        for i, row in enumerate(self.a):
            if any(row[k] != 0 for k in range(i, s)):
                raise ValueError("tableau must be strictly lower triangular")


def classical_limit(t):
    """Butcher tableau of the A = 0 specialization of an exponential tableau.

    The phi_1 terms of the step formula contribute the implicit first column:
    row sums must equal c_i, so a_i1 = c_i - sum_j a_ij(0).  The weights are
    row s + 1, at node 1, so the same rule gives b_1 = 1 - sum_i b_i(0).
    """
    s = t.s
    rows = []
    for i in range(1, s + 2):
        row = [Fraction(0)] * s
        for k, combo in t.row(i).items():
            row[k - 1] = combo.at_zero()
        row[0] = t.node(i) - sum(row[1:], Fraction(0))
        rows.append(tuple(row))
    return ButcherTableau(name=t.name + "-classical", c=t.c, a=tuple(rows[:s]), b=rows[s])


# ---------------------------------------------------------------------------
# Text serialization (JSON) so the CLI can check user-supplied methods.

class TableauFormatError(ValueError):
    """Raised when a tableau file cannot be parsed."""


def tableau_to_text(t):
    """Serialize a tableau to its JSON text form.

    Rational numbers are strings like "125/14"; each combo is a list of
    [alpha, j, scale] terms.
    """
    def combo_terms(combo):
        return [[str(a), j, str(s)] for a, j, s in combo.terms]

    doc = {
        "name": t.name,
        "nodes": [str(ci) for ci in t.c],
        "a": {f"{i},{j}": combo_terms(v) for (i, j), v in t.a.items()},
        "b": {str(i): combo_terms(v) for i, v in t.b.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tableau_from_text(text):
    """Parse the JSON text form back into an ExpRKTableau."""
    try:
        doc = json.loads(text)
        name = doc["name"]
        for field in "ab":
            if not isinstance(doc.get(field, {}), dict):
                raise TypeError(f"{field} must be a JSON object, got {doc[field]!r}")
        a = {tuple(int(p) for p in key.split(",")): PhiCombo(terms)
             for key, terms in doc.get("a", {}).items()}
        b = {int(key): PhiCombo(terms) for key, terms in doc.get("b", {}).items()}
        return ExpRKTableau(name=str(name), c=doc["nodes"], a=a, b=b)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise TableauFormatError(f"malformed tableau text: {exc}") from exc
