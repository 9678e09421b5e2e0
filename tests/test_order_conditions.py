"""Stiff order-condition verification in strong and weakened modes."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import augmented_phi
from exprk.order_conditions import (CONDITION_ORDERS, MODES, WORDS, ProbeSet,
                                    _ProbeTables, _residual,
                                    _structured_probe_sets, check,
                                    condition_residual, draw_probe_sets,
                                    structured_probes)
from exprk.tableau import ExpRKTableau, exprk5s8, get_tableau, phi_term

F = Fraction


def _zero_z_probes(count=8, d=3, seed=77):
    """Random J/K/L/B probes with Z pinned to the zero matrix."""
    out = []
    for p in draw_probe_sets(count, d=d, seed=seed):
        out.append(ProbeSet(d=p.d, Z=np.zeros((d, d)), J=p.J, K=p.K, L=p.L,
                            B=p.B, seed=p.seed, label="zero-Z"))
    return out


def _with_weight_scaled(t, i, factor):
    """Copy of t with the whole combo b_i multiplied by an exact factor."""
    b = {k: t.weight(k) for k in range(2, t.s + 1) if not t.weight(k).is_zero}
    b[i] = b[i] * factor
    a = {k: v for k, v in t.a.items()}
    return ExpRKTableau(name=f"{t.name}-scaled", c=t.c, a=a, b=b)


def _perturbed(t):
    """Copy of t with a 1e-3 bump on b_8's phi_4 coefficient."""
    b = {i: t.weight(i) for i in (6, 7, 8)}
    b[8] = b[8] + phi_term(F(1, 1000), 4, 1)
    return ExpRKTableau(name="perturbed", c=t.c, a=dict(t.a), b=b)


# ---------------------------------------------------------------------------
# probes

def test_condition_orders_table():
    assert set(CONDITION_ORDERS) == set(range(1, 17))
    by_order = {p: [i for i, o in CONDITION_ORDERS.items() if o == p]
                for p in (2, 3, 4, 5)}
    assert by_order[2] == [1]
    assert by_order[3] == [2, 3]
    assert by_order[4] == [4, 5, 6, 7]
    assert by_order[5] == list(range(8, 17))


def test_draw_probe_sets_deterministic_and_bounded():
    a = draw_probe_sets(5, d=3, seed=11)
    b = draw_probe_sets(5, d=3, seed=11)
    assert len(a) == 5
    for pa, pb in zip(a, b):
        for field in ("Z", "J", "K", "L", "B"):
            ma, mb = getattr(pa, field), getattr(pb, field)
            assert np.array_equal(ma, mb)
            assert np.abs(ma).max() <= 1.0
    assert a[0].Z.shape == (3, 3)
    assert a[0].B.shape == (3, 3, 3)
    assert not np.array_equal(a[0].Z, a[1].Z)


def test_structured_probes_families():
    pairs = structured_probes()
    z0, j0 = pairs[0]
    assert np.array_equal(z0, np.diag([-1.0, 1.0]))
    assert np.array_equal(j0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    two = [p for p in pairs if p[0].shape == (2, 2)]
    three = [p for p in pairs if p[0].shape == (3, 3)]
    assert len(two) == 16  # (lambda, mu) over a 4-value grid
    assert len(three) == 27  # diag(lambda, mu, nu) over a 3-value grid
    jc = three[0][1]
    assert np.array_equal(np.linalg.matrix_power(jc, 3), np.eye(3))
    assert not np.array_equal(jc, np.eye(3))
    for z, _ in pairs:
        assert np.array_equal(z, np.diag(np.diag(z)))


# ---------------------------------------------------------------------------
# residual examples

def test_condition1_near_zero_on_random_probes(tab5):
    probes = draw_probe_sets(20, d=4, seed=9)
    worst = max(condition_residual(1, tab5, p, "strong") for p in probes)
    assert worst <= 1e-11


def test_condition2_euler_identity_probe():
    d = 2
    p = ProbeSet(d=d, Z=np.eye(d), J=np.eye(d), K=np.eye(d), L=np.eye(d),
                 B=np.zeros((d, d, d)), label="eye")
    r = condition_residual(2, get_tableau("expEuler"), p, "strong")
    assert r > 0.01
    assert r == pytest.approx(np.e - 2.5, abs=1e-13)


def test_condition15_weakened_vanishes(tab5):
    probes = draw_probe_sets(10, d=3, seed=15)
    worst = max(condition_residual(15, tab5, p, "weakened") for p in probes)
    assert worst <= 1e-11


def test_condition9_weak_pass_strong_fail(tab5):
    probes = draw_probe_sets(10, d=3, seed=16)
    weak = max(condition_residual(9, tab5, p, "weakened") for p in probes)
    strong = max(condition_residual(9, tab5, p, "strong") for p in probes)
    assert weak <= 1e-11
    assert strong > 1e-4


def test_condition_residual_validation(tab5):
    p = draw_probe_sets(1, d=3, seed=1)[0]
    with pytest.raises(ValueError):
        condition_residual(0, tab5, p, "strong")
    with pytest.raises(ValueError):
        condition_residual(17, tab5, p, "strong")
    with pytest.raises(ValueError):
        condition_residual(1, tab5, p, "sideways")


# ---------------------------------------------------------------------------
# full check() verdicts

def test_check_exprk5s8_profile(tab5):
    rep = check(tab5, tolerance=1e-9, n_probes=50, dim=3, seed=0)
    assert rep.highest_strong_order == 4
    assert rep.weakened_order5 is True
    strong = {r.id: r for r in rep.rows if r.mode == "strong"}
    weak = {r.id: r for r in rep.rows if r.mode == "weakened"}
    for i in range(1, 17):
        assert weak[i].passed, f"weakened condition {i} failed"
    for i in range(1, 8):  # the modes differ only at order 5
        assert weak[i].residual == strong[i].residual
    for i in list(range(1, 8)) + list(range(11, 17)):
        assert strong[i].passed, f"strong condition {i} failed"
    for i in (8, 9, 10):
        assert not strong[i].passed, f"strong condition {i} should fail"
    # weakened-class discrimination: strong failures are far above noise
    assert strong[9].residual > 1e-4
    assert strong[10].residual > 1e-4
    assert strong[8].residual > 1e-5
    # condition 8's weakened form is evaluated at Z = 0 only
    assert weak[8].residual <= 1e-12


def test_check_baselines():
    rep = check(get_tableau("expEuler"), tolerance=1e-9, n_probes=20, seed=0)
    assert rep.highest_strong_order == 1
    assert rep.weakened_order5 is False
    strong = {r.id: r for r in rep.rows if r.mode == "strong"}
    assert not strong[1].passed

    rep = check(get_tableau("expRK2s2"), tolerance=1e-9, n_probes=20, seed=0)
    assert rep.highest_strong_order == 2
    assert rep.weakened_order5 is False
    strong = {r.id: r for r in rep.rows if r.mode == "strong"}
    assert strong[1].passed
    assert not strong[2].passed


def test_check_accepts_explicit_probes(tab5):
    probes = draw_probe_sets(5, d=3, seed=40)
    rep = check(tab5, tolerance=1e-9, p=probes)
    assert rep.highest_strong_order == 4
    rep_one = check(tab5, tolerance=1e-9, p=probes[0])
    assert rep_one.weakened_order5 is True


def test_perturbed_weight_detected(tab5):
    """A 1e-3 bump on b_8's phi_4 coefficient must break condition 4."""
    rep = check(_perturbed(tab5), tolerance=1e-9, n_probes=50, dim=3, seed=0)
    assert rep.weakened_order5 is False
    r4 = [r for r in rep.rows if r.id == 4 and r.mode == "strong"][0]
    assert not r4.passed
    assert 1e-6 < r4.residual < 1e-4  # about 1e-3 times the probe phi norm


def test_scale_covariance_of_linear_conditions(tab5):
    """Residuals of the b-linear conditions scale linearly with a b bump."""
    probes = draw_probe_sets(10, d=3, seed=5)
    for cid, mode in ((1, "strong"), (2, "strong"), (4, "strong"),
                      (8, "weakened")):
        r = []
        for delta in (F(1, 1000), F(2, 1000)):
            tt = _with_weight_scaled(tab5, 8, 1 + delta)
            r.append(max(condition_residual(cid, tt, p, mode) for p in probes))
        assert r[1] / r[0] == pytest.approx(2.0, rel=1e-6)


def test_probe_count_stability(tab5):
    """Pass/fail verdicts are stable between 20 and 200 random probes."""
    for t in (tab5, get_tableau("expEuler")):
        r_small = check(t, tolerance=1e-9, n_probes=20, dim=3, seed=0)
        r_large = check(t, tolerance=1e-9, n_probes=200, dim=3, seed=0)
        small = [(r.id, r.mode, r.passed) for r in r_small.rows]
        large = [(r.id, r.mode, r.passed) for r in r_large.rows]
        assert small == large
        assert r_small.highest_strong_order == r_large.highest_strong_order
        assert r_small.weakened_order5 == r_large.weakened_order5


def test_mode_monotonicity(all_tableaux):
    """Weakened mode is a restriction of strong: strong pass implies weak pass."""
    for t in all_tableaux:
        rep = check(t, tolerance=1e-9, n_probes=50, dim=3, seed=0)
        strong = {r.id: r.passed for r in rep.rows if r.mode == "strong"}
        weak = {r.id: r.passed for r in rep.rows if r.mode == "weakened"}
        for i in range(1, 17):
            assert not strong[i] or weak[i]


def test_zero_z_conditions_match_classical_order(all_tableaux):
    """At Z = 0 the 16 conditions grade exactly like the classical tableau."""
    from exprk.order_conditions import classical_order
    from exprk.tableau import classical_limit

    probes = _zero_z_probes()
    for t in all_tableaux:
        co = classical_order(classical_limit(t))
        for p in (2, 3, 4, 5):
            ids = [i for i, o in CONDITION_ORDERS.items() if o <= p]
            ok = all(
                max(condition_residual(i, t, pr, "strong") for pr in probes)
                <= 1e-9 for i in ids)
            assert ok == (co >= p), (t.name, p)


# ---------------------------------------------------------------------------
# report formats

def test_report_texts(tab5):
    rep = check(tab5, tolerance=1e-9, n_probes=10, seed=0)
    text = rep.table_text()
    assert "highest strong order: 4" in text
    assert "weakened order-5 verdict: pass" in text
    rows = rep.machine_rows()
    assert rows[0] == "id,mode,residual,pass"
    assert len(rows) == 33
    assert rows[1].startswith("1,strong,")
    assert rows[1].endswith(",1")
    assert rep.row(9, "strong").passed is False
    with pytest.raises(KeyError):
        rep.row(1, "medium")


# ---------------------------------------------------------------------------
# independent transcription

def _transcribed_residuals(t, p):
    """{(cid, mode): residual} of the 16 conditions, each written out from its
    formula in the paper.

    Deliberately shares no evaluator with the library: phi values come from
    the augmented-matrix exponential, coefficients are summed from their
    combo terms here, and condition 8's weakened form is exact rational
    arithmetic, so agreement with condition_residual is evidence.
    """
    d = p.d
    zero, eye = np.zeros((d, d)), np.eye(d)
    phis = {}

    def phi(j, s):
        if (j, s) not in phis:
            phis[j, s] = augmented_phi(j, float(s) * p.Z)
        return phis[j, s]

    def coef(combo):
        return sum((float(al) * phi(j, s) for al, j, s in combo.terms), zero)

    c = [float(ci) for ci in t.c]
    stages = range(2, t.s + 1)
    b = {i: coef(t.weight(i)) for i in stages}
    b_at_0 = {i: float(t.weight(i).at_zero()) * eye for i in stages}
    a = {(i, k): coef(t.a_combo(i, k)) for i in stages for k in range(2, i)}

    def psi_w(j):
        return (sum((b[i] * c[i - 1] ** (j - 1) / factorial(j - 1) for i in stages), zero)
                - phi(j, 1))

    def psi_s(j, i):
        ci = t.node(i)
        target = float(ci ** j) * phi(j, ci) if ci > 0 else zero
        return (sum((a[i, k] * c[k - 1] ** (j - 1) / factorial(j - 1)
                     for k in range(2, i)), zero) - target)

    def row_sum(i, f):
        # sum_k a_ik X_k over the stages before i
        return sum((a[i, k] @ f(k) for k in range(2, i)), zero)

    def bilinear(u, v):
        return np.stack([p.B.reshape(d, d * d) @ np.outer(u[:, col], v[:, col]).ravel()
                         for col in range(d)], axis=1)

    J, K, L = p.J, p.K, p.L
    out = {}
    for mode in ("strong", "weakened"):
        w = b if mode == "strong" else b_at_0

        def total(f, weights):
            return sum((f(i, weights[i]) for i in stages), zero)

        r = {
            1: psi_w(2), 2: psi_w(3), 4: psi_w(4),
            3: total(lambda i, bi: bi @ J @ psi_s(2, i), b),
            5: total(lambda i, bi: bi @ J @ psi_s(3, i), b),
            6: total(lambda i, bi: bi @ J @ row_sum(i, lambda k: J @ psi_s(2, k)), b),
            7: total(lambda i, bi: c[i - 1] * bi @ K @ psi_s(2, i), b),
            9: total(lambda i, wi: wi @ J @ psi_s(4, i), w),
            10: total(lambda i, wi: wi @ J @ row_sum(i, lambda k: J @ psi_s(3, k)), w),
            11: total(lambda i, wi: wi @ J @ row_sum(
                i, lambda k: J @ row_sum(k, lambda m: J @ psi_s(2, m))), w),
            12: total(lambda i, wi: wi @ J @ row_sum(
                i, lambda k: c[k - 1] * K @ psi_s(2, k)), w),
            13: total(lambda i, wi: c[i - 1] * wi @ K @ psi_s(3, i), w),
            14: total(lambda i, wi: c[i - 1] * wi @ K @ row_sum(
                i, lambda k: J @ psi_s(2, k)), w),
            15: total(lambda i, wi: wi @ bilinear(psi_s(2, i), psi_s(2, i)), w),
            16: total(lambda i, wi: c[i - 1] ** 2 * wi @ L @ psi_s(2, i), w),
        }
        if mode == "strong":
            r[8] = psi_w(5)
        else:
            r[8] = np.array(float(sum((t.weight(i).at_zero() * t.node(i) ** 4 / 24
                                       for i in stages), F(0)) - F(1, 120)))
        for cid, val in r.items():
            out[cid, mode] = float(np.abs(val).max())
    return out


def _bumped_rows(t):
    """expRK5s8 with 1/10 phi_2(c_i z) added to every a_i2: no psi_{j,i}
    vanishes and every stage links to stage 2, so each nested word, not
    only the weight defects, has a residual far above rounding."""
    a = dict(t.a)
    for i in range(3, t.s + 1):
        a[i, 2] = t.a_combo(i, 2) + phi_term(F(1, 10), 2, t.node(i))
    return ExpRKTableau(name="bumped-rows", c=t.c, a=a, b=dict(t.b))


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2", "perturbed",
                                  "bumped-rows"])
def test_condition_residual_matches_independent_transcription(name, tab5):
    made = {"perturbed": _perturbed, "bumped-rows": _bumped_rows}
    t = made[name](tab5) if name in made else get_tableau(name)
    probes = draw_probe_sets(10, d=3, seed=21) + _structured_probe_sets()
    assert len(probes) == 53
    worst = 0.0
    at_zero = {}
    for n, p in enumerate(probes):
        want = _transcribed_residuals(t, p)
        # one table per probe and check()'s own evaluator, as check() does it
        tab = _ProbeTables(t, p, at_zero)
        got = {(cid, mode): _residual(WORDS[cid], tab, mode)
               for cid in CONDITION_ORDERS for mode in MODES}
        # and one call per probe through the public entry point
        cid, mode = n % 16 + 1, MODES[n % 2]
        assert condition_residual(cid, t, p, mode) == got[cid, mode], (cid, mode, p.label)
        for cid in range(1, 8):
            assert got[cid, "strong"] == got[cid, "weakened"], (cid, p.label)
        for key in want:
            worst = max(worst, abs(got[key] - want[key]))
    assert worst <= 1e-13, worst
