"""Stiff order-condition verification in strong and weakened modes."""

import gc
import re
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import augmented_phi, not_integers
from exprk import order_conditions
from exprk.order_conditions import (CONDITION_ORDERS, MODES, TOP_ORDER, WORDS, ProbeSet,
                                    _bilinear_columns, _probe_residuals, check,
                                    condition_residual, draw_probe_sets,
                                    structured_probes)
from exprk.tableau import ExpRKTableau, PhiCombo, exprk5s8, get_tableau, phi_term, psi_parts

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
    b = dict(t.b)
    b[i] = b[i] * factor
    a = {k: v for k, v in t.a.items()}
    return ExpRKTableau(name=f"{t.name}-scaled", c=t.c, a=a, b=b)


def _perturbed(t):
    """Copy of t with a 1e-3 bump on b_8's phi_4 coefficient."""
    b = dict(t.b)
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


@pytest.mark.parametrize("name, bad, error", [
    (name, bad, error) for name, least in (("count", 0), ("d", 1), ("seed", 0))
    for bad, error in not_integers(least)])
def test_draw_probe_sets_reads_its_counts_as_integers(name, bad, error):
    """draw_probe_sets(True) drew 1 probe and a negative count none."""
    with pytest.raises(error, match=f"^{name} must be "):
        draw_probe_sets(**{"count": 2, "d": 3, "seed": 0, name: bad})


def test_draw_probe_sets_takes_numpy_integers():
    got = draw_probe_sets(np.int64(2), d=np.int32(3), seed=np.uint8(5))
    want = draw_probe_sets(2, d=3, seed=5)
    assert [(p.d, p.seed, p.label) for p in got] == [(p.d, p.seed, p.label) for p in want]
    assert all(type(p.d) is int and type(p.seed) is int for p in got)
    assert all(np.array_equal(p.B, q.B) for p, q in zip(got, want))


@pytest.mark.parametrize("d, error", not_integers(1))
def test_probe_set_dimension_is_read_as_an_integer(d, error):
    """ProbeSet(True, ...) with 1x1 matrices was accepted with d = True."""
    one = np.ones((1, 1))
    with pytest.raises(error, match="^probe d must be "):
        ProbeSet(d, one, one, one, one, np.ones((1, 1, 1)))


def test_probe_set_takes_a_numpy_integer_dimension():
    one = np.ones((1, 1))
    p = ProbeSet(np.int64(1), one, one, one, one, np.ones((1, 1, 1)))
    assert type(p.d) is int and p.d == 1


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
    probes = structured_probes()
    assert np.array_equal(probes[0].Z, np.diag([-1.0, 1.0]))
    assert np.array_equal(probes[0].J, np.array([[0.0, 1.0], [1.0, 0.0]]))
    two = [p for p in probes if p.d == 2]
    three = [p for p in probes if p.d == 3]
    assert len(two) == 16  # (lambda, mu) over a 4-value grid
    assert len(three) == 27  # diag(lambda, mu, nu) over a 3-value grid
    jc = three[0].J
    assert np.array_equal(np.linalg.matrix_power(jc, 3), np.eye(3))
    assert not np.array_equal(jc, np.eye(3))
    for k, p in enumerate(probes):
        assert p.label == f"structured-{k}"
        assert np.array_equal(p.Z, np.diag(np.diag(p.Z)))
        assert np.array_equal(p.K, p.J) and np.array_equal(p.L, p.J)
        # the diagonal tensor: B(u, v)_r = u_r v_r
        u, v = np.arange(1.0, p.d + 1), np.arange(2.0, p.d + 2)
        assert np.array_equal(np.einsum("rpq,p,q->r", p.B, u, v), u * v)


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


@pytest.mark.parametrize("cid, error", not_integers(1))
def test_condition_id_is_read_as_an_integer(tab5, cid, error):
    """condition_residual(True, ...) evaluated condition 1."""
    p = draw_probe_sets(1, d=3, seed=1)[0]
    with pytest.raises(error, match="^condition id must be "):
        condition_residual(cid, tab5, p)


# ---------------------------------------------------------------------------
# full check() verdicts

def test_check_exprk5s8_profile(tab5):
    rep = check(tab5, tolerance=1e-9, seed=0)
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
    rep = check(get_tableau("expEuler"), tolerance=1e-9, p=draw_probe_sets(20, d=3, seed=0))
    assert rep.highest_strong_order == 1
    assert rep.weakened_order5 is False
    strong = {r.id: r for r in rep.rows if r.mode == "strong"}
    assert not strong[1].passed

    rep = check(get_tableau("expRK2s2"), tolerance=1e-9, p=draw_probe_sets(20, d=3, seed=0))
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


@pytest.mark.parametrize("bad", [[1, 2], "abc", 3.0, iter([])],
                         ids=["ints", "str", "float", "iterator"])
def test_a_probe_that_is_not_a_probe_set_is_a_type_error_naming_it(tab5, bad):
    """Neither a list of numbers nor a string is read as probes: the error
    names the bad probe (1, not an attribute of it; "abc", not "a")."""
    probe = bad[0] if isinstance(bad, list) else bad
    message = f"must be a ProbeSet, got {re.escape(repr(probe))}$"
    with pytest.raises(TypeError, match=message):
        check(tab5, p=bad)
    with pytest.raises(TypeError, match=message):
        condition_residual(1, tab5, probe)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-9])
def test_check_rejects_a_tolerance_that_is_not_finite_and_positive(tab5, tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        check(tab5, tolerance=tolerance, p=draw_probe_sets(1, d=3, seed=0))


@pytest.mark.parametrize("tolerance", ["1e-9", True, 1e-9 + 0j])
def test_check_reads_its_tolerance_as_a_real_number(tab5, tolerance):
    """A str, bool or complex tolerance is a TypeError naming it, not numpy's
    unnamed ufunc error or a report with tolerance True."""
    with pytest.raises(TypeError, match="^tolerance must be real, got dtype "):
        check(tab5, tolerance=tolerance, p=draw_probe_sets(1, d=3, seed=0))


def test_check_stores_its_tolerance_as_a_float():
    report = check(get_tableau("expEuler"), tolerance=1, p=draw_probe_sets(1, d=3, seed=0))
    assert type(report.tolerance) is float and report.tolerance == 1.0


@pytest.mark.parametrize("make", [lambda t: t, _perturbed], ids=["expRK5s8", "perturbed"])
def test_probe_stacking_leaves_each_probe_unchanged(tab5, make):
    """check() stacks probes by dimension; no probe's residuals may depend on
    which other probes share its stack."""
    t = make(tab5)
    probes = [p for trio in zip(*(draw_probe_sets(3, d=d, seed=30 + d) for d in (2, 3, 4)))
              for p in trio]
    assert [p.d for p in probes[:3]] == [2, 3, 4]
    rows = check(t, tolerance=1e-9, p=probes).rows
    alone = [check(t, tolerance=1e-9, p=probe).rows for probe in probes]
    for k, row in enumerate(rows):
        assert row.residual == max(one[k].residual for one in alone), (row.id, row.mode)


def test_a_nan_residual_fails_its_condition(tab5):
    """J of 1e300 overflows condition 6's products to a NaN residual at one
    probe; the row must fail, not report the other probes' maximum."""
    q = draw_probe_sets(1, d=3, seed=2)[0]
    huge = ProbeSet(3, q.Z, 1e300 * q.J, q.K, q.L, q.B, label="huge-J")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check(tab5, tolerance=1e-9, p=[huge] + draw_probe_sets(2, d=3, seed=5))
    assert np.isnan(rep.row(6, "strong").residual)
    assert not rep.row(6, "strong").passed


def test_worst_probe_names_the_probe_of_each_worst_residual(tab5):
    """Each row names the probe at np.argmax of its residuals: a NaN
    residual's probe, and on _perturbed the probe the bump shows worst at."""
    t = _perturbed(tab5)
    probes = draw_probe_sets(6, d=3, seed=8)
    residuals = _probe_residuals(t, probes + structured_probes())
    rep = check(t, tolerance=1e-9, p=probes)
    labels = [p.label for p in probes + structured_probes()]
    for row in rep.rows:
        res = residuals[row.id, row.mode]
        assert row.worst_probe == labels[int(np.argmax(res))], (row.id, row.mode)
        assert row.residual == max(res)
    # at Z = -I every coefficient is a multiple of I, a_87(-I) = 1.39 I among
    # them; so a_87 J overflows to an all-inf matrix, and condition 6's next
    # product multiplies it by psi_{2,7}, also a multiple of I, whose exact
    # zeros make inf * 0: a NaN residual by construction
    huge = ProbeSet(3, -np.eye(3), np.full((3, 3), 1.7e308), probes[2].K, probes[2].L,
                    probes[2].B, label="huge-J")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check(t, tolerance=1e-9, p=probes[:2] + [huge] + probes[3:])
    assert np.isnan(rep.row(6, "strong").residual)
    assert rep.row(6, "strong").worst_probe == "huge-J"


# check() of the zero-node tableau below at its defaults, recorded from the
# checker as it stood before psi_parts: cid -> (strong, weakened) residual
ZERO_NODE_RESIDUALS = {
    1: (0.0, 0.0), 2: (0.04415839160790913,) * 2, 3: (0.2742176904427645,) * 2,
    4: (0.0220937195610598,) * 2, 5: (0.04426810239414595,) * 2, 6: (0.0, 0.0),
    7: (0.12455862321146816,) * 2, 8: (0.006219298305531113, 0.005729166666666667),
    9: (0.005425832012981334, 0.002887937366794814), 10: (0.0, 0.0), 11: (0.0, 0.0),
    12: (0.0, 0.0), 13: (0.019170096504415247, 0.012615983714626751), 14: (0.0, 0.0),
    15: (0.031773938463971946, 0.02231884474345087),
    16: (0.059247605731588555, 0.03776007700484717),
}


def test_a_zero_node_reached_by_a_weight():
    """c = (0, 1/2, 0) with b = {2: 2 phi_2, 3: phi_3}: stage 3's target
    c_3^j phi_j(0 z) is the empty combo and its row is empty, so psi_{j,3}
    must still be a zero matrix that the nested words can multiply."""
    t = ExpRKTableau(name="zero-node", c=(0, F(1, 2), 0),
                     b={2: phi_term(2, 2), 3: phi_term(1, 3)})
    rep = check(t)
    for cid, want in ZERO_NODE_RESIDUALS.items():
        for mode, value in zip(MODES, want):
            assert rep.row(cid, mode).residual == pytest.approx(value, rel=1e-12, abs=0.0)
    assert rep.row(3, "strong").residual == pytest.approx(0.27421769044, abs=1e-11)
    assert rep.highest_strong_order == 2
    assert rep.weakened_order5 is False


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2", "perturbed"])
def test_phi_table_pairs_follow_the_words(name, tab5, monkeypatch):
    """The pairs _group_tables passes to phi_matrix_table, derived from
    WORDS through psi_parts, are the set it used to list by hand: t's own
    pairs, phi_2..phi_4 at every nonzero stage node and phi_2..phi_5 at
    scale 1."""
    t = _perturbed(tab5) if name == "perturbed" else get_tableau(name)
    listed = (t.phi_pairs() | {(j, ci) for j in (2, 3, 4) for ci in t.c[1:] if ci > 0}
              | {(m, F(1)) for m in (2, 3, 4, 5)})
    passed = []
    table = order_conditions.phi_matrix_table
    monkeypatch.setattr(order_conditions, "phi_matrix_table",
                        lambda m, h, keys: passed.append(set(keys)) or table(m, h, keys))
    _probe_residuals(t, draw_probe_sets(1, d=2, seed=4))
    assert passed == [listed]


def test_check_takes_each_psi_target_once(tab5, monkeypatch):
    """One check(), over its two dimension groups, calls psi_parts once per
    distinct (j, i) its words read, not once per group."""
    calls = []
    monkeypatch.setattr(order_conditions, "psi_parts",
                        lambda j, t, i=None: calls.append((j, i)) or psi_parts(j, t, i))
    assert check(tab5, seed=0).weakened_order5
    assert {p.d for p in structured_probes()} == {2, 3}
    want = {(w.psi, i) for w in WORDS.values()
            for i in (range(2, tab5.s + 1) if w.links else (None,))}
    assert Counter(calls) == Counter(want)


def _stiff_probes(count=8, d=3, seed=3):
    """Probes with Z = Q diag(-1e3 u) Q^T plus a uniform [-1, 1] non-normal
    part, u uniform on [0.1, 1] and Q a random rotation: ||Z||_1 ~ 1e3."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        u = rng.uniform(0.1, 1.0, d)
        z = q @ np.diag(-1e3 * u) @ q.T + rng.uniform(-1.0, 1.0, (d, d))
        j, kk, ll = (rng.uniform(-1.0, 1.0, (d, d)) for _ in range(3))
        tensor = rng.uniform(-1.0, 1.0, (d, d, d))
        out.append(ProbeSet(d, z, j, kk, ll, tensor, seed=seed, label=f"stiff-{k}"))
    return out


def test_stiff_probes_keep_the_verdicts(tab5):
    """At ||Z||_1 of 500 to 1150 expRK5s8 keeps strong order 4 and the
    weakened order-5 pass (measured: weakened 8-16 at most 2.1e-16)."""
    probes = _stiff_probes()
    assert min(np.abs(p.Z).sum(axis=0).max() for p in probes) > 500
    rep = check(tab5, tolerance=1e-9, p=probes)
    assert rep.highest_strong_order == 4
    assert rep.weakened_order5 is True


def test_perturbed_weight_detected(tab5):
    """A 1e-3 bump on b_8's phi_4 coefficient must break condition 4."""
    rep = check(_perturbed(tab5), tolerance=1e-9, seed=0)
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
        r_small = check(t, tolerance=1e-9, p=draw_probe_sets(20, d=3, seed=0))
        r_large = check(t, tolerance=1e-9, p=draw_probe_sets(200, d=3, seed=0))
        small = [(r.id, r.mode, r.passed) for r in r_small.rows]
        large = [(r.id, r.mode, r.passed) for r in r_large.rows]
        assert small == large
        assert r_small.highest_strong_order == r_large.highest_strong_order
        assert r_small.weakened_order5 == r_large.weakened_order5


def test_mode_monotonicity(all_tableaux):
    """Weakened mode is a restriction of strong: strong pass implies weak pass."""
    for t in all_tableaux:
        rep = check(t, tolerance=1e-9, seed=0)
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
    rep = check(tab5, tolerance=1e-9, p=draw_probe_sets(10, d=3, seed=0))
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
    b = {i: coef(t.b.get(i, PhiCombo())) for i in stages}
    b_at_0 = {i: float(t.b.get(i, PhiCombo()).at_zero()) * eye for i in stages}
    a = {(i, k): coef(t.a.get((i, k), PhiCombo())) for i in stages for k in range(2, i)}

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
            r[8] = np.array(float(sum((t.b.get(i, PhiCombo()).at_zero() * t.node(i) ** 4 / 24
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
        a[i, 2] = t.a.get((i, 2), PhiCombo()) + phi_term(F(1, 10), 2, t.node(i))
    return ExpRKTableau(name="bumped-rows", c=t.c, a=a, b=dict(t.b))


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2", "perturbed",
                                  "bumped-rows"])
def test_condition_residual_matches_independent_transcription(name, tab5):
    made = {"perturbed": _perturbed, "bumped-rows": _bumped_rows}
    t = made[name](tab5) if name in made else get_tableau(name)
    probes = draw_probe_sets(10, d=3, seed=21) + structured_probes()
    assert len(probes) == 53
    # check()'s own residual loop: one phi table per dimension group
    residuals = _probe_residuals(t, probes)
    worst = 0.0
    for n, p in enumerate(probes):
        want = _transcribed_residuals(t, p)
        got = {key: res[n] for key, res in residuals.items()}
        # and one call per probe through the public entry point, a table of one
        cid, mode = n % 16 + 1, MODES[n % 2]
        assert condition_residual(cid, t, p, mode) == got[cid, mode], (cid, mode, p.label)
        for cid in range(1, 8):
            assert got[cid, "strong"] == got[cid, "weakened"], (cid, p.label)
        for key in want:
            worst = max(worst, abs(got[key] - want[key]))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("make", [lambda t: t, _perturbed], ids=["expRK5s8", "perturbed"])
def test_every_residual_of_the_stacks_matches_a_probe_alone(tab5, make):
    """Every (cid, mode) entry of the residual loop, which sums coefficients
    and defects once per dimension group and shares each inner nest among
    words and modes, equals condition_residual's table of one probe exactly."""
    t = make(tab5)
    probes = [p for d in (2, 3, 4) for p in draw_probe_sets(2, d=d, seed=40 + d)]
    residuals = _probe_residuals(t, probes)
    assert len(residuals) == 32
    for n, p in enumerate(probes):
        for (cid, mode), res in residuals.items():
            assert res[n] == condition_residual(cid, t, p, mode), (cid, mode, p.label)


def _unmemoized_residuals(p, c, coeffs, leaves):
    """{(cid, mode): residual} at probe p by the word recursion with no
    memo: it reads only the sets in coeffs and the leaves a probe's memo is
    seeded with, forms every inner nest, left factor coeffs_i X and
    bilinear lift again where a word reads it, starts each sum at zero and
    visits its stages in sorted order."""
    zero = np.zeros((p.d, p.d))

    def nest(links, j, where):
        (power, letter), rest = links[0], links[1:]
        acc = zero
        for i in sorted(coeffs[where]):
            inner = nest(rest, j, i) if rest else leaves[(), j, i]
            if letter == "B":
                term = coeffs[where][i] @ _bilinear_columns(p.B, inner, inner)
            else:
                term = (coeffs[where][i] @ getattr(p, letter)) @ inner
            acc = acc + c[i - 1] ** power * term
        return acc

    out = {}
    for cid, word in WORDS.items():
        for mode in MODES:
            where = "b(0)" if mode == "weakened" and word.order == TOP_ORDER else len(c) + 1
            if word.links:
                value = nest(word.links, word.psi, where)
            else:
                value = leaves[(), word.psi, where]
            out[cid, mode] = float(np.abs(value).max())
    return out


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2"])
def test_memoized_residuals_equal_the_unmemoized_recursion(name, monkeypatch):
    """The residual loop forms each inner nest, left factor and bilinear lift
    once per probe in one memo, keyed by coefficient set (a row of a, b(Z)
    as row s + 1, or b(0) I), letter and stage; on the 93 default probes every residual
    equals, bit for bit, the recursion that forms each of them where it is
    read, on each probe's members of the tables _group_tables built."""
    t = get_tableau(name)
    probes = draw_probe_sets(50, d=3, seed=0) + structured_probes()
    assert len(probes) == 93
    groups = []
    build = order_conditions._group_tables
    monkeypatch.setattr(order_conditions, "_group_tables", lambda t, group, targets:
                        groups.append((group, build(t, group, targets))) or groups[-1][1])
    residuals = _probe_residuals(t, probes)
    assert sum(len(group) for group, _ in groups) == 93
    where = {id(p): n for n, p in enumerate(probes)}
    c = [float(ci) for ci in t.c]
    for group, (sets, leaves) in groups:
        for k, p in enumerate(group):
            coeffs = {w: {i: v[k] for i, v in s.items()} for w, s in sets.items()}
            got = _unmemoized_residuals(p, c, coeffs, {key: v[k] for key, v in leaves.items()})
            for key, want in got.items():
                assert residuals[key][where[id(p)]] == want, (key, p.label)


def test_check_leaves_no_cyclic_garbage(tab5):
    """A check's tables and memo are freed by reference counting alone:
    no reference cycle, which would hold every probe's matrices until the
    collector runs."""
    check(tab5, seed=0)
    gc.collect()
    gc.disable()
    try:
        check(tab5, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_default_batch_is_fifty_3x3_probes(tab5):
    """The default batch is p=draw_probe_sets(50, d=3, seed=seed), plus the
    43 structured probes."""
    for seed in range(3):
        rep = check(tab5, seed=seed)
        assert rep.n_probes == 93
        assert rep.rows == check(tab5, p=draw_probe_sets(50, d=3, seed=seed)).rows
