"""Tableau coefficients, combo algebra, psi identities, serialization."""

import inspect
import json
import random
import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from exprk.order_conditions import (_rooted_trees, classical_order,
                                    classical_order_conditions)
from exprk.tableau import (ButcherTableau, ExpRKTableau, PhiCombo,
                           TableauFormatError, baseline_tableaux,
                           classical_limit, eval_combo, exprk5s8, get_tableau,
                           phi_term, psi, psi_combo, psi_parts,
                           tableau_from_text, tableau_names, tableau_to_text,
                           three_node_weights)

F = Fraction


# ---------------------------------------------------------------------------
# combo algebra

def test_combo_canonicalizes_terms():
    c = PhiCombo(((F(1), 2, F(1)), (F(1, 2), 2, F(1)), (F(-3, 2), 2, F(1))))
    assert c.is_zero
    c = phi_term(F(1, 3), 2) + phi_term(F(2, 3), 2)
    assert c.terms == ((F(1), 2, F(1)),)


def test_combo_arithmetic_and_at_zero():
    c = phi_term(F(1, 2), 2) - phi_term(F(13, 2), 3) + phi_term(F(45, 2), 4)
    assert c.at_zero() == F(1, 2) / 2 - F(13, 2) / 6 + F(45, 2) / 24
    assert (2 * c).at_zero() == 2 * c.at_zero()
    assert (-c + c).is_zero
    assert c.phi_pairs() == {(2, F(1)), (3, F(1)), (4, F(1))}


def test_eval_combo_shapes_and_values():
    empty = PhiCombo()
    z3 = np.zeros((3, 3))
    assert np.array_equal(eval_combo(empty, np.eye(3)), z3)
    assert eval_combo(empty, 0.7) == 0.0
    # phi_1 of the zero matrix is the identity
    assert np.abs(eval_combo(phi_term(F(1), 1), z3) - np.eye(3)).max() <= 1e-15
    with pytest.raises(ValueError):
        eval_combo(phi_term(F(1), 1), np.zeros((2, 3)))


def test_eval_combo_scalar_matches_scaled_identity(tab5):
    for z in (-3.0, -0.7, 0.4, 1.0):
        zi = z * np.eye(4)
        for i in (6, 7, 8):
            s = eval_combo(tab5.b[i], z)
            m = eval_combo(tab5.b[i], zi)
            assert np.abs(m - s * np.eye(4)).max() <= 1e-13


# ---------------------------------------------------------------------------
# the fifth-order eight-stage tableau

def test_nodes_and_shape(tab5):
    assert tab5.s == 8
    assert tab5.c == (F(0), F(1, 2), F(1, 2), F(1, 4), F(1, 2),
                      F(1, 5), F(2, 3), F(1))
    c6, c7 = tab5.node(6), tab5.node(7)
    assert 10 * c6 * c7 == 5 * (c6 + c7) - 3


def test_b8_terms_verbatim(tab5):
    assert tab5.b[8].terms == ((F(1, 2), 2, F(1)), (F(-13, 2), 3, F(1)),
                               (F(45, 2), 4, F(1)))


def test_weights_only_on_last_three_stages(tab5):
    assert list(tab5.b) == [6, 7, 8]


def test_weights_match_three_node_formula(tab5):
    """The b's must equal the generic interpolation weights at c6, c7, c8."""
    b6, b7, b8 = three_node_weights(F(1, 5), F(2, 3), F(1))
    assert (b6 - tab5.b[6]).is_zero
    assert (b7 - tab5.b[7]).is_zero
    assert (b8 - tab5.b[8]).is_zero


def test_weights_at_zero(tab5):
    assert tab5.b[6].at_zero() == F(125, 336)
    assert tab5.b[7].at_zero() == F(27, 56)
    assert tab5.b[8].at_zero() == F(5, 48)
    assert eval_combo(tab5.b[6], 0.0) == pytest.approx(125 / 336, abs=1e-15)


def test_entries_are_stored_in_stage_order(tab5):
    """Entries given in any order are stored by stage, and row(i) is row i
    of a by column."""
    text = json.loads(tableau_to_text(tab5))
    text["a"] = dict(reversed(text["a"].items()))
    text["b"] = dict(reversed(text["b"].items()))
    for t in (ExpRKTableau(name="rev", c=tab5.c, a=dict(reversed(tab5.a.items())),
                           b=dict(reversed(tab5.b.items()))),
              tableau_from_text(json.dumps(text))):
        assert list(t.a) == sorted(tab5.a) and list(t.b) == [6, 7, 8]
        assert list(t.row(8)) == [5, 6, 7] and t.row(2) == {}
        assert t.row(7) == {4: tab5.a[7, 4], 5: tab5.a[7, 5], 6: tab5.a[7, 6]}


def test_free_entries_are_zero(tab5):
    for key in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3),
                (8, 2), (8, 3), (8, 4)):
        assert key not in tab5.a


def test_first_weight_combo_identity(tab5):
    """b6(0) a64 + b7(0) a74 + b8(0) a84 = 0 exactly as a combo."""
    s = sum((bi.at_zero() * tab5.row(i).get(4, PhiCombo()) for i, bi in tab5.b.items()),
            PhiCombo())
    assert s.is_zero


# ---------------------------------------------------------------------------
# psi defect functions

def test_psi_weight_combos_vanish_exactly(tab5):
    for j in (2, 3, 4):
        assert psi_combo(j, tab5).is_zero
    psi5 = psi_combo(5, tab5)
    assert not psi5.is_zero
    assert psi5.at_zero() == 0


def test_psi_stage_combos_vanish_exactly(tab5):
    for i in (3, 4, 5, 6, 7, 8):
        assert psi_combo(2, tab5, i).is_zero
    for i in (5, 6, 7, 8):
        assert psi_combo(3, tab5, i).is_zero


def test_psi_weight_numeric(tab5):
    z = np.random.default_rng(13).uniform(-1.0, 1.0, (4, 4))
    assert np.abs(psi(2, tab5, z)).max() <= 1e-11
    assert np.abs(psi(3, tab5, z)).max() <= 1e-11
    assert np.abs(psi(4, tab5, z)).max() <= 1e-11
    # psi_5 does not vanish as a function, only at zero
    assert np.abs(psi(5, tab5, z)).max() > 1e-6
    assert abs(psi(5, tab5, 0.0)) <= 1e-16


def test_psi_stage_values(tab5):
    rng = np.random.default_rng(29)
    z = rng.uniform(-1.0, 1.0, (3, 3))
    for zz in (z, -2.7, 0.8):
        for i in (3, 4, 5, 6, 7, 8):
            assert np.abs(np.atleast_1d(psi(2, tab5, zz, i))).max() <= 1e-11
        for i in (5, 6, 7, 8):
            assert np.abs(np.atleast_1d(psi(3, tab5, zz, i))).max() <= 1e-11
    # empty-sum case: psi_{2,2} = -c2^2 phi_2(c2 z)
    got = psi(2, tab5, 1.3, 2)
    want = -0.25 * eval_combo(phi_term(F(1), 2, F(1, 2)), 1.3)
    assert abs(got - want) <= 1e-15


def test_weighted_psi4_stage_sum_vanishes(tab5):
    z = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3))
    total = sum(float(tab5.b[i].at_zero()) * psi(4, tab5, z, i)
                for i in (6, 7, 8))
    assert np.abs(total).max() <= 1e-11


def test_psi_validation(tab5):
    with pytest.raises(ValueError):
        psi(1, tab5, 0.5)
    with pytest.raises(IndexError):
        psi(2, tab5, 0.5, 9)
    with pytest.raises(ValueError):
        psi_combo(1, tab5, 3)


def _zero_node_tableau():
    """c = (0, 1/2, 0): stage 3 sits at a zero node, with an empty row, and
    the weights reach it."""
    return ExpRKTableau(name="zero-node", c=(0, F(1, 2), 0),
                        b={2: phi_term(2, 2), 3: phi_term(1, 3)})


def _old_psi_weight_combo(j, t):
    # psi_j as the weight-defect combo was written before psi_parts
    acc = phi_term(-1, j)
    for i, combo in t.b.items():
        acc = acc + F(t.node(i) ** (j - 1), factorial(j - 1)) * combo
    return acc


def _old_psi_stage_combo(j, i, t):
    # psi_{j,i} as the stage-defect combo was written before psi_parts
    ci = t.node(i)
    acc = phi_term(-(ci ** j), j, ci) if ci > 0 else PhiCombo()
    for k in range(2, i):
        combo = t.a.get((i, k))
        if combo is not None:
            acc = acc + F(t.node(k) ** (j - 1), factorial(j - 1)) * combo
    return acc


@pytest.mark.parametrize("name", ["expRK5s8", "expEuler", "expRK2s2", "zero-node"])
def test_psi_combo_matches_former_definitions(name):
    t = _zero_node_tableau() if name == "zero-node" else get_tableau(name)
    for j in (2, 3, 4, 5):
        assert psi_combo(j, t) == _old_psi_weight_combo(j, t)
        for i in range(2, t.s + 1):
            assert psi_combo(j, t, i) == _old_psi_stage_combo(j, i, t), (j, i)


def test_psi_parts_of_a_zero_node():
    t = _zero_node_tableau()
    assert psi_parts(3, t) == ({2: phi_term(2, 2), 3: phi_term(1, 3)}, phi_term(1, 3))
    assert psi_parts(2, t, 2) == ({}, phi_term(F(1, 4), 2, F(1, 2)))
    # no row and a zero node: the defect is the zero function
    assert psi_parts(2, t, 3) == ({}, PhiCombo())
    assert psi_combo(2, t, 3).is_zero
    assert np.array_equal(psi(2, t, np.eye(2), 3), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# baselines

def test_baseline_shapes():
    euler, two = baseline_tableaux()
    assert euler.s == 1 and not euler.a and not euler.b
    assert two.s == 2 and two.c == (F(0), F(1, 2))
    assert two.b[2].terms == ((F(2), 2, F(1)),)
    assert set(tableau_names()) == {"expRK5s8", "expEuler", "expRK2s2"}
    with pytest.raises(ValueError):
        get_tableau("rk4")


def test_two_stage_weight_identity():
    """b2(z) c2 = phi_2(z) identically for the second-order baseline."""
    two = get_tableau("expRK2s2")
    combo = F(1, 2) * two.b[2] - phi_term(F(1), 2)
    assert combo.is_zero


def test_psi_weight_exponential_euler():
    euler = get_tableau("expEuler")
    for z in (-4.0, 0.3):
        got = psi(2, euler, z)
        want = -eval_combo(phi_term(F(1), 2), z)
        assert abs(got - want) <= 1e-15


# ---------------------------------------------------------------------------
# classical limits

def test_classical_limit_euler_is_forward_euler():
    bt = classical_limit(get_tableau("expEuler"))
    assert bt.b == (F(1),)
    assert bt.c == (F(0),)


def test_classical_limit_consistency(all_tableaux):
    for t in all_tableaux:
        bt = classical_limit(t)
        assert sum(bt.b, F(0)) == 1
        for i, row in enumerate(bt.a):
            assert sum(row, F(0)) == bt.c[i]


def test_classical_limit_orders(all_tableaux):
    want = {"expRK5s8": 5, "expEuler": 1, "expRK2s2": 2}
    for t in all_tableaux:
        assert classical_order(classical_limit(t)) == want[t.name]
    assert classical_order(_rk4()) == 4
    assert list(inspect.signature(classical_order).parameters) == ["bt"]


def _rk4():
    h = F(1, 2)
    return ButcherTableau("RK4", (F(0), h, h, F(1)),
                          ((0, 0, 0, 0), (h, 0, 0, 0), (0, h, 0, 0), (0, 0, 1, 0)),
                          (F(1, 6), F(1, 3), F(1, 3), F(1, 6)))


def _random_tableau(seed, s=6):
    """Explicit tableau with generic rational entries, c free of the row sums."""
    rng = random.Random(seed)
    entry = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    a = tuple(tuple(entry() if k < i else F(0) for k in range(s)) for i in range(s))
    return ButcherTableau(f"random-{seed}", tuple(entry() for _ in range(s)), a,
                          tuple(entry() for _ in range(s)))


def _hand_expanded_rows(bt):
    """The 17 conditions through order 5 written out one by one."""
    rng = range(len(bt.c))
    asum = lambda f: [sum((bt.a[i][k] * f[k] for k in rng), F(0)) for i in rng]
    one, c = [F(1)] * len(bt.c), list(bt.c)
    c2, c3, c4 = ([x ** p for x in c] for p in (2, 3, 4))
    ac, ac2, ac3 = asum(c), asum(c2), asum(c3)
    aac, aac2, a_cac = asum(ac), asum(ac2), asum([c[i] * ac[i] for i in rng])
    aaac = asum(aac)
    dot = lambda u, v=one: sum((bt.b[i] * u[i] * v[i] for i in rng), F(0))
    return [(1, dot(one), F(1)), (2, dot(c), F(1, 2)),
            (3, dot(c2), F(1, 3)), (3, dot(ac), F(1, 6)),
            (4, dot(c3), F(1, 4)), (4, dot(c, ac), F(1, 8)), (4, dot(ac2), F(1, 12)),
            (4, dot(aac), F(1, 24)),
            (5, dot(c4), F(1, 5)), (5, dot(c2, ac), F(1, 10)), (5, dot(ac, ac), F(1, 20)),
            (5, dot(c, ac2), F(1, 15)), (5, dot(c, aac), F(1, 30)), (5, dot(ac3), F(1, 20)),
            (5, dot(a_cac), F(1, 40)), (5, dot(aac2), F(1, 60)), (5, dot(aaac), F(1, 120))]


def test_classical_rows_match_the_hand_expansion(all_tableaux):
    """Every tree gives the row written out by hand: one wrong elementary
    weight or density would show on the generic random tableaux."""
    tableaux = [classical_limit(t) for t in all_tableaux] + [_rk4()]
    tableaux += [_random_tableau(seed) for seed in range(5)]
    for bt in tableaux:
        rows = classical_order_conditions(bt)
        assert len(rows) == 17
        assert [o for o, _, _ in rows] == sorted(o for o, _, _ in rows)
        assert sorted(rows) == sorted(_hand_expanded_rows(bt)), bt.name


def test_rooted_tree_counts():
    assert [len(_rooted_trees(p)) for p in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_classical_fifth_order_conditions_exact(tab5):
    rows = classical_order_conditions(classical_limit(tab5))
    assert len(rows) == 17
    for order, lhs, rhs in rows:
        assert lhs == rhs, f"order-{order} condition violated"


# ---------------------------------------------------------------------------
# serialization

def test_text_round_trip(all_tableaux):
    for t in all_tableaux:
        back = tableau_from_text(tableau_to_text(t))
        assert back.name == t.name
        assert back.c == t.c
        assert back.a == t.a
        assert back.b == t.b


def test_text_round_trip_is_byte_stable(tab5):
    text = tableau_to_text(tab5)
    assert tableau_to_text(tableau_from_text(text)) == text


@pytest.mark.parametrize("text", [
    "not json at all {",
    '{"name": "x"}',
    '{"name": "x", "nodes": ["0", "1/2"], "a": {"2,1": [["1", 1, "1"]]}, "b": {}}',
    '{"name": "x", "nodes": ["0", "oops"], "a": {}, "b": {}}',
    # a phi index of 2.5 is not phi_2, nor true phi_1
    '{"name": "x", "nodes": ["0", "1"], "b": {"2": [["1", 2.5, "1"]]}}',
    '{"name": "x", "nodes": ["0", "1"], "b": {"2": [["1", true, "1"]]}}',
])
def test_malformed_text_raises(text):
    with pytest.raises(TableauFormatError):
        tableau_from_text(text)


@pytest.mark.parametrize("text, cause", [
    # a string of nodes is not read character by character as (0, 1)
    ('{"name": "x", "nodes": "01"}', "nodes must be a list or tuple, got '01'"),
    # JSON true/false are not 1/0 in nodes, coefficients or scales
    ('{"name": "x", "nodes": [false, true]}', "cannot interpret False as an exact rational"),
    ('{"name": "x", "nodes": [false, true], "b": {"2": [[true, 2, true]]}}',
     "cannot interpret True as an exact rational"),
    ('{"name": "x", "nodes": [0, 1], "b": {"2": [[true, 2, 1]]}}',
     "cannot interpret True as an exact rational"),
    ('{"name": "x", "nodes": [0, 1], "b": {"2": [[1, 2, true]]}}',
     "cannot interpret True as an exact rational"),
])
def test_text_rejects_non_numbers_read_as_numbers(text, cause):
    with pytest.raises(TableauFormatError, match=re.escape(cause)):
        tableau_from_text(text)


@pytest.mark.parametrize("field, value", [
    ("a", "[]"), ("a", '"3,2"'), ("a", "1"), ("b", '[["1", 2, "1"]]'), ("b", '"2"'), ("b", "0"),
])
def test_text_rejects_a_coefficient_table_that_is_not_an_object(field, value):
    """a and b map keys to combos; a list, string or number is a format
    error naming the field, not an AttributeError from reading it."""
    text = f'{{"name": "x", "nodes": ["0", "1/2"], "{field}": {value}}}'
    cause = f"{field} must be a JSON object, got {json.loads(value)!r}"
    with pytest.raises(TableauFormatError, match=re.escape(cause)):
        tableau_from_text(text)


def test_text_reads_a_decimal_float_as_written():
    """A JSON float is the decimal it spells, as "1/5" and the constructor
    read it, not its nearest binary fraction."""
    doc = '{{"name": "x", "nodes": [0, {c}], "b": {{"2": [[{al}, 2, 1]]}}}}'
    floats = tableau_from_text(doc.format(c="0.2", al="0.1"))
    strings = tableau_from_text(doc.format(c='"1/5"', al='"1/10"'))
    built = ExpRKTableau(name="x", c=(0, 0.2), b={2: phi_term(0.1, 2)})
    assert floats.c == strings.c == built.c == (0, F(1, 5))
    assert floats.b == strings.b == built.b == {2: phi_term(F(1, 10), 2)}
    rows = classical_order_conditions(classical_limit(floats))
    assert rows == classical_order_conditions(classical_limit(strings))


@pytest.mark.parametrize("index", [2.9, 2.0, True])
def test_combo_phi_index_must_be_an_integer(index):
    with pytest.raises(TypeError, match="phi index must be an integer"):
        phi_term(1, index)
    assert phi_term(1, np.int64(2)).terms == ((F(1), 2, F(1)),)


# ---------------------------------------------------------------------------
# construction validation

def test_tableau_validation():
    with pytest.raises(ValueError):  # c1 must be 0
        ExpRKTableau(name="bad", c=(F(1, 2), F(1)), a={}, b={})
    with pytest.raises(ValueError):  # c2 must be nonzero
        ExpRKTableau(name="bad", c=(F(0), F(0)), a={}, b={})
    with pytest.raises(ValueError):  # nodes confined to [0, 1]
        ExpRKTableau(name="bad", c=(F(0), F(3, 2)), a={}, b={})
    with pytest.raises(ValueError):  # explicit methods only
        ExpRKTableau(name="bad", c=(F(0), F(1, 2)),
                     a={(2, 2): phi_term(F(1), 2)}, b={})
    with pytest.raises(ValueError):  # scale must come from the node set
        ExpRKTableau(name="bad", c=(F(0), F(1, 2)), a={},
                     b={2: phi_term(F(1), 2, F(1, 3))})
