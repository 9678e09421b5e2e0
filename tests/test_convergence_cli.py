"""Convergence sweeps, CSV round-trips, and the command-line front end."""

import dataclasses

import numpy as np
import pytest

from conftest import not_integers
from exprk import convergence
from exprk.cli import main
from exprk.convergence import (DEFAULT_FLOOR, DEFAULT_STEPS, ConvergenceRow,
                               fit_slope, run_convergence,
                               write_csv)
from exprk.tableau import exprk5s8, tableau_to_text
from exprk.testbed import heat_problem


def _rows(p, const=3.7, steps=(8, 16, 32, 64)):
    return tuple(ConvergenceRow(n, 1.0 / n, const * (1.0 / n) ** p)
                 for n in steps)


# ---------------------------------------------------------------------------
# slope fitting

def test_fit_slope_recovers_exact_power_law():
    slope, used, excluded = fit_slope(_rows(2.5))
    assert slope == pytest.approx(2.5, abs=1e-10)
    assert len(used) == 4 and excluded == ()


def test_fit_slope_excludes_floor_rows():
    rows = _rows(5.0, const=1.0)  # errors 3.1e-5 .. 7.6e-9 at n=8..64
    noisy = rows + (ConvergenceRow(128, 1.0 / 128, 2e-16),
                    ConvergenceRow(256, 1.0 / 256, 3e-16))
    slope, used, excluded = fit_slope(noisy, floor=1e-11)
    assert slope == pytest.approx(5.0, abs=1e-10)
    assert [r.n_steps for r in used] == [8, 16, 32, 64]
    assert [r.n_steps for r in excluded] == [128, 256]


def test_fit_slope_excludes_every_row_it_does_not_use():
    """A NaN error is neither above nor at or below the floor, so its row
    was in neither list: the 16-step row below fell out of the report."""
    rows = (ConvergenceRow(8, 1.0 / 8, 1e-6), ConvergenceRow(16, 1.0 / 16, float("nan")),
            ConvergenceRow(32, 1.0 / 32, 3e-8))
    slope, used, excluded = fit_slope(rows)
    assert [r.n_steps for r in used] == [8, 32]
    assert [r.n_steps for r in excluded] == [16]
    assert slope == pytest.approx(np.log(1e-6 / 3e-8) / np.log(4.0), rel=1e-12)


def test_fit_slope_leaves_out_an_infinite_error():
    """An infinite error is above every floor, so its row was used and the
    slope came out nan; it is excluded like a NaN row."""
    rows = (ConvergenceRow(8, 1.0 / 8, 1e-6), ConvergenceRow(16, 1.0 / 16, float("inf")),
            ConvergenceRow(32, 1.0 / 32, 3e-8))
    slope, used, excluded = fit_slope(rows)
    assert [r.n_steps for r in used] == [8, 32]
    assert [r.n_steps for r in excluded] == [16]
    assert slope == pytest.approx(np.log(1e-6 / 3e-8) / np.log(4.0), rel=1e-12)


def test_fit_slope_needs_two_rows():
    rows = (ConvergenceRow(8, 0.125, 1e-3),
            ConvergenceRow(16, 0.0625, 1e-15))
    slope, used, excluded = fit_slope(rows, floor=1e-11)
    assert slope is None
    assert len(used) == 1 and len(excluded) == 1


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
def test_fit_slope_rejects_a_bad_floor(floor):
    with pytest.raises(ValueError, match="floor must be finite and >= 0"):
        fit_slope(_rows(2.5), floor=floor)


@pytest.mark.parametrize("floor", ["0.1", True, 1e-11 + 0j])
def test_fit_slope_reads_its_floor_as_a_real_number(floor):
    """A str, bool or complex floor is a TypeError naming it, not numpy's
    unnamed ufunc error or a floor of 1.0."""
    with pytest.raises(TypeError, match="^floor must be real, got dtype "):
        fit_slope(_rows(2.5), floor=floor)


# ---------------------------------------------------------------------------
# sweep driver

def test_run_convergence_second_order_method():
    pb = heat_problem(50)
    report = run_convergence("expRK2s2", pb, steps=(32, 64, 128, 256, 512))
    assert report.method == "expRK2s2"
    assert report.problem == "heat50"
    assert [r.n_steps for r in report.rows] == [32, 64, 128, 256, 512]
    errs = [r.error for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert 1.8 <= report.fitted_slope <= 2.1


def test_run_convergence_validates_steps():
    pb = heat_problem(10)
    with pytest.raises(ValueError):
        run_convergence("expEuler", pb, steps=(8, 8, 16))
    with pytest.raises(ValueError):
        run_convergence("expEuler", pb, steps=(16, 8))
    with pytest.raises(ValueError):
        run_convergence("expEuler", pb, steps=(0, 8))


@pytest.mark.parametrize("k, error", not_integers(1))
def test_run_convergence_reads_each_step_count_as_an_integer(monkeypatch, k, error):
    """steps=[8.9, 16.2] ran 8 and 16 steps; a bad count now fails before any
    integration, naming steps."""
    monkeypatch.setattr(convergence, "integrate", lambda *args: pytest.fail("integrated"))
    with pytest.raises(error, match="^steps must be "):
        run_convergence("expEuler", heat_problem(10), steps=[k, 16])


def test_run_convergence_stores_its_floor_as_a_float():
    """The report kept the caller's floor: floor=0 was the int 0."""
    report = run_convergence("expEuler", heat_problem(10), steps=(8, 16), floor=0)
    assert type(report.floor) is float and report.floor == 0.0


def test_run_convergence_takes_numpy_integer_step_counts():
    pb = heat_problem(10)
    got = run_convergence("expEuler", pb, steps=np.array([8, 16]))
    assert got.rows == run_convergence("expEuler", pb, steps=[8, 16]).rows
    assert all(type(r.n_steps) is int for r in got.rows)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
def test_run_convergence_rejects_a_bad_floor(monkeypatch, floor):
    """A bad floor fails before any integration."""
    monkeypatch.setattr(convergence, "integrate", lambda *args: pytest.fail("integrated"))
    with pytest.raises(ValueError, match="floor must be finite and >= 0"):
        run_convergence("expEuler", heat_problem(10), steps=(8, 16), floor=floor)


def test_run_convergence_needs_an_exact_solution_before_integrating(monkeypatch):
    """A problem without an exact solution was integrated at the first step
    count before the error metric raised; the check now comes first."""
    calls = []
    monkeypatch.setattr(convergence, "integrate", lambda *args: calls.append(args))
    pb = dataclasses.replace(heat_problem(10), exact=None)
    with pytest.raises(ValueError, match="^problem has no exact solution to compare against$"):
        run_convergence("expEuler", pb, steps=(8, 16))
    assert calls == []


def test_defaults():
    assert DEFAULT_STEPS == (8, 16, 32, 64, 128, 256, 512)
    assert DEFAULT_FLOOR == 1e-11


# ---------------------------------------------------------------------------
# CSV round-trip

def _csv_rows(path):
    """The rows of a convergence CSV, once its header is checked."""
    header, *lines = path.read_text(encoding="ascii").splitlines()
    assert header == "n_steps,h,error"
    return tuple(ConvergenceRow(int(n), float(h), float(e))
                 for n, h, e in (line.split(",") for line in lines))


def test_csv_round_trip(tmp_path):
    pb = heat_problem(20)
    report = run_convergence("expEuler", pb, steps=(4, 8, 16))
    path = tmp_path / "sweep.csv"
    write_csv(report, path)
    assert _csv_rows(path) == report.rows
    first = path.read_bytes()
    write_csv(report, path)
    assert path.read_bytes() == first
    assert first.startswith(b"n_steps,h,error\n")


# ---------------------------------------------------------------------------
# CLI: converge

def test_cli_converge_with_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["converge", "--method", "expRK2s2", "--problem", "heat50",
                 "--steps", "8,16,32", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "method expRK2s2 on heat50" in text
    assert "fitted slope: " in text
    assert f"wrote {out}" in text
    assert len(_csv_rows(out)) == 3


def test_cli_converge_undefined_slope(capsys):
    code = main(["converge", "--method", "expEuler", "--problem", "heat20",
                 "--steps", "8"])
    assert code == 0
    assert "fitted slope: undefined" in capsys.readouterr().out


@pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
def test_cli_converge_rejects_a_bad_floor(capsys, floor):
    """A NaN floor once dropped every row from both the fit and the
    excluded list, and the sweep reported an undefined slope with exit 0."""
    code = main(["converge", "--problem", "heat50", "--steps", "8,16", f"--floor={floor}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "floor must be finite and >= 0" in captured.err
    assert "fitted slope" not in captured.out


# ---------------------------------------------------------------------------
# CLI: check-order

def test_cli_check_order_asserts_order_five(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["check-order", "--method", "expRK5s8", "--seed", "42",
                 "--assert-order", "5", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "highest strong order: 4" in text
    assert "weakened order-5 verdict: pass" in text
    assert "asserted order 5 attained" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "id,mode,residual,pass"
    assert len(lines) == 33


def test_cli_check_order_second_order_method(capsys):
    assert main(["check-order", "--method", "expRK2s2",
                 "--assert-order", "2"]) == 0
    capsys.readouterr()
    code = main(["check-order", "--method", "expRK2s2", "--assert-order", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "NOT attained" in captured.err


def test_cli_check_order_first_order_method(capsys):
    assert main(["check-order", "--method", "expEuler",
                 "--assert-order", "5"]) == 1


@pytest.mark.parametrize("method, order", [("expRK5s8", "7"), ("expRK5s8", "6"),
                                           ("expEuler", "0"), ("expEuler", "-2")])
def test_cli_check_order_rejects_an_order_outside_the_table(capsys, method, order):
    """Orders outside 1..5 have no conditions, so none can be attained."""
    code = main(["check-order", "--method", method, f"--assert-order={order}"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--assert-order must lie in 1..5, got {order}" in captured.err
    assert "attained" not in captured.out + captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_cli_check_order_rejects_a_bad_tolerance(capsys, tol):
    code = main(["check-order", "--method", "expRK5s8", f"--tol={tol}",
                 "--assert-order", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "tolerance must be finite and positive" in captured.err
    assert "NOT attained" not in captured.err


def test_cli_check_order_tableau_file(tmp_path, capsys):
    path = tmp_path / "method.json"
    path.write_text(tableau_to_text(exprk5s8()))
    code = main(["check-order", "--method", str(path), "--seed", "3",
                 "--assert-order", "5"])
    assert code == 0
    assert "asserted order 5 attained" in capsys.readouterr().out


def test_cli_check_order_corrupt_tableau_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not a tableau")
    code = main(["check-order", "--method", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_cli_check_order_rejects_a_fractional_phi_index(tmp_path, capsys):
    """A phi index of 2.5 is an error, not a method with phi_2 graded instead."""
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "nodes": ["0", "1"], "b": {"2": [["1", 2.5, "1"]]}}')
    code = main(["check-order", "--method", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed tableau text: phi index must be an integer, got 2.5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc, cause", [
    ('{"name": "bad", "nodes": "01"}', "nodes must be a list or tuple, got '01'"),
    ('{"name": "bad", "nodes": ["0", "1"], "b": {"2": [[true, 2, "1"]]}}',
     "cannot interpret True as an exact rational"),
    ('{"name": "bad", "nodes": ["0", "1/2"], "a": []}', "a must be a JSON object, got []"),
])
def test_cli_check_order_rejects_non_numbers_in_a_tableau_file(tmp_path, capsys, doc, cause):
    """A string of nodes, a JSON true and a list for a are usage errors
    naming the cause, not the nodes (0, 1), the coefficient 1 or a crash
    (exit 1 with a traceback, the code of a failed verdict)."""
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code = main(["check-order", "--method", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"malformed tableau text: {cause}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# CLI: phi and step-demo

@pytest.mark.parametrize("j,z,expected", [
    ("2", "0.0", "0.5"),
    ("1", "1.0", "1.718281828459045"),
    ("5", "2.0", "0.012158003091582829"),
])
def test_cli_phi(capsys, j, z, expected):
    assert main(["phi", j, z]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_cli_step_demo(capsys):
    code = main(["step-demo", "--method", "expRK5s8", "--problem", "heat50",
                 "--steps", "8"])
    text = capsys.readouterr().out
    assert code == 0
    assert "one step of h = 0.125" in text
    assert "stage 8:" in text
    assert "discrete L2 error vs exact solution:" in text


# ---------------------------------------------------------------------------
# CLI: error paths

@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_step_demo_rejects_nonpositive_steps(capsys, steps):
    code = main(["step-demo", "--problem", "heat20", "--steps", steps])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: --steps must be >= 1, got {steps}" in captured.err
    assert captured.out == ""


def test_cli_unknown_method(capsys):
    code = main(["converge", "--method", "rk99", "--problem", "heat20",
                 "--steps", "4,8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_cli_unknown_problem(capsys):
    code = main(["converge", "--method", "expEuler", "--problem", "wave1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
