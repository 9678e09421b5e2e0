"""The golden record: every number in golden.json, recomputed by golden.py.

A float (a checker residual or an L2 error) has moved when it differs from
the record by more than REL of its value plus ABS.  ABS is ten times the
largest residual that is rounding noise in the record (7.8e-16, on passing
rows), far below check()'s tolerance of 1e-9 and far above the change a
different BLAS summation order makes to a state.  Verdicts and the other
exact entries compare exactly.  The sha256 digests tell bits apart on one
machine only, so they are not compared here: for "bit-identical to the
parent", diff the output of golden.py at both commits.
"""

import json
import os

from golden import ABS, REL, record

FLOATS = ("/residual", "/l2_error")


def moved(want, got):
    """One line for each entry of want that moved in got, or is missing."""
    out = []
    for key, w in want.items():
        g = got.get(key)
        if key.endswith("/sha256"):
            continue
        if key.endswith(FLOATS) and g is not None:
            w, g = float.fromhex(w), float.fromhex(g)
            if not abs(g - w) <= REL * abs(w) + ABS:
                out.append(f"{key}: {w!r} -> {g!r} (by {abs(g - w):.2e})")
        elif g != w:
            out.append(f"{key}: {w!r} -> {g!r}")
    return out + [f"{key}: not in the record" for key in got.keys() - want.keys()]


def test_numbers_match_the_golden_record():
    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as f:
        want = json.load(f)
    lines = moved(want, record())
    assert not lines, f"{len(lines)} entries moved:\n" + "\n".join(lines)


def test_moved_names_each_entry_that_moved():
    want = {"a/residual": (1e-3).hex(), "b/residual": (5e-16).hex(), "c/pass": True,
            "d/sha256": "00", "e/l2_error": (2e-10).hex()}
    got = {**want, "a/residual": (1e-3 * (1 + 2e-9)).hex(), "b/residual": (8e-15).hex(),
           "d/sha256": "ff", "e/l2_error": (2e-10 + 1e-15).hex()}
    assert moved(want, got) == ["a/residual: 0.001 -> 0.001000000002 (by 2.00e-12)"]
    got.update({"c/pass": False, "f/pass": True})
    del got["e/l2_error"]
    assert [line.split(":")[0] for line in moved(want, got)] == [
        "a/residual", "c/pass", "e/l2_error", "f/pass"]
