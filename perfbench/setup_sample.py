"""One set-up sample, taken in a fresh interpreter.

    python3 perfbench/setup_sample.py <method> <problem kind> <n>

Prints the wall time from before ``import exprk`` until the tableau and the
workload's problem are built, which is what a user pays before the first
solve, and the machine slowdown over that interval (see speed.py; the probe
here is the Python loop alone, since importing numpy for its matrix product
would take numpy's import out of the sample).  The problem kind ``none``
builds no problem.  Interpreter start-up is not included.
"""

import sys
from time import perf_counter

import speed


def main(argv):
    method, kind, n = argv
    if "numpy" in sys.modules or "scipy" in sys.modules:
        raise SystemExit("setup_sample.py: numpy was imported before the sample started")
    probe = speed.SpeedProbe(("loop",))
    with probe.sampling():
        start = perf_counter()
        import exprk

        exprk.get_tableau(method)
        if kind != "none":
            import problems

            problems.build_problem(kind, int(n))
        end = perf_counter()
    print(repr(end - start), repr(probe.slowdown(start, end)))


if __name__ == "__main__":
    main(sys.argv[1:])
