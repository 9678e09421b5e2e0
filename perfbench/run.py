"""Benchmark entry point.

    python3 perfbench/run.py --workload heat200-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It launches the measured process
(``worker.py``) against the checkout's ``src/`` with every BLAS thread pool
pinned to one thread, and waits for it, killing it and its children after
WORKER_TIMEOUT_S.  The last line of standard output is the run's result as
one JSON object; see README.md.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# OpenBLAS starts one thread per core unless told otherwise; the thread-pool
# start-up alone once cost 0.28 s on a 200x200 product.  One thread is the
# plain single-threaded baseline, and the same on every machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKER_TIMEOUT_S = 170

ADDR_NO_RANDOMIZE = 0x0040000  # Linux personality flag


def fix_address_layout():
    """Have the processes this one starts mapped at fixed addresses.

    With the default randomized layout, the drift-corrected median time of
    check() moved by up to 6 % from one process to the next (0.52-0.59 s over
    six processes); at fixed addresses it moved by 1.6 % (0.47-0.49 s).
    Acts on this process and its children only; where the call is missing
    or refused, layouts stay randomized (the worker records which).
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)  # query
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exprk", "__init__.py")):
        print(f"run.py: no exprk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    # String hashes are salted per process by default, which lays out every
    # dict differently from run to run; a fixed salt removes that spread.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    fix_address_layout()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The worker leads its own process group, so that its set-up sample
    # interpreters go with it if it has to be killed.
    worker = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return worker.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()


if __name__ == "__main__":
    sys.exit(main())
