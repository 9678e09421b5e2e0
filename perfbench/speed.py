"""Machine-speed probe: how fast this machine runs fixed work, sampled while
an interval is being timed.

The 2-core VM the benchmark was written on changes speed by up to 2x, in
phases from under a second to minutes; CPU time tracks wall time, so this is
not preemption.  A probe times fixed pieces of work, its parts:

  ``loop``    5000 iterations of a pure-Python loop;
  ``matmul``  a 100x100 matrix product (in-cache BLAS);
  ``matvec``  a 1000x1000 matrix times a vector (8 MB read).

While ``sampling()`` is active, a SIGALRM handler takes one probe every
PERIOD_S of wall time, between the bytecodes of whatever the process is
running, so probes land inside the operation being timed.

``slowdown(start, end)`` is the geometric mean, over the probe's parts, of
the median probe time inside the interval over its nominal time.  Dividing an
interval's wall time by it gives the time at nominal machine speed.  The
nominal times are typical of that VM (Python 3.11, OpenBLAS 0.3.31 on one
thread); they only set the scale.

Each workload names the parts its times follow.  Which parts those are
changed with the machine's phase: in a calm phase the loop tracked
heat200-sweep and check-order well and heat2000-solve not at all; in a busy
one, single operations corrected by the loop still spread by 0.14-0.16
(standard deviation of log time) on heat200-sweep, heat2000-solve and
advdiff200-dense, against 0.03-0.06 corrected by the matrix product and the
matrix-vector product.  check-order, which is Python overhead on 3x3
matrices, follows the loop and the matrix product.

A set-up sample is probed with the loop alone: the other parts need numpy,
and importing it early would take numpy's import out of the sample.  This
module imports numpy only when a part needs it.
"""

import bisect
import contextlib
import math
import signal
import statistics
from time import perf_counter

LOOP = 5000
MATVEC_N = 1000
PERIOD_S = 0.025  # keeps the probe's own cost at 2-3 % of the time it samples
NOMINAL_S = {"loop": 3.4e-4, "matmul": 6.5e-5, "matvec": 5e-4}
MIN_SAMPLES = 3


class SpeedProbe:
    def __init__(self, parts):
        self.times = []  # when each probe started
        self.parts = {p: [] for p in parts}
        self._work = {"loop": self._loop}
        if "matmul" in parts or "matvec" in parts:
            import numpy as np

            rng = np.random.default_rng(0)
            small = rng.uniform(-1.0, 1.0, (100, 100))
            big = rng.uniform(-1.0, 1.0, (MATVEC_N, MATVEC_N))
            vec = np.ones(MATVEC_N)
            self._work["matmul"] = lambda: small @ small
            self._work["matvec"] = lambda: big @ vec

    @staticmethod
    def _loop():
        acc = 0
        for i in range(LOOP):
            acc += i * i

    def sample(self, *_signal_args):
        """Time each part's fixed work once and record it."""
        self.times.append(perf_counter())
        for name, times in self.parts.items():
            start = perf_counter()
            self._work[name]()
            times.append(perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Take a probe every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        # Restart interrupted system calls (file reads in an import, say)
        # instead of failing them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start, end):
        """Machine slowdown over [start, end]: 1.0 at nominal speed.

        Uses the probes inside the interval, or the MIN_SAMPLES probes
        nearest to it when it holds fewer.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.times):
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed probes were taken")
        logs = [math.log(statistics.median(xs[lo:hi]) / NOMINAL_S[name])
                for name, xs in self.parts.items()]
        return math.exp(sum(logs) / len(logs))
