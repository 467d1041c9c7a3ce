"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared host other tenants change this process's speed by up
to a factor of two, in phases that last seconds, and CPU time moves with wall
time, so a raw timing mostly measures the neighbours.  While it measures, the
benchmark therefore runs a small fixed kernel with the instruction mix of the
workload (see KERNELS) from a SIGALRM handler at a fixed wall-clock interval,
and reports

    reference seconds = raw seconds * mean(reference time / kernel time)

with the mean over the kernel samples taken during the timed interval: the
time-average of the host's speed relative to an idle reference.  On an idle
host the factor is near 1; under load the step and the kernel slow down
together.  Sampling costs 1-3 % of the measured time, on every commit alike.

The factor is meant to depend on the host alone.  That is an assumption, not
a guarantee: the kernels run in bdlab's process and share its caches.  They
are kept apart from the state bdlab can change: the garbage collector is off
while a kernel runs, and the memory kernel takes its pages straight from
mmap.  A kernel that took its temporaries from malloc would run 2.4 times
faster once the program had freed one 20 MB array (glibc then raises its
mmap threshold and serves 4.8 MB from the heap without page faults), and so
double a timing the program had not changed.  The README lists the no-op
checks that these kernels pass.
"""

from __future__ import annotations

import bisect
import gc
import mmap
import signal
import statistics
import time

import numpy as np

_A = np.arange(8.0).reshape(4, 2)
_X: list = []  # the memory kernel's operand, made on first use (see peak_rss_mb)


def _interpreter_kernel():
    s = 0.0
    for k in range(40):
        b = _A * 1.0001 + k
        s += float(np.linalg.norm(b[1] - b[0]))
        s += sum(x * x for x in range(8))
    return s


def _memory_kernel():
    # two fresh 4.8 MB results that page-fault like the large density
    # batches; anonymous mmap, so malloc's state cannot change the cost
    if not _X:
        _X.append(np.random.default_rng(0).random(600_000))
    x = _X[0]
    b1, b2 = mmap.mmap(-1, x.nbytes), mmap.mmap(-1, x.nbytes)
    y, z = np.frombuffer(b1), np.frombuffer(b2)
    np.multiply(x, x, out=y)
    y += 1.0
    np.sqrt(y, out=z)
    s = float(z[-1])
    del y, z  # release the buffer exports before unmapping
    b1.close()
    b2.close()
    return s


# kernel, its time on an idle 2-core Intel Xeon VM (Python 3.11.7, numpy
# 2.4.6), which only sets the unit, and the sampling interval, which keeps the
# cost near 1-3 %.  Interpreter-bound work tracks the interpreter kernel
# (correlation 0.97 on 1 s falsify runs); large NumPy batches, bound by memory
# traffic and page faults, track the memory kernel (0.84 on 2.5 s dalmot
# density checks, leaving a 6.0 % spread of a raw 9.1 %, where the
# interpreter kernel leaves 10.6 %).
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.0003, 0.05),
    "memory": (_memory_kernel, 0.006, 0.25),
}


class SpeedSampler:
    """Samples relative host speed at a fixed wall-clock rate."""

    def __init__(self, kernel: str):
        self._kernel, self._reference_s, self._interval_s = KERNELS[kernel]
        self.times: list[float] = []
        self.speeds: list[float] = []

    def _tick(self, signum, frame):
        # a collection of the program's objects is not the host's speed
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.speeds.append(self._reference_s / (t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1]: raw seconds times this factor
        are reference seconds.  An interval shorter than the sampling period
        takes the nearest sample."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.fmean(self.speeds[lo:hi])
        if not self.times:
            return 1.0
        k = min(max(lo, 0), len(self.times) - 1)
        return self.speeds[k]
