"""Machine-speed reference that the benchmark's times are scaled by.

On a shared machine the speed of the same code drifts by 30% and more
over tens of seconds, so raw times from runs made a few minutes apart
cannot be compared at a 25% bound.  The benchmark therefore runs this
fixed kernel, which uses no sturmtrace code, between tasks and reports
each task's time scaled by REF_SECONDS / (the kernel's time around that
task): the time the task would take when the kernel takes REF_SECONDS.
A change to sturmtrace cannot change the kernel's time, so the scaled
times still move with the program and only the machine's drift cancels.
The raw times are printed next to the scaled ones.

The kernel mixes the kinds of work sturmtrace does: NumPy elementwise
recursions over a few thousand energies and over a dozen (where call
overhead dominates), and a pure-Python loop.
"""

import statistics
import time

import numpy as np

# Median kernel time on a 2-CPU Intel Xeon machine (Python 3.11, NumPy 2.4).
REF_SECONDS = 0.015
# Median time of ``import numpy`` in a fresh interpreter on the same
# machine, with one OpenBLAS thread; set-up time is scaled by it instead
# (run.setup_only says why).
NUMPY_IMPORT_SECONDS = 0.05
REF_EVERY = 0.25    # seconds between kernel runs in the timed loop
WINDOW = 2.0        # kernel runs this close to a task set its scale

_WIDE = np.linspace(-4.0, 4.0, 4097)
_NARROW = np.linspace(-3.0, 3.0, 12)


def kernel():
    acc = 0
    for E, rounds in ((_WIDE, 300), (_NARROW, 700)):
        d = np.ones_like(E)
        count = np.zeros(E.shape, dtype=np.int64)
        for _ in range(rounds):
            d = (0.3 - E) - 1.0 / d
            d = np.where(d == 0.0, -1e-300, d)
            count += d < 0
        acc += int(count.sum())
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    return acc


def median_time(fn, repeats=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(repeats=1):
    return median_time(kernel, repeats)


class Clock:
    """Kernel timings taken between tasks, and the scale they give each task."""

    def __init__(self):
        self.refs = []   # (time the kernel run ended, its duration)

    def tick(self, force=False):
        now = time.perf_counter()
        if force or not self.refs or now - self.refs[-1][0] >= REF_EVERY:
            d = measure()
            self.refs.append((time.perf_counter(), d))

    def scale(self, start, end):
        """REF_SECONDS over the median kernel time within WINDOW of [start, end].

        With no kernel run that close, the runs just before and just after
        the task are used.
        """
        near = [d for t, d in self.refs if start - WINDOW <= t <= end + WINDOW]
        if not near:
            near = [d for t, d in self.refs if t <= start][-1:] + \
                   [d for t, d in self.refs if t >= end][:1]
        return REF_SECONDS / statistics.median(near) if near else 1.0

    def median(self):
        return statistics.median(d for _, d in self.refs) if self.refs else REF_SECONDS
