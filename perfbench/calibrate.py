"""Host-speed calibration: a fixed reference kernel timed between jobs.

The benchmark runs on a shared host whose speed drifts.  On the 2-vCPU
reference box the same deterministic job took anywhere from 1.8 s to 3.8 s
within two minutes, and its CPU time drifted with its wall time, so the
slow-down is not time taken by other processes but slower execution of the
same instructions.  No statistic taken over one run removes drift between
runs.

So the run loop also times a reference kernel: fixed pure-Python and small
numpy work, in the style of the package's own inner loops, that imports
nothing from the package.  It spends ``REF_SHARE`` of the loop's time on it,
in blocks right after the jobs.  A job run while the host runs at half speed
takes twice as long, and so do the kernel runs next to it.  Each job's wall
time is divided by the mean time of the kernel runs within ``LOCAL_S`` of it
and multiplied by ``REF_NOMINAL_S``: its time in "reference seconds", on a
host where the kernel takes ``REF_NOMINAL_S``.  A change to the package
moves job times and leaves the kernel alone, so it moves reference seconds
by the same factor as wall seconds.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.005    # the kernel's time on the reference box, unloaded
REF_SHARE = 0.1          # kernel time per second of job time in the loop
LOCAL_S = 0.5            # a job is scaled by the kernel runs this close to it
MIN_LOCAL = 3            # ... or by the nearest ones, at least this many
SETUP_REF_S = 0.15       # kernel time before and after each cold set-up

_RNG = np.random.default_rng(20130625)
_M = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))


def reference_kernel():
    """About 5 ms of work on the reference box: complex scalar arithmetic and
    dict updates in a Python loop, then many tiny numpy solves."""
    z = complex(0.6, 0.8)
    acc = 0j
    table = {}
    for i in range(5000):
        w = z ** (i % 5) + 1.0 / (z + i)
        table[i % 61] = table.get(i % 61, 0j) + w
        acc += w * w.conjugate()
    v = _M[:, 0]
    for _ in range(250):
        v = np.linalg.solve(_M, v) + _M @ v
        v = v / np.abs(v).max()
    return acc, v


class Calibrator:
    """Kernel timings of one run, taken in blocks between jobs."""

    def __init__(self):
        self.ends = []           # perf_counter() at the end of each kernel run
        self.times = []          # seconds of each kernel run
        self.owed = 0.0

    def block(self, seconds):
        """Run the kernel until `seconds` have passed (at least once);
        return the time spent."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            reference_kernel()
            t1 = perf_counter()
            self.ends.append(t1)
            self.times.append(t1 - t0)
            if t1 - start >= seconds:
                return t1 - start

    def after_job(self, job_s):
        """Pay REF_SHARE of a job's time in kernel runs, in blocks of at
        least one kernel."""
        self.owed += REF_SHARE * job_s
        if self.owed >= REF_NOMINAL_S:
            self.owed -= self.block(self.owed)

    def kernel_s(self, start=None, end=None):
        """Mean kernel time of the runs that ended within LOCAL_S of the
        interval [start, end], or of the MIN_LOCAL runs nearest to it if
        fewer did; of all runs when no interval is given."""
        if start is None:
            return statistics.fmean(self.times)
        lo = bisect.bisect_left(self.ends, start - LOCAL_S)
        hi = bisect.bisect_right(self.ends, end + LOCAL_S)
        if hi - lo < MIN_LOCAL:
            mid = (start + end) / 2
            near = sorted(range(len(self.ends)),
                          key=lambda i: abs(self.ends[i] - mid))[:MIN_LOCAL]
            return statistics.fmean(self.times[i] for i in near)
        return statistics.fmean(self.times[lo:hi])

    def reference_s(self, seconds, end):
        """A job's wall time `seconds`, ended at perf_counter() `end`, in
        reference seconds."""
        return seconds * REF_NOMINAL_S / self.kernel_s(end - seconds, end)
