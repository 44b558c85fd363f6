"""Host-speed reference that steadies the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes: the same eigensolve can take twice as long in one
window as in the next, and CPU time drifts with wall time, so it is not the
scheduler.  The benchmark therefore runs a fixed reference kernel while it
measures, and divides each timed section's wall time by the host's *speed
factor* around that section:

    speed factor = median reference-kernel time around the section / REF_MS

A section timed while the host runs at the reference speed keeps its wall
time; one timed while the host is 20 % slow is scaled back by 1.2.  The
program's own speed still shows in full, because the kernel is frozen here,
outside the program.  The kernel does what the program's hot loop does
without numba: Jacobi rotations that read and write numpy scalars from
Python, on a matrix small enough to stay in cache.

Inside the timed loop the kernel runs from a ``SIGALRM`` handler every
``PERIOD_S``, so it interleaves with the program even within one long call;
its own time is taken out of the section it interrupted.  Around work done
in another process, ``sample`` runs it in a plain loop instead.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# The kernel's time on the host of the seed-commit measurements at its
# median speed.  It only scales the reported times; it is never tuned.
REF_MS = 2.3
PERIOD_S = 0.01     # about a fifth of the time goes to the kernel
WINDOW_S = 0.25     # samples this close to a section also count for it

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))
_MATRIX = _MATRIX + _MATRIX.T


def reference_kernel(sweeps: int = 2) -> float:
    """Fixed work: ``sweeps`` sweeps of Jacobi rotations on a fixed matrix."""
    a = _MATRIX.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                theta = 0.5 * (a[q, q] - a[p, p]) / apq if apq != 0.0 else 1e12
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                for i in range(n):
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = aip - s * (aiq + tau * aip)
                    a[i, q] = aiq + s * (aip - tau * aiq)
    return float(a[0, 0])


class HostSpeed:
    """Timestamped reference-kernel samples, and the factors they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _run_kernel(self, *_):
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(elapsed)

    def sample(self, seconds: float):
        """Run the kernel in a loop for ``seconds``, at least twice."""
        start, reps = time.perf_counter(), 0
        while reps < 2 or time.perf_counter() - start < seconds:
            self._run_kernel()
            reps += 1

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel every ``PERIOD_S`` of wall time within the block."""
        previous = signal.signal(signal.SIGALRM, self._run_kernel)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Time spent in kernel runs that started within ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        return sum(self.times[lo:bisect.bisect_right(self.starts, end)])

    def factor(self, start: float, end: float) -> float:
        """Speed factor from the samples taken within ``WINDOW_S`` of a section."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return 1e3 * statistics.median(self.times[lo:hi]) / REF_MS
