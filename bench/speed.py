"""Host-speed calibration for the benchmark's time metrics.

The CPU speed of a shared host drifts by tens of percent over seconds to
minutes, far more than the regressions the benchmark's bounds are meant to
catch.  A fixed kernel runs from a timer signal every ``PERIOD_S``, and the
time a task spends in Python code between kernel runs is rescaled to a
machine on which the kernel takes ``KERNEL_REF_S``.

The kernel does what the program's hot path does, Gram-like integrals of
products of rational form factors under QUADPACK with Python integrands, but
uses no friedrichs code, so no change to the program can move it.  On a
shared 2-core VM it cut the quartile spread of 10 s windows of repeated
solves from 25 % raw to 4 %; a pure arithmetic loop only reached 9 %.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

from scipy.integrate import quad

KERNEL_REF_S = 7e-4


class _RationalFactor:
    """sqrt(u) Q(u^2) / (1 + u^2)^q with u = x / c."""

    def __init__(self, width, poly, pole_order):
        self.width = width
        self.poly = poly
        self.pole_order = pole_order

    def profile(self, x):
        u = x / self.width
        s = u * u
        acc = 0.0
        for coef in reversed(self.poly):
            acc = acc * s + coef
        return math.sqrt(u) * acc / (1.0 + s) ** self.pole_order


_F = _RationalFactor(1.0, (1.0,), 2)
_G = _RationalFactor(0.9, (1.0, 2.0), 3)


def kernel():
    """Two fixed Gram-like integrals."""
    for e in (-0.3, -0.01):
        quad(lambda w: _F.profile(w) * _G.profile(w) / (w - e), 0.0, 10.0,
             epsabs=1e-13, epsrel=1e-10, limit=200, points=[1.0])


class SpeedProbe:
    """Kernel runs from SIGALRM every PERIOD_S while active.

    The signal handler runs between bytecodes of the main thread, inside the
    program's integrands, so a gap between consecutive kernel runs of about
    PERIOD_S was spent in Python code.  A long native call, such as a LAPACK
    eigh, defers the handler to its end and leaves a longer gap.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples = []   # (start, end) of each kernel run

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0, t1):
        """(raw, rescaled) seconds between t0 and t1, less the kernel runs.

        Gaps between kernel runs of at most 2 PERIOD_S ran Python code and
        are rescaled by the two kernel runs around them to a machine on which
        the kernel takes KERNEL_REF_S.  Longer gaps ran native code, whose
        speed the kernel does not track (on the VM it made LAPACK times
        noisier, not steadier), and stay as measured.
        """
        starts = [s for s, _ in self.samples]
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        inside = self.samples[i:j]
        around = ([self.samples[i - 1]] if i else [None]) + inside + (
            [self.samples[j]] if j < len(self.samples) else [None])
        edges = [t0] + [t for run in inside for t in run] + [t1]
        raw = rescaled = 0.0
        for k in range(len(inside) + 1):
            gap = edges[2 * k + 1] - edges[2 * k]
            runs = [run[1] - run[0] for run in around[k:k + 2] if run is not None]
            raw += gap
            if gap <= 2.0 * self.PERIOD_S and runs:
                gap *= KERNEL_REF_S / statistics.mean(runs)
            rescaled += gap
        return raw, rescaled
