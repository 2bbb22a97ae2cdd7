"""A clock that counts time at a fixed reference CPU speed.

On a shared host the speed of a virtual CPU swings by up to 1.5x for seconds
at a time: the same cold run of a workload took 14 s in one run and 20 s in
the next.  SpeedClock samples the CPU's current speed every 25 ms, by timing
a fixed spin of Fraction additions in a SIGALRM handler (so it needs no
thread), and rescales each stretch of time by SPIN_REF_S / spin time.  Time
spent in the handler counts as zero.  The result estimates how long the work
takes on a CPU where the spin takes SPIN_REF_S.

The spin does what legpart's hot paths do: interpreted calls, small-object
allocation and big-int gcds.  Tight integer loops and dict walks tracked the
slowdown of the workloads less well.
"""

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
SPIN_REF_S = 250e-6     # about the spin's time on an unloaded 2-core Xeon VM


def _spin():
    s = Fraction(0)
    for i in range(1, 61):
        s += Fraction(i, i + 7)
    return s


class SpeedClock:
    def __init__(self):
        self._samples = []       # (start, duration) of each spin

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _spin()
        self._samples.append((t, time.perf_counter() - t))

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # reference time at the end of each spin; the stretch before spin i
        # runs at the speed spin i measured
        self._ends, self._refs, self._factors = [], [], []
        prev, ref = None, 0.0
        for t, d in self._samples:
            factor = SPIN_REF_S / d
            if prev is not None:
                ref += (t - prev) * factor
            self._ends.append(t + d)
            self._refs.append(ref)
            self._factors.append(factor)
            prev = t + d

    def _ref(self, t):
        """Reference time at a perf_counter() reading t taken outside a spin."""
        i = bisect.bisect_right(self._ends, t)
        if i == 0:
            return self._refs[0] - (self._ends[0] - t) * self._factors[0]
        j = min(i, len(self._ends) - 1)
        return self._refs[i - 1] + (t - self._ends[i - 1]) * self._factors[j]

    def seconds(self, t0, t1):
        """Reference-speed seconds between perf_counter() readings t0 and t1."""
        return self._ref(t1) - self._ref(t0)
