"""Machine-speed probe: times in reference seconds.

The 2-core machine the baseline was measured on changes speed by up to
1.8x from one second to the next, in wall and CPU time alike, so raw wall
times of identical work spread by a quarter or more from run to run.  While
a timed run goes on, a SIGPROF handler times a fixed pure-Python loop after
every ``PERIOD_S`` of process CPU time.  The time of an interval is then
reported in reference seconds: its wall time, less the probe's own time
inside it, times the mean speed the probe saw around it, where speed 1 means
the loop took ``REF_S``.  Raw wall times stay in the run's detail line.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.2
LOOP = 40_000
# the loop's time on that machine in its fast state (Python 3.11.7)
REF_S = 0.0025

clock = time.perf_counter


class SpeedProbe:
    def __init__(self):
        self.samples = []   # (start, duration); one append per sample

    def _sample(self, signum=None, frame=None):
        t0 = clock()
        x = 0
        for i in range(LOOP):
            x += i * i
        self.samples.append((t0, clock() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self._sample()

    def seconds(self, t0, t1) -> float:
        """Reference seconds of the wall-clock interval [t0, t1].

        Probe samples started inside the interval ended inside it too (the
        handler runs in the measured thread), so their time is taken out.
        An interval too short to hold a sample uses the samples on either
        side of it.
        """
        i = bisect.bisect_left(self.samples, t0, key=lambda s: s[0])
        j = bisect.bisect_left(self.samples, t1, key=lambda s: s[0])
        inside = [d for _, d in self.samples[i:j]]
        near = inside or [d for _, d in self.samples[max(i - 1, 0):i + 1]]
        speed = sum(REF_S / d for d in near) / len(near)
        return (t1 - t0 - sum(inside)) * speed
