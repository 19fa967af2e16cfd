"""How fast the host runs this process, sampled during a repetition.

The benchmark shares a few cores of a busy host.  Whether other tenants
keep the sibling hardware threads busy changes from second to second
and from minute to minute, and it slows the same Python code by up to
1.8x, in CPU time as well as in wall time (there is no steal time to
subtract, and the VM exposes no instruction counter).  Medians over
repetitions do not remove that: a whole 40-second run can fall in a
busy or in a quiet minute.

So each child samples its own speed while it works.  A SIGALRM every
``PERIOD_S`` of wall time runs a fixed pure-Python loop in the same
thread and records how long it took.  The signal arrives at even
wall-clock intervals, so the mean of ``1 / duration`` over a window is
the window's average speed, and

    (window - calibration) * REFERENCE_S * mean(1 / duration)

is the time the window's work would have taken at the reference speed.
The benchmark reports its timings that way: in seconds at the speed at
which the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
LOOP = 30_000
# The loop's uncontended duration on the 2-vCPU Intel Xeon VM the first
# baseline was measured on (Python 3.11.7).  Any fixed value would do: it
# only sets the scale of the reported seconds.
REFERENCE_S = 0.002


def _calibrate():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class Sampler:
    def __init__(self):
        self.samples = []  # (monotonic start, duration)

    def _tick(self, signum, frame):
        start = time.monotonic()
        _calibrate()
        self.samples.append((start, time.monotonic() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, raw_s, start, end):
        """``raw_s`` seconds spent in ``[start, end)`` of monotonic time,
        as they would have taken at the reference speed.  Without a
        sample in the window, ``raw_s`` is returned unchanged."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            return raw_s
        speed = sum(1.0 / d for d in inside) / len(inside)
        return (raw_s - sum(inside)) * REFERENCE_S * speed

    def median_ms(self):
        durations = sorted(d for _, d in self.samples)
        return 1e3 * durations[len(durations) // 2] if durations else 0.0
