"""The machine's current speed, from a fixed pure-Python reference loop.

On a shared machine the speed of the same code drifts by tens of percent, in
phases lasting seconds to minutes, while CPU time keeps tracking wall time.
Every gated timing is therefore also reported at a reference speed: a
measured stretch is scaled by ``REF_S / t`` where ``t`` is the CPU time of the
reference loop run in the same thread during or right next to that stretch.
``REF_S`` is the loop's time on a shared 2-vCPU Intel Xeon VM in its fast
phase, so there the scaled figures read as plain seconds.  The scaling
removes the machine's phase, not the program's work: the loop never calls
the program.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 1.5e-3
LOOP = 20000
PERIOD_S = 0.25


def calibrate() -> float:
    """CPU seconds of the reference loop, now, in this thread."""
    t0 = time.thread_time()
    s = 0
    for i in range(LOOP):
        s += i * i & 0xFF
    return time.thread_time() - t0


def factor(samples) -> float:
    """Mean of ``REF_S / t`` over calibration samples: multiply a time by it."""
    return statistics.mean(REF_S / t for t in samples)


class Sampler:
    """Calibrates every ``PERIOD_S`` of wall time while a stretch of work runs.

    SIGALRM runs the loop in the main thread between bytecodes, also while
    the thread waits for a process pool.  Interval timers are not inherited
    across fork, so pool workers are not interrupted.  The loop adds about
    1% to the stretch, the same on every run.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        return factor(self.samples)
