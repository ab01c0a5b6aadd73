"""Machine-speed probe: scales wall times by the speed measured while they ran.

The benchmark runs on a shared box whose speed flips, every second or so,
between a fast state and one up to 1.8 times slower, whatever the code
does; a fixed loop slows with bolalg's own code.  A whole-run wall time
therefore mostly measures how long the box was slow.

``Probe`` samples the speed from inside the timed process, in its only
thread: an interval timer (SIGALRM every ``period`` seconds of wall time)
interrupts the running code, times one call of a fixed loop and records
(start, duration).  Garbage collection is off during the call, so the
probe neither triggers nor pays for a collection of bolalg's objects.

``Probe.clock`` turns the samples into a scaled clock: each stretch of
wall time between two samples counts at the speed ``reference /
duration`` sampled at its ends, where ``reference`` is a fixed constant,
the loop's duration in the fast state of the box the benchmark was written
on.  Every duration taken on that clock (jobs, passes, the tracer's spans)
is in seconds of that state.  The constant is fixed, not taken from the
run, because a whole run can pass without one fast sample.  The loop runs
in bolalg's process: a change that left the caches or the allocator in a
worse state would slow the loop too, and part of its cost would not show.

Two loops: the one ``fraction_loop()`` returns does what bolalg does most
(Fraction products and sums over tuple-indexed tables, about 1% of the
wall time at the default period) and tracks its slow-downs best;
``int_loop`` allocates nothing and needs no import, so a fresh
interpreter can run it while it times bolalg's import.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.01
_INTS = (1,) * 300
_TABLE = tuple(tuple((3 * i + 5 * j) % 8 for j in range(2)) for i in range(8))

# Each loop's duration in the fast state: about the 5th percentile of its
# samples over several runs on a shared 2-core box.
INT_LOOP_S = 14e-6
FRACTION_LOOP_S = 55e-6


def int_loop() -> int:
    x = 0
    for step in _INTS:
        x = (x * 5 + step) & 63
    return x


def fraction_loop():
    """The loop over Fractions (importing fractions first)."""
    from fractions import Fraction

    values = tuple(Fraction(i + 1, 2 * i + 3) for i in range(8))

    def loop():
        total = Fraction(0)
        for a, row in zip(values, _TABLE):
            for j in row:
                total += a * values[j]
        return total

    return loop


class Probe:
    def __init__(self, loop, reference: float, period: float = PERIOD_S):
        self.loop = loop
        self.reference = reference
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self):
        """The scaled clock: a function of a ``perf_counter`` time whose
        differences are wall seconds, each stretch of time weighted by the
        speed ``reference / duration`` sampled at its ends."""
        starts = self.starts
        speeds = [self.reference / d for d in self.durations]
        cumulative = [0.0]
        for i in range(1, len(starts)):
            cumulative.append(cumulative[-1] + (starts[i] - starts[i - 1])
                              * (speeds[i - 1] + speeds[i]) / 2)

        def scaled(t: float) -> float:
            if not starts:
                return t
            k = bisect.bisect_right(starts, t) - 1
            if k < 0:
                return speeds[0] * (t - starts[0])
            if k == len(starts) - 1:
                return cumulative[k] + speeds[k] * (t - starts[k])
            return cumulative[k] + (t - starts[k]) * (speeds[k] + speeds[k + 1]) / 2

        return scaled
