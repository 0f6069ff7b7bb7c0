"""A reference clock that follows the machine's speed during a measurement.

The machine this benchmark was written on is shared, and its speed
switches between levels that last about a minute and differ by up to
1.5x.  In one proof of two sets of ten runs, raw wall times of one
operation spread by 0.10 to 0.47 from run to run, and longer runs did
not average the switching away.  So while an operation runs, a SIGALRM
timer interrupts it every ``interval`` seconds and times a fixed
pure-Python loop (``reference``), a burst of a few milliseconds.  The
bursts sample the same core over the same interval as the operation.
The operation's time without the bursts, divided by the mean burst and
multiplied by ``REF_BURST_S``, is the time the operation would take on
the machine at its reference speed.

Measured with bursts of about 13 ms every 0.2 s: over 10 back-to-back
``noghost`` operations the scaled time spread by 0.04 against 0.23 raw
(correlation between operation time and mean burst 0.99), and over 12
``observable`` operations by 0.04 against 0.13 (correlation 0.96).  A
loop timed only before and after each operation tracked it far less
well (the spread went from 0.18 to 0.16).  Over 40 fresh set-up
interpreters, each timing its own bursts, the spread went from 0.18 to
0.07 (correlation 0.83).

The loop is the benchmark's own, so a change to ``openstring`` moves the
operation's time and not the reference.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Mean burst of ``reference()`` on the machine the reference figures were
# taken on, at its usual speed: scaled times read as seconds there.
REF_BURST_S = 0.0042


def reference(n: int = 1000) -> None:
    """Fixed work: exact fractions and a small dict, like the package's
    exact layers."""
    acc: dict = {}
    s = Fraction(0)
    for i in range(1, n + 1):
        k = i % 257
        s += Fraction(i % 13 + 1, k + 1)
        acc[k] = acc.get(k, 0) + s.denominator % 7


class RefClock:
    """Time ``reference()`` every ``interval`` seconds inside a ``with``.

    ``bursts`` holds the burst times.  The timer and the previous SIGALRM
    handler are restored on exit.  A block too short for the timer to
    fire gets one burst on exit, so a wall time taken around the whole
    ``with`` always contains every burst.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.bursts: list = []
        self._previous = None

    def _burst(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference()
        self.bursts.append(time.perf_counter() - start)

    def __enter__(self) -> "RefClock":
        self.bursts = []
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.bursts:
            self._burst()

    def summary(self) -> tuple:
        """(seconds spent in bursts, mean burst seconds)."""
        return sum(self.bursts), statistics.mean(self.bursts)


def scaled(wall: float, burst_total: float, burst_mean: float) -> float:
    """Seconds at the reference speed of ``wall`` seconds measured around
    bursts that took ``burst_total`` seconds, ``burst_mean`` each."""
    return (wall - burst_total) * REF_BURST_S / burst_mean
