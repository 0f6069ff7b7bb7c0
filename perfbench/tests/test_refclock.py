"""The reference clock: bursts inside the block, handler restored, scaling."""

import signal
import time

import pytest

from refclock import REF_BURST_S, RefClock, scaled


def test_scaled_removes_bursts_and_rescales():
    assert scaled(1.1, 0.1, REF_BURST_S) == pytest.approx(1.0)
    assert scaled(1.1, 0.1, 2 * REF_BURST_S) == pytest.approx(0.5)


def test_bursts_fire_inside_the_block_and_the_timer_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with RefClock(0.01) as clock:
        while time.perf_counter() - start < 0.15:
            pass
    wall = time.perf_counter() - start
    assert len(clock.bursts) >= 3
    total, mean = clock.summary()
    assert 0 < total < wall
    assert mean == pytest.approx(total / len(clock.bursts))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_block_shorter_than_the_interval_gets_one_burst():
    with RefClock(60.0) as clock:
        pass
    assert len(clock.bursts) == 1
