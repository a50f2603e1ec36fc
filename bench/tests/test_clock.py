"""The steady clock: stands still inside samples, scales between them."""

import pytest

from bench.clock import CALIB_REF_S, SteadyClock


def _clock(samples):
    clock = SteadyClock()
    clock.samples = samples
    return clock


def test_reference_speed_maps_wall_clock_to_itself_less_the_samples():
    # Two samples of 1 s each at reference speed, 10 s of work between them.
    clock = _clock([(0.0, 1.0, CALIB_REF_S), (11.0, 12.0, CALIB_REF_S)])
    assert clock.seconds(1.0, 11.0) == pytest.approx(10.0)
    assert clock.seconds(0.0, 12.0) == pytest.approx(10.0)  # samples take no time
    assert clock.seconds(0.5, 1.0) == pytest.approx(0.0)
    assert clock.seconds(12.0, 14.0) == pytest.approx(2.0)  # beyond the last sample
    assert clock.seconds(-3.0, 0.0) == pytest.approx(3.0)  # before the first


def test_a_machine_running_twice_as_slow_halves_steady_time():
    slow = 2.0 * CALIB_REF_S
    clock = _clock([(0.0, 0.0, slow), (10.0, 10.0, slow), (20.0, 20.0, slow)])
    assert clock.seconds(0.0, 20.0) == pytest.approx(10.0)
    assert clock.seconds(5.0, 15.0) == pytest.approx(5.0)


def test_one_interrupted_sample_does_not_bend_the_clock():
    ref = CALIB_REF_S
    clock = _clock([(float(t), float(t), ref) for t in range(5)] + [(5.0, 5.0, 9 * ref)]
                   + [(float(t), float(t), ref) for t in range(6, 11)])
    assert clock.seconds(0.0, 10.0) == pytest.approx(10.0)


def test_start_and_stop_sample_on_a_timer_and_restore_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = SteadyClock()
    clock.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4
    assert 0.0 < clock.seconds(clock.samples[0][1], clock.samples[-1][0]) < 1.0
    assert clock.calib_ms > 0.0
