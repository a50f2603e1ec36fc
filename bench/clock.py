"""Steady time: wall-clock scaled by a calibration loop sampled on a timer.

This box shares its cores. A fixed loop that takes 2.3 ms here takes 3.0 or
3.6 ms for 5-30 s at a stretch when a neighbour is busy, and process CPU
time moves with it, so the raw medians of two 15 s runs of the same code
differ by up to 50% (``README.md`` has the measurements). No regression
bound survives that. So while a workload runs, an interval timer interrupts
the main thread every 50 ms and runs the calibration loop below; afterwards
every ``time.perf_counter()`` reading of the run is mapped onto a *steady*
clock that stands still inside the samples and otherwise advances at
``CALIB_REF_S`` over the loop's time around that moment. What the benchmark
reports as seconds are differences of steady readings; the raw wall-clock is
printed beside them and ``bench.calib_ms`` records the machine state.

The program is not touched: the handler runs between two bytecodes of
whatever the main thread is doing, reads no program state, and its own
duration is taken out of both clocks.

The loop is pure-Python integer, field and bigint arithmetic plus a little
hashing — the instruction mix of the product code — and allocates no
container, so it never triggers a collection of the workload's garbage.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: The loop's time on this box in its undisturbed state. It only fixes the
#: unit: steady seconds are seconds at the speed where the loop takes this.
CALIB_REF_S = 0.0023

#: Seconds between samples: well under the 5-30 s a machine state lasts,
#: and 5% of the run spent calibrating.
SAMPLE_INTERVAL_S = 0.05

_FIELD = (1 << 127) - 1
_MODULUS = (1 << 1023) | 0x3039
_BLOCK = b"arboretum-bench-calibration-0123"


def calibration_loop() -> float:
    """Seconds one fixed mix of interpreter, field, bigint and hash work takes."""
    started = time.perf_counter()
    small = 0
    for i in range(4800):
        small = (small + i * 3) ^ (i >> 2)
    element = 12345678901234567890123
    for i in range(2600):
        element = (element * element + i) % _FIELD
    big = (1 << 1000) + small
    for _ in range(440):
        big = big * big % _MODULUS
    digest = hashlib.sha256()
    for _ in range(600):
        digest.update(_BLOCK)
    digest.update((element ^ big).to_bytes(128, "big"))
    digest.digest()
    return time.perf_counter() - started


class SteadyClock:
    """Samples the calibration loop on a timer; maps readings afterwards."""

    def __init__(self) -> None:
        #: (handler start, handler end, loop seconds), in time order.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous_handler = None
        self._map = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        seconds = calibration_loop()
        self.samples.append((started, time.perf_counter(), seconds))

    def start(self) -> None:
        """Take a sample now, then one every ``SAMPLE_INTERVAL_S``."""
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    @property
    def calib_ms(self) -> float:
        """Median sample of the run: the record of the machine's state."""
        return 1000.0 * statistics.median(s[2] for s in self.samples)

    def _timeline(self):
        """Knots of the piecewise-linear map from readings to steady seconds."""
        loops = [s[2] for s in self.samples]
        smooth = [
            statistics.median(loops[max(0, i - 1) : i + 2]) for i in range(len(loops))
        ]
        knots = [self.samples[0][0]]
        values = [0.0]
        for i, (started, ended, _) in enumerate(self.samples):
            if i:
                rate = 2.0 * CALIB_REF_S / (smooth[i - 1] + smooth[i])
                values.append(values[-1] + (started - knots[-1]) * rate)
                knots.append(started)
            knots.append(ended)
            values.append(values[-1])
        return knots, values, CALIB_REF_S / smooth[0], CALIB_REF_S / smooth[-1]

    def steady(self, readings: Sequence[float]):
        """Steady-clock values of ``perf_counter`` readings, as an array.

        Between two samples the steady clock runs at ``CALIB_REF_S`` over
        the mean of the two (each first replaced by the median of itself and
        its neighbours, so one interrupted sample does not bend the clock);
        inside a sample it stands still; outside the sampled span it keeps
        the nearest rate. Call after ``stop()``.
        """
        import numpy as np

        if self._map is None:
            self._map = self._timeline()
        knots, values, rate_before, rate_after = self._map
        readings = np.asarray(readings, dtype=float)
        out = np.interp(readings, knots, values)
        before = readings < knots[0]
        after = readings > knots[-1]
        out[before] = (readings[before] - knots[0]) * rate_before
        out[after] = values[-1] + (readings[after] - knots[-1]) * rate_after
        return out

    def seconds(self, start: float, end: float) -> float:
        """Steady seconds between two readings."""
        pair = self.steady([start, end])
        return float(pair[1] - pair[0])
