"""Machine-speed sampling for the benchmark's time metrics.

The machine the benchmark was defined on (a shared 2-vCPU VM) switches
between a fast and a slow state, a third or more apart in speed, that
last from seconds to a minute.  A timing taken in one state cannot be compared with one
taken in the other.  While a worker sets up and while it runs the
workload, a SpeedSampler therefore interrupts it at short intervals
(SIGALRM, handled in the main thread) and times a short fixed burst of
work like the solvers'.  The sampler's own time is subtracted, and the
rest is scaled to the burst's reference time:

    reported = (measured - sum(bursts)) * REFERENCE_S / speed(bursts)

where speed() is a trimmed mean of the burst times.

A reported second is thus a second at the machine speed at which a burst
takes REFERENCE_S.  The burst does not call mblab, so no change to
mblab moves it.  Unscaled times are kept in the run records.
"""
from __future__ import annotations

import signal
import statistics
import time

# A typical burst() time on the machine the benchmark was defined on
# (Python 3.11.7, numpy 2.4.6, 2 vCPUs): about 1.9 ms in its fast state and
# 3.2 ms in its slow state.  It only sets the scale of reported times.
REFERENCE_S = 0.0027
INTERVAL_S = 0.2  # while the workload runs
SETUP_INTERVAL_S = 0.05  # while a worker sets up, which takes about 0.8 s
VECTOR_SIZE = 400
VECTOR_ROUNDS = 100
SCALAR_ROWS = 800


class SpeedSampler:
    """Context manager that times a calibration burst every interval_s
    seconds of wall time while active."""

    def __init__(self, interval_s: float):
        import numpy as np

        self.interval_s = interval_s
        self._np = np
        self._bands = np.zeros((7, SCALAR_ROWS + 4))
        self.samples: list[float] = []
        self._active = False
        self._previous = None

    def burst(self) -> float:
        """CPU seconds taken by the solvers' two kinds of work: small array
        operations, and interpreted scalar updates of a band matrix.

        The arrays stay below the size at which NumPy releases the GIL, so
        in a threaded workload the burst keeps the GIL throughout; the
        thread's CPU time leaves out any wait for it."""
        np, bands = self._np, self._bands

        def put(row, col, val):
            bands[3 + row - col, col] += val

        x = np.linspace(0.0, 1.0, VECTOR_SIZE)
        start = time.thread_time()
        for _ in range(VECTOR_ROUNDS):
            ext = np.concatenate([[0.0], x, [1.0]])
            d2 = ext[:-2] - 2.0 * ext[1:-1] + ext[2:]
            slope = 0.5 * (np.sign(d2) + 1.0) * np.minimum(np.abs(d2), 1.0)
            x = 0.5 * (x + 1e-3 * slope) + 0.25
        for i in range(2, 2 + SCALAR_ROWS):
            put(i, i, 1.0)
            put(i, i - 1, -0.5)
            put(i, i + 1, 0.5)
        return time.thread_time() - start

    def _on_alarm(self, signum, frame):
        # one-shot timer, re-armed after the burst: bursts never nest
        self.samples.append(self.burst())
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self):
        self.samples.clear()
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed(bursts: list) -> float:
    """Mean burst time with the slowest and fastest tenth left out: the
    mean follows the share of time spent in each machine state, and the
    trim drops the rare burst that a busy thread pool stretched."""
    ordered = sorted(bursts)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


def scaled(seconds: float, bursts: list) -> float:
    """seconds, less the bursts taken within them, at the reference
    machine speed."""
    if not bursts:  # shorter than one sampling interval
        return seconds
    return (seconds - sum(bursts)) * REFERENCE_S / speed(bursts)
