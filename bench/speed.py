"""Machine-speed sampling, so that study times from a shared machine stay comparable.

On a small shared VM the speed of the CPU the benchmark gets drifts by more than a
factor of 2 over seconds to minutes, because of work outside the VM.
Raw wall times then spread by 18 to 48 % between runs, far more than any
useful bound.  So while a run measures, a SIGALRM timer runs a fixed kernel
in the main thread (between bytecodes, never concurrently with the program)
every ``SAMPLE_PERIOD_S``.  The time the kernel takes tells how fast the
machine is at that moment.  A study's calibrated time is its wall time,
minus the time spent in the kernel, scaled by the reference kernel time
over the kernel time measured during the study: the time the study would
take at the reference speed.  It is still driven by the program's own work.
A faster program gives a proportionally smaller calibrated time.

``REFERENCE_S_PER_ITERATION`` is the kernel time on an idle 2-vCPU VM with
Python 3.11.7 and numpy 2.4.6.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S_PER_ITERATION = 23.5e-6
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERATIONS = 100

_A = np.arange(9.0).reshape(3, 3)


def kernel_seconds(iterations: int) -> float:
    """Time of a fixed mix of interpreter work and 3x3 numpy operations."""
    start = time.perf_counter()
    x = 0.0
    for i in range(iterations):
        b = _A @ _A.T
        x += float(b[0, 0]) + i * 0.5
        x += float(np.cross(_A[0], _A[1])[2])
    return time.perf_counter() - start


def speed_ratio(iterations: int = 1000) -> float:
    """Reference kernel time over the kernel time measured now (after a short warm-up)."""
    kernel_seconds(50)
    return REFERENCE_S_PER_ITERATION * iterations / kernel_seconds(iterations)


class SpeedSampler:
    """Samples the kernel from a timer signal while active; see the module docstring."""

    def __init__(self):
        self.samples = []  # (end time, kernel seconds)
        self._active = False

    def _sample(self, *_):
        seconds = kernel_seconds(SAMPLE_ITERATIONS)
        self.samples.append((time.perf_counter(), seconds))
        # One-shot timer, re-armed here, so that samples never nest.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def __enter__(self):
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float):
        """Samples that ended in [start, end], and the speed factor for that interval.

        The factor is the reference over the measured kernel time, from the
        samples inside the interval, or from the last few before it when the
        interval is shorter than the sampling period.
        """
        inside = [(t, s) for t, s in self.samples if start <= t <= end]
        recent = [s for _, s in inside or self.samples[-5:]]
        return inside, REFERENCE_S_PER_ITERATION * SAMPLE_ITERATIONS / statistics.fmean(recent)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the interval [start, end] measured while active."""
        inside, factor = self.window(start, end)
        return (end - start - sum(s for _, s in inside)) * factor
