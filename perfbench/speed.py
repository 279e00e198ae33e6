"""Host-speed normalisation for timings taken on a shared machine.

On a shared VM the speed of a vCPU drifts by ±20 % in phases lasting tens
of seconds, and CPU time drifts with it, so a run's wall time says as much
about the host as about the program.  While a ``Speedometer`` is active, a
fixed reference workload is timed every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, i.e. in between the measured program's bytecodes.  A
measured interval is then scaled by ``REFERENCE_S`` over the median
reference time taken during it: the result is the interval's length on a
host that runs the reference workload in ``REFERENCE_S``.  The sampling
costs about 0.5 % of the measured time, on both sides of any comparison.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Reference time of ``Speedometer.reference``: its median on the 2-core
# x86-64 VM (Python 3.11) the benchmark was tuned on.  It only sets the scale.
REFERENCE_S = 5e-4
MIN_SAMPLES = 5


class Speedometer:
    """Context manager; ``mark`` before an interval, ``scale`` after it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._inputs = rng.standard_normal((100, 20)), rng.standard_normal((20, 20))
        self.samples = []
        self._previous = None

    def reference(self) -> float:
        """Seconds taken by a fixed workload, half interpreted loop (as in
        the transport simplex) and half small numpy layers (as in the
        networks); each half alone tracks its own kind of work best."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(2300):
            acc += i * i % 7
        x, w = self._inputs
        for _ in range(10):
            h = np.tanh(x @ w)
            h.sum(axis=0)
            np.maximum(h, 0.0)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.samples.append(self.reference())

    def __enter__(self):
        for _ in range(20):                 # warm the reference up
            self.reference()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, seconds: float, since: int) -> float:
        """``seconds``, measured since ``mark()`` returned ``since``, scaled
        to the reference host speed.  A short interval is topped up with
        samples taken right after it."""
        taken = self.samples[since:]
        while len(taken) < MIN_SAMPLES:
            taken.append(self.reference())
        return seconds * REFERENCE_S / statistics.median(taken)
