"""The machine's speed during a timed call, to take other tenants' load out
of the benchmark's times.

On a shared VM the same code runs up to about 1.7x slower while other
tenants load the host, in episodes from milliseconds to minutes, so raw wall
times of the same code spread more between runs than the benchmark's bounds.
``SpeedProbe`` times a fixed reference loop every ``INTERVAL`` seconds of wall
time from a ``SIGALRM`` handler. The handler runs on the benchmark's own
thread, between the program's bytecodes, so each sample sees the contention
the program saw at that moment. The loop runs ``WARM`` iterations before
the timed ones, so that refilling the caches the program just used, which
depends on the program, stays out of the sample. ``adjusted`` turns a timed
interval into the seconds it would have taken with the loop running at
``REF_LOOP_S`` per loop throughout; a faster or slower program moves it as
much as its wall time, a busier host does not.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.02  # seconds of wall time between samples
WARM, LOOP = 500, 2000  # iterations before and during the timed part
# The reference speed: roughly the loop's median time on the 2-core Xeon VM
# the benchmark's bounds were set on. It only scales the reported seconds.
REF_LOOP_S = 80e-6


def reference_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i
    return s


class SpeedProbe:
    """Samples the reference loop's time while active (a context manager).
    Only one may be active at a time, in the main thread."""

    def __init__(self):
        # (end time, seconds of the timed loop, seconds of the whole sample)
        self.samples: list[tuple[float, float, float]] = []
        self._saved = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop(WARM)
        warm = time.perf_counter()
        reference_loop(LOOP)
        end = time.perf_counter()
        self.samples.append((end, end - warm, end - start))

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def adjusted(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``time.perf_counter`` values),
        less the probe's own time in between, at the reference speed. Each
        sample stands for the machine's speed since the previous one. An
        interval too short to hold a sample is scaled by one taken now."""
        prev, speed, probe = start, 0.0, 0.0
        for t, loop_s, sample_s in self.samples:
            if start < t <= end:
                speed += (t - prev) * REF_LOOP_S / loop_s
                probe += sample_s
                prev = t
        if prev == start:
            reference_loop(WARM)
            now = time.perf_counter()
            reference_loop(LOOP)
            return (end - start) * REF_LOOP_S / (time.perf_counter() - now)
        return (end - start - probe) * speed / (prev - start)
