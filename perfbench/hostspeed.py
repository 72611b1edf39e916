"""Host speed, sampled in the measuring thread while a run measures.

The speed of the shared host drifts: the same pure-Python loop can take
twice as long from one minute to the next, and CPU time moves with wall
time, so the slowdown is in the CPU, not in waiting.  To keep that drift out
of the benchmark's figures, a ``SIGVTALRM`` timer fires after every
``INTERVAL_S`` of CPU time the process uses, and its handler times a fixed
pure-Python loop.  The handler runs in the main thread between bytecodes,
on the same CPU as the workload.  ``scale`` turns a time measured while
``samples[first:end]`` were taken into the time at the reference speed,
``REF_LOOP_S``, by the median of those samples and ``WINDOW`` more on each
side; ``factor`` does the same with the median of the whole run.
``spent_s`` is the time spent in the handler, which the caller takes out of
every timed op.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
LOOP_ITERATIONS = 20_000
# a typical run median of the loop on the 2-vCPU x86-64 host (Python 3.11)
# where the benchmark was defined, whose run medians ranged 1.2-2.0 ms; a
# constant, so scaled times compare across runs
REF_LOOP_S = 1.5e-3
# samples on each side of an op that set its speed
WINDOW = 5


def calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self._sample()

    @property
    def loop_s(self) -> float:
        """Median time of the calibration loop during the run."""
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        return REF_LOOP_S / self.loop_s

    def scale(self, seconds: float, first: int, end: int) -> float:
        """``seconds`` measured while samples[first:end] were taken, at the
        reference speed."""
        lo, hi = max(0, first - WINDOW), min(len(self.samples), end + WINDOW)
        return seconds * REF_LOOP_S / statistics.median(self.samples[lo:hi])
